"""Static verifier: abstract interpretation over the program CFG.

Models the kernel verifier's essentials (the parts whose *cost* the
paper measures and whose *function* RDX must relocate off the host):

* register typing (scalar vs ctx/stack/map-value pointers),
* stack-slot initialization and spill tracking,
* bounds checks on every memory access,
* null-check enforcement for ``bpf_map_lookup_elem`` results,
* helper-call signature checking,
* loop rejection (back edges) and a complexity budget,
* dead-code and fallthrough-off-the-end rejection.

State exploration uses per-pc memoization (the kernel's state pruning):
``states_visited`` is the cost driver that the agent baseline charges
to the host CPU via :func:`repro.params.verify_cost_us`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import VerifierError
from repro.ebpf import opcodes as op
from repro.ebpf.helpers import ArgType, RetType, helper_by_id
from repro.ebpf.insn import Insn
from repro.ebpf.program import BpfProgram

#: Kernel-style complexity budget (1M state visits).
MAX_STATES = 1_000_000


class RegType(enum.Enum):
    UNINIT = "uninit"
    SCALAR = "scalar"
    PTR_CTX = "ptr_ctx"
    PTR_STACK = "ptr_stack"
    CONST_PTR_MAP = "const_ptr_map"
    PTR_MAP_VALUE = "ptr_map_value"
    PTR_MAP_VALUE_OR_NULL = "ptr_map_value_or_null"
    NULL = "null"


# The members as module constants: ``RegType.X`` is an enum attribute
# lookup, ~100 ns each on CPython 3.11, and the verifier's hot path
# makes several per instruction.
UNINIT = RegType.UNINIT
SCALAR = RegType.SCALAR
PTR_CTX = RegType.PTR_CTX
PTR_STACK = RegType.PTR_STACK
CONST_PTR_MAP = RegType.CONST_PTR_MAP
PTR_MAP_VALUE = RegType.PTR_MAP_VALUE
PTR_MAP_VALUE_OR_NULL = RegType.PTR_MAP_VALUE_OR_NULL
NULL = RegType.NULL


class _Reg:
    """Abstract state of one register.

    Registers are interned per verification (:meth:`_Verifier._reg`):
    equal ``(type, off, map_slot)`` values are one object, so states
    hash and compare registers by identity, in C.
    """

    __slots__ = ("type", "off", "map_slot")

    def __init__(self, type: RegType, off: int = 0, map_slot: int = -1):
        self.type = type
        #: Byte offset for stack/map-value pointers.
        self.off = off
        #: Map slot index for map pointers.
        self.map_slot = map_slot


_UNINIT = _Reg(UNINIT)
_SCALAR = _Reg(SCALAR)
_CTX = _Reg(PTR_CTX)
_FRAME = _Reg(PTR_STACK)
_NULL = _Reg(NULL)
#: Offset-free registers every verification shares.  Each interning
#: table starts from them, so a value rebuilt from parts (fp - 8 + 8)
#: is still the same object.
_SHARED = (_UNINIT, _SCALAR, _CTX, _FRAME, _NULL)
#: R1-R5 after a helper call (caller-saved).
_CLOBBERED = (_UNINIT,) * 5

#: Abstract machine state at one program point, a plain tuple
#: ``(regs, stack_init, spills)``: ``regs`` holds 11 interned
#: registers; ``stack_init`` is a bitmask of initialised stack bytes,
#: bit ``byte + STACK_SIZE`` for byte offset ``byte`` (negative);
#: ``spills`` is the sorted ``((slot_off, reg), ...)`` of registers
#: spilled to 8-byte aligned slots.
_State = tuple


def _with_reg(state: _State, index: int, reg: _Reg) -> _State:
    regs = state[0]
    return (regs[:index] + (reg,) + regs[index + 1 :], state[1], state[2])


def _stack_bits(slot: int, size: int) -> int:
    return ((1 << size) - 1) << (slot + op.STACK_SIZE)


def _first_uninit(stack_init: int, slot: int, size: int) -> Optional[int]:
    """Lowest byte of ``[slot, slot + size)`` not yet initialised."""
    for byte in range(slot, slot + size):
        if not stack_init >> (byte + op.STACK_SIZE) & 1:
            return byte
    return None


@dataclass
class VerifierStats:
    """Outcome of a successful verification."""

    insn_count: int
    states_visited: int = 0
    peak_queue: int = 0
    helpers_called: tuple[str, ...] = ()

    @property
    def complexity(self) -> int:
        return self.states_visited


@dataclass(frozen=True)
class MapGeometry:
    """What the verifier needs to know about each referenced map."""

    key_size: int
    value_size: int


class _Verifier:
    def __init__(
        self,
        program: BpfProgram,
        maps: dict[int, MapGeometry],
        ctx_size: int,
    ):
        self.insns = program.insns
        self.maps = maps
        self.ctx_size = ctx_size
        self.stats = VerifierStats(insn_count=len(self.insns))
        self.helpers_used: set[str] = set()
        self._seen: dict[int, set[_State]] = {}
        self._reached: set[int] = set()
        #: (type, off, map_slot) -> the one register with that value.
        self._interned: dict[tuple[RegType, int, int], _Reg] = {
            (reg.type, reg.off, reg.map_slot): reg for reg in _SHARED
        }

    def _reg(self, type: RegType, off: int = 0, map_slot: int = -1) -> _Reg:
        """The interned register for ``(type, off, map_slot)``."""
        key = (type, off, map_slot)
        reg = self._interned.get(key)
        if reg is None:
            reg = self._interned[key] = _Reg(type, off, map_slot)
        return reg

    # -- entry -----------------------------------------------------------

    def run(self) -> VerifierStats:
        if not self.insns:
            raise VerifierError("empty program")
        if len(self.insns) > op.MAX_INSNS:
            raise VerifierError(f"program too large: {len(self.insns)} insns")
        self._check_lddw_pairing()
        regs = [_UNINIT] * 11
        regs[op.R1] = _CTX
        regs[op.R10] = _FRAME
        initial: _State = (tuple(regs), 0, ())
        stack: list[tuple[int, _State]] = [(0, initial)]
        seen = self._seen
        visited = peak = 0
        while stack:
            if len(stack) > peak:
                peak = len(stack)
            pc, state = stack.pop()
            states = seen.get(pc)
            if states is None:
                seen[pc] = {state}
            else:
                # One hash per visit: the add is the membership test.
                before = len(states)
                states.add(state)
                if len(states) == before:
                    continue
            visited += 1
            if visited > MAX_STATES:
                raise VerifierError("BPF program is too large (state budget)")
            stack.extend(self._step(pc, state))
        self.stats.states_visited = visited
        self.stats.peak_queue = peak
        self._check_unreachable()
        self.stats.helpers_called = tuple(sorted(self.helpers_used))
        return self.stats

    def _check_lddw_pairing(self) -> None:
        index = 0
        while index < len(self.insns):
            if self.insns[index].opcode == op.LDDW:
                if index + 1 >= len(self.insns):
                    raise VerifierError("LDDW at end of program")
                if self.insns[index + 1].opcode != 0:
                    raise VerifierError("LDDW second half has nonzero opcode")
                index += 2
            else:
                index += 1

    def _check_unreachable(self) -> None:
        index = 0
        while index < len(self.insns):
            if index not in self._reached:
                raise VerifierError(f"unreachable instruction at {index}")
            index += 2 if self.insns[index].opcode == op.LDDW else 1

    # -- single step ---------------------------------------------------

    def _step(self, pc: int, state: _State) -> list[tuple[int, _State]]:
        if pc < 0 or pc >= len(self.insns):
            raise VerifierError(f"jump out of range to {pc}")
        self._reached.add(pc)
        insn = self.insns[pc]
        cls = op.insn_class(insn.opcode)
        if insn.opcode == op.LDDW:
            return self._do_lddw(pc, insn, state)
        if insn.opcode == 0:
            raise VerifierError(f"jump into the middle of LDDW at {pc}")
        if cls in (op.BPF_ALU, op.BPF_ALU64):
            return [(pc + 1, self._do_alu(pc, insn, state, cls))]
        if cls == op.BPF_LDX:
            return [(pc + 1, self._do_ldx(pc, insn, state))]
        if cls in (op.BPF_ST, op.BPF_STX):
            return [(pc + 1, self._do_store(pc, insn, state, cls))]
        if cls == op.BPF_JMP:
            return self._do_jmp(pc, insn, state)
        if cls == op.BPF_JMP32:
            return self._do_jmp(pc, insn, state)
        raise VerifierError(f"unsupported opcode {insn.opcode:#04x} at {pc}")

    # -- ALU ---------------------------------------------------------------

    def _read_reg(self, state: _State, index: int, pc: int) -> _Reg:
        reg = state[0][index]
        if reg.type is UNINIT:
            raise VerifierError(f"R{index} !read_ok at insn {pc}")
        return reg

    def _do_alu(self, pc: int, insn: Insn, state: _State, cls: int) -> _State:
        operation = op.alu_op(insn.opcode)
        if insn.dst == op.R10:
            raise VerifierError(f"frame pointer is read-only (insn {pc})")
        use_reg = bool(insn.opcode & op.BPF_X)

        if operation == op.BPF_MOV:
            if use_reg:
                src = self._read_reg(state, insn.src, pc)
                if cls == op.BPF_ALU and src.type is not SCALAR:
                    # 32-bit mov truncates pointers into scalars.
                    src = _SCALAR
                return _with_reg(state, insn.dst, src)
            return _with_reg(state, insn.dst, _SCALAR)

        if operation == op.BPF_NEG:
            dst = self._read_reg(state, insn.dst, pc)
            if dst.type is not SCALAR:
                raise VerifierError(f"NEG on pointer R{insn.dst} at {pc}")
            return state

        if operation == op.BPF_END:
            dst = self._read_reg(state, insn.dst, pc)
            if dst.type is not SCALAR:
                raise VerifierError(f"byte swap on pointer at {pc}")
            return state

        dst = self._read_reg(state, insn.dst, pc)
        src_type = SCALAR
        if use_reg:
            src = self._read_reg(state, insn.src, pc)
            src_type = src.type

        if operation in (op.BPF_DIV, op.BPF_MOD) and not use_reg and insn.imm == 0:
            raise VerifierError(f"division by zero constant at {pc}")
        if operation in (op.BPF_LSH, op.BPF_RSH, op.BPF_ARSH) and not use_reg:
            width = 64 if cls == op.BPF_ALU64 else 32
            if not 0 <= insn.imm < width:
                raise VerifierError(f"invalid shift {insn.imm} at {pc}")

        # Pointer arithmetic: only +/- constant on stack/map-value ptrs.
        if dst.type in (PTR_STACK, PTR_MAP_VALUE):
            if cls != op.BPF_ALU64 or use_reg or operation not in (
                op.BPF_ADD,
                op.BPF_SUB,
            ):
                raise VerifierError(
                    f"invalid pointer arithmetic on R{insn.dst} at {pc}"
                )
            delta = insn.imm if operation == op.BPF_ADD else -insn.imm
            return _with_reg(
                state, insn.dst, self._reg(dst.type, dst.off + delta, dst.map_slot)
            )
        if dst.type is not SCALAR:
            raise VerifierError(
                f"arithmetic on {dst.type.value} pointer R{insn.dst} at {pc}"
            )
        if src_type is not SCALAR:
            raise VerifierError(f"pointer used as scalar operand at {pc}")
        return _with_reg(state, insn.dst, _SCALAR)

    # -- memory ------------------------------------------------------------

    def _check_stack_access(
        self, pc: int, reg: _Reg, off: int, size: int
    ) -> int:
        slot = reg.off + off
        if slot >= 0 or slot < -op.STACK_SIZE or slot + size > 0:
            raise VerifierError(
                f"stack access [{slot}, {slot + size}) out of bounds at {pc}"
            )
        return slot

    def _do_lddw(self, pc: int, insn: Insn, state: _State):
        if insn.src == op.PSEUDO_MAP_FD:
            if insn.imm not in self.maps:
                raise VerifierError(
                    f"LDDW references unknown map slot {insn.imm} at {pc}"
                )
            reg = self._reg(CONST_PTR_MAP, map_slot=insn.imm)
        elif insn.src == 0:
            reg = _SCALAR
        else:
            raise VerifierError(f"unsupported LDDW src {insn.src} at {pc}")
        self._reached.add(pc + 1)
        return [(pc + 2, _with_reg(state, insn.dst, reg))]

    def _do_ldx(self, pc: int, insn: Insn, state: _State) -> _State:
        if (insn.opcode & op.MODE_MASK) != op.BPF_MEM:
            raise VerifierError(f"unsupported load mode at {pc}")
        size = op.SIZE_BYTES[insn.opcode & op.SIZE_MASK]
        base = self._read_reg(state, insn.src, pc)
        if base.type is PTR_CTX:
            addr = base.off + insn.off
            if addr < 0 or addr + size > self.ctx_size:
                raise VerifierError(
                    f"ctx access [{addr}, {addr + size}) out of bounds at {pc}"
                )
            return _with_reg(state, insn.dst, _SCALAR)
        if base.type is PTR_STACK:
            slot = self._check_stack_access(pc, base, insn.off, size)
            if size == 8 and slot % 8 == 0:
                spilled = dict(state[2]).get(slot)
                if spilled is not None:
                    return _with_reg(state, insn.dst, spilled)
            byte = _first_uninit(state[1], slot, size)
            if byte is not None:
                raise VerifierError(
                    f"read of uninitialized stack byte {byte} at {pc}"
                )
            return _with_reg(state, insn.dst, _SCALAR)
        if base.type is PTR_MAP_VALUE:
            geometry = self.maps[base.map_slot]
            addr = base.off + insn.off
            if addr < 0 or addr + size > geometry.value_size:
                raise VerifierError(
                    f"map value access [{addr}, {addr + size}) "
                    f"outside value_size={geometry.value_size} at {pc}"
                )
            return _with_reg(state, insn.dst, _SCALAR)
        if base.type is PTR_MAP_VALUE_OR_NULL:
            raise VerifierError(
                f"R{insn.src} possibly NULL, deref without check at {pc}"
            )
        raise VerifierError(
            f"load from non-pointer R{insn.src} ({base.type.value}) at {pc}"
        )

    def _do_store(self, pc: int, insn: Insn, state: _State, cls: int) -> _State:
        if (insn.opcode & op.MODE_MASK) != op.BPF_MEM:
            raise VerifierError(f"unsupported store mode at {pc}")
        size = op.SIZE_BYTES[insn.opcode & op.SIZE_MASK]
        base = self._read_reg(state, insn.dst, pc)
        if cls == op.BPF_STX:
            value = self._read_reg(state, insn.src, pc)
        else:
            value = _SCALAR
        if base.type is PTR_STACK:
            slot = self._check_stack_access(pc, base, insn.off, size)
            spills = dict(state[2])
            if size == 8 and slot % 8 == 0 and value.type is not SCALAR:
                spills[slot] = value
            else:
                if value.type is not SCALAR:
                    raise VerifierError(f"partial pointer spill at {pc}")
                spills.pop(slot - slot % 8, None)
            return (
                state[0],
                state[1] | _stack_bits(slot, size),
                tuple(sorted(spills.items())),
            )
        if base.type is PTR_MAP_VALUE:
            if value.type is not SCALAR:
                raise VerifierError(f"storing pointer into map value at {pc}")
            geometry = self.maps[base.map_slot]
            addr = base.off + insn.off
            if addr < 0 or addr + size > geometry.value_size:
                raise VerifierError(f"map value store out of bounds at {pc}")
            return state
        if base.type is PTR_CTX:
            raise VerifierError(f"ctx is read-only for this program type ({pc})")
        if base.type is PTR_MAP_VALUE_OR_NULL:
            raise VerifierError(f"store via possibly-NULL pointer at {pc}")
        raise VerifierError(f"store to non-pointer R{insn.dst} at {pc}")

    # -- control flow ----------------------------------------------------

    def _do_jmp(self, pc: int, insn: Insn, state: _State):
        operation = op.alu_op(insn.opcode)
        if operation == op.BPF_EXIT:
            reg0 = state[0][op.R0]
            if reg0.type is UNINIT:
                raise VerifierError(f"R0 !read_ok at exit ({pc})")
            return []
        if operation == op.BPF_CALL:
            return [(pc + 1, self._do_call(pc, insn, state))]
        if operation == op.BPF_JA:
            target = pc + 1 + insn.off
            self._check_forward(pc, target)
            return [(target, state)]

        # Conditional jump.
        target = pc + 1 + insn.off
        self._check_forward(pc, target)
        dst = self._read_reg(state, insn.dst, pc)
        use_reg = bool(insn.opcode & op.BPF_X)
        if use_reg:
            self._read_reg(state, insn.src, pc)

        taken, fallthrough = state, state
        null_check = (
            dst.type is PTR_MAP_VALUE_OR_NULL
            and not use_reg
            and insn.imm == 0
            and operation in (op.BPF_JEQ, op.BPF_JNE)
        )
        if null_check:
            as_value = _with_reg(
                state, insn.dst, self._reg(PTR_MAP_VALUE, map_slot=dst.map_slot)
            )
            as_null = _with_reg(state, insn.dst, _NULL)
            if operation == op.BPF_JEQ:
                taken, fallthrough = as_null, as_value
            else:
                taken, fallthrough = as_value, as_null
        elif dst.type not in (
            SCALAR,
            NULL,
            PTR_MAP_VALUE_OR_NULL,
        ):
            raise VerifierError(
                f"comparison on {dst.type.value} pointer R{insn.dst} at {pc}"
            )
        return [(target, taken), (pc + 1, fallthrough)]

    def _check_forward(self, pc: int, target: int) -> None:
        if target <= pc:
            raise VerifierError(f"back-edge from insn {pc} to {target} (loop)")
        if target >= len(self.insns):
            raise VerifierError(f"jump out of range: {pc} -> {target}")

    def _do_call(self, pc: int, insn: Insn, state: _State) -> _State:
        helper = helper_by_id(insn.imm)
        if helper is None:
            raise VerifierError(f"unknown helper id {insn.imm} at {pc}")
        self.helpers_used.add(helper.name)
        key_size_hint: Optional[int] = None
        value_size_hint: Optional[int] = None
        for position, arg_type in enumerate(helper.args, start=1):
            reg = state[0][position]
            if arg_type is ArgType.ANYTHING:
                continue
            if reg.type is UNINIT:
                raise VerifierError(
                    f"R{position} !read_ok for {helper.name} at {pc}"
                )
            if arg_type is ArgType.SCALAR:
                if reg.type is not SCALAR:
                    raise VerifierError(
                        f"{helper.name} arg{position} expects scalar at {pc}"
                    )
            elif arg_type is ArgType.CONST_MAP_PTR:
                if reg.type is not CONST_PTR_MAP:
                    raise VerifierError(
                        f"{helper.name} arg{position} expects map pointer at {pc}"
                    )
                geometry = self.maps[reg.map_slot]
                key_size_hint = geometry.key_size
                value_size_hint = geometry.value_size
            elif arg_type in (
                ArgType.MAP_KEY_PTR,
                ArgType.MAP_VALUE_PTR,
                ArgType.STACK_PTR,
            ):
                if reg.type is not PTR_STACK:
                    raise VerifierError(
                        f"{helper.name} arg{position} expects stack pointer at {pc}"
                    )
                need = 1
                if arg_type is ArgType.MAP_KEY_PTR and key_size_hint:
                    need = key_size_hint
                if arg_type is ArgType.MAP_VALUE_PTR and value_size_hint:
                    need = value_size_hint
                slot = self._check_stack_access(pc, reg, 0, need)
                byte = _first_uninit(state[1], slot, need)
                if byte is not None:
                    raise VerifierError(
                        f"{helper.name} reads uninitialized stack "
                        f"byte {byte} at {pc}"
                    )
        # Return value + caller-saved clobbers.
        regs = state[0]
        if helper.ret is RetType.MAP_VALUE_OR_NULL:
            slot = next(
                (
                    reg.map_slot
                    for reg in regs[1:6]
                    if reg.type is CONST_PTR_MAP
                ),
                -1,
            )
            ret = self._reg(PTR_MAP_VALUE_OR_NULL, map_slot=slot)
        elif helper.ret is RetType.SCALAR:
            ret = _SCALAR
        else:
            ret = _UNINIT
        return ((ret,) + _CLOBBERED + regs[6:], state[1], state[2])


def verify(
    program: BpfProgram,
    maps: Optional[dict[int, MapGeometry]] = None,
    ctx_size: int = 256,
) -> VerifierStats:
    """Verify ``program``; returns stats or raises :class:`VerifierError`.

    ``maps`` describes the geometry of each map slot the program's
    ``ld_map_fd`` instructions reference; ``ctx_size`` is the readable
    context window for the program type (packet bytes for socket
    filters).
    """
    return _Verifier(program, maps or {}, ctx_size).run()
