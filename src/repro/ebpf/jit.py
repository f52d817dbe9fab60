"""JIT compiler: bytecode -> "native" binary + relocation records.

The emitted binary is a deterministic pseudo-machine-code format that
preserves the properties the paper depends on (§3.2-§3.3):

* **real byte blob** -- deployments move actual bytes whose corruption
  (partial RDMA writes, §3.5 issue 1) is *detected at execution time*
  via per-slot checksums and a whole-image CRC;
* **unresolved external references** -- helper calls and map accesses
  are emitted as 8-byte placeholder operands plus relocation records;
  executing an unlinked binary crashes the sandbox, so
  ``rdx_link_code`` is load-bearing, not decorative;
* **per-architecture output** -- x86_64 and arm64 images differ, so the
  control plane's cross-architecture compile cache is exercised.

Image layout::

    [magic 'RJ'][ver u8][arch u8][slot_count u32]   -- 8-byte header
    slot*N                                          -- 10 bytes each
    [crc32 u32]                                     -- whole-image CRC

Slot layout: ``[prefix u8][payload 8B][checksum u8]`` where checksum is
the byte sum of prefix+payload.  Prefix ``INSN`` slots carry one eBPF
instruction; ``OPERAND`` slots carry a 64-bit address operand (helper
address or map address) referenced by the preceding instruction.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import JitError, SandboxCrash
from repro.ebpf import opcodes as op
from repro.ebpf.helpers import helper_by_id
from repro.ebpf.insn import Insn
from repro.ebpf.program import BpfProgram

MAGIC = b"RJ"
VERSION = 1
_HEADER = struct.Struct("<2sBBI")
_SLOT_BYTES = 10

#: Placeholder operand emitted for every unresolved external reference.
PLACEHOLDER = 0xDEAD_BEEF_DEAD_BEEF
_PLACEHOLDER_BYTES = PLACEHOLDER.to_bytes(8, "little")
#: ``_BYTE[n] == bytes((n,))``, without building a tuple per slot.
_BYTE = [bytes((n,)) for n in range(256)]
#: ``opcode & _CALL_MASK == _CALL``: a helper call (class JMP, op CALL).
_CALL_MASK = op.CLASS_MASK | op.OP_MASK
_CALL = op.BPF_JMP | op.BPF_CALL

_ARCH_PREFIX = {
    "x86_64": (0x9A, 0x9B),  # (insn slot, operand slot)
    "arm64": (0xAA, 0xAB),
}


class RelocKind(enum.Enum):
    HELPER = "helper"
    MAP = "map"


@dataclass(frozen=True)
class Relocation:
    """One unresolved external reference in the emitted image."""

    offset: int  # byte offset of the 8-byte operand within the image
    kind: RelocKind
    symbol: str


@dataclass
class JitBinary:
    """JIT output: image + relocations + symbol table (paper §3.2)."""

    code: bytes
    arch: str
    insn_cnt: int
    relocations: list[Relocation] = field(default_factory=list)
    #: symbol -> ordered operand offsets (the paper's "symbol table").
    symbols: dict[str, list[int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.code)

    @property
    def is_linked(self) -> bool:
        """True when no placeholder operands remain."""
        for reloc in self.relocations:
            operand = self.code[reloc.offset : reloc.offset + 8]
            if int.from_bytes(operand, "little") == PLACEHOLDER:
                return False
        return True

    def link(self, resolve: Callable[[Relocation], int]) -> "JitBinary":
        """Return a new image with every placeholder patched.

        ``resolve`` maps a relocation to the target-local address of
        its symbol.  Raises :class:`JitError` on unresolvable symbols.
        """
        image = bytearray(self.code)
        for reloc in self.relocations:
            address = resolve(reloc)
            if address is None:
                raise JitError(f"unresolved symbol {reloc.symbol!r}")
            image[reloc.offset : reloc.offset + 8] = address.to_bytes(8, "little")
            # Re-checksum the patched slot.
            slot_start = reloc.offset - 1
            checksum = sum(image[slot_start : slot_start + 9]) & 0xFF
            image[slot_start + 9] = checksum
        # Recompute the whole-image CRC.
        body = bytes(image[:-4])
        crc = zlib.crc32(body) & 0xFFFFFFFF
        image[-4:] = crc.to_bytes(4, "little")
        return JitBinary(
            code=bytes(image),
            arch=self.arch,
            insn_cnt=self.insn_cnt,
            relocations=list(self.relocations),
            symbols={name: list(offs) for name, offs in self.symbols.items()},
        )


def jit_compile(program: BpfProgram, arch: str = "x86_64") -> JitBinary:
    """Compile a (verified) program for ``arch``."""
    try:
        insn_prefix, operand_prefix = _ARCH_PREFIX[arch]
    except KeyError:
        raise JitError(f"unsupported target architecture {arch!r}") from None

    image = program.image()
    slots: list[bytes] = []
    relocations: list[Relocation] = []
    symbols: dict[str, list[int]] = {}

    def emit(prefix: int, payload: bytes) -> int:
        """Append one slot; returns the byte offset of its payload."""
        offset = _HEADER.size + len(slots) * _SLOT_BYTES + 1
        slots.append(_BYTE[prefix] + payload + _BYTE[(prefix + sum(payload)) & 0xFF])
        return offset

    def emit_reloc(kind: RelocKind, symbol: str) -> None:
        offset = emit(operand_prefix, _PLACEHOLDER_BYTES)
        relocations.append(Relocation(offset=offset, kind=kind, symbol=symbol))
        symbols.setdefault(symbol, []).append(offset)

    # Every instruction slot's payload is an 8-byte slice of the image.
    index = 0
    insns = program.insns
    while index < len(insns):
        start = index * 8
        payload = image[start : start + 8]
        emit(insn_prefix, payload)
        opcode = payload[0]
        if opcode == op.LDDW:
            if index + 1 >= len(insns):
                raise JitError("truncated LDDW pair")
            insn = insns[index]
            if insn.src == op.PSEUDO_MAP_FD:
                slot_index = insn.imm
                if slot_index >= len(program.map_names):
                    raise JitError(f"map slot {slot_index} out of range")
                emit_reloc(RelocKind.MAP, program.map_names[slot_index])
            else:
                emit(insn_prefix, image[start + 8 : start + 16])
            index += 2
            continue
        if opcode & _CALL_MASK == _CALL:
            helper_id = insns[index].imm
            helper = helper_by_id(helper_id)
            if helper is None:
                raise JitError(f"call to unknown helper id {helper_id}")
            emit_reloc(RelocKind.HELPER, helper.name)
        index += 1

    header = _HEADER.pack(MAGIC, VERSION, _arch_id(arch), len(slots))
    body = header + b"".join(slots)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return JitBinary(
        code=body + crc.to_bytes(4, "little"),
        arch=arch,
        insn_cnt=len(insns),
        relocations=relocations,
        symbols=symbols,
    )


def _arch_id(arch: str) -> int:
    return {"x86_64": 1, "arm64": 2}[arch]


def _arch_name(arch_id: int) -> str:
    try:
        return {1: "x86_64", 2: "arm64"}[arch_id]
    except KeyError:
        raise SandboxCrash(f"unknown architecture id {arch_id}") from None


def decode_image(
    code: bytes,
    helper_at: Callable[[int], Optional[int]],
    map_slot_at: Callable[[int], Optional[int]],
    expect_arch: str = "x86_64",
) -> list[Insn]:
    """Decode a *linked* image back to instructions for execution.

    ``helper_at``/``map_slot_at`` are the sandbox's reverse GOT: they
    translate a resolved local address back to a helper id / map slot.
    Raises :class:`SandboxCrash` on corruption, truncation, unresolved
    placeholders, wrong-architecture images, or addresses the sandbox
    does not know -- i.e. every way an injection can go wrong.
    """
    if len(code) < _HEADER.size + 4:
        raise SandboxCrash("image too short")
    magic, version, arch_id, slot_count = _HEADER.unpack_from(code)
    if magic != MAGIC or version != VERSION:
        raise SandboxCrash("bad image magic/version")
    arch = _arch_name(arch_id)
    if arch != expect_arch:
        raise SandboxCrash(f"architecture mismatch: image={arch}")
    expected_len = _HEADER.size + slot_count * _SLOT_BYTES + 4
    if len(code) != expected_len:
        raise SandboxCrash(
            f"image length {len(code)} != expected {expected_len}"
        )
    crc = int.from_bytes(code[-4:], "little")
    if zlib.crc32(code[:-4]) & 0xFFFFFFFF != crc:
        raise SandboxCrash("image CRC mismatch (torn or corrupt write)")

    insn_prefix, operand_prefix = _ARCH_PREFIX[arch]
    slots: list[tuple[int, bytes]] = []
    for slot_index in range(slot_count):
        start = _HEADER.size + slot_index * _SLOT_BYTES
        slot = code[start : start + _SLOT_BYTES]
        if (slot[0] + sum(slot[1:9])) & 0xFF != slot[9]:
            raise SandboxCrash(f"slot {slot_index} checksum mismatch")
        slots.append((slot[0], slot[1:9]))

    insns: list[Insn] = []
    index = 0
    while index < len(slots):
        prefix, payload = slots[index]
        if prefix != insn_prefix:
            raise SandboxCrash(f"unexpected operand slot at {index}")
        insn = Insn.decode(payload)
        if insn.opcode == op.LDDW and insn.src == op.PSEUDO_MAP_FD:
            index += 1
            prefix2, operand = _expect_operand(slots, index, operand_prefix)
            address = int.from_bytes(operand, "little")
            if address == PLACEHOLDER:
                raise SandboxCrash("unresolved map relocation")
            slot = map_slot_at(address)
            if slot is None:
                raise SandboxCrash(f"map address {address:#x} unknown")
            insns.append(
                Insn(opcode=insn.opcode, dst=insn.dst, src=op.PSEUDO_MAP_FD, imm=slot)
            )
            insns.append(Insn(opcode=0))
        elif insn.opcode == op.LDDW:
            index += 1
            prefix2, payload2 = slots[index]
            if prefix2 != insn_prefix:
                raise SandboxCrash("LDDW second half missing")
            insns.append(insn)
            insns.append(Insn.decode(payload2))
        elif (
            op.insn_class(insn.opcode) == op.BPF_JMP
            and op.alu_op(insn.opcode) == op.BPF_CALL
        ):
            index += 1
            _prefix2, operand = _expect_operand(slots, index, operand_prefix)
            address = int.from_bytes(operand, "little")
            if address == PLACEHOLDER:
                raise SandboxCrash("unresolved helper relocation")
            helper_id = helper_at(address)
            if helper_id is None:
                raise SandboxCrash(f"helper address {address:#x} unknown")
            insns.append(
                Insn(opcode=insn.opcode, dst=insn.dst, src=insn.src, imm=helper_id)
            )
        else:
            insns.append(insn)
        index += 1
    return insns


def _expect_operand(slots, index: int, operand_prefix: int):
    if index >= len(slots):
        raise SandboxCrash("truncated operand slot")
    prefix, payload = slots[index]
    if prefix != operand_prefix:
        raise SandboxCrash("expected operand slot")
    return prefix, payload
