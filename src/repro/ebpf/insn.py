"""The 8-byte eBPF instruction and program-level encode/decode."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.ebpf import opcodes as op

_INSN = struct.Struct("<BBhi")  # opcode, dst|src<<4, off, imm


@dataclass(frozen=True, slots=True)
class Insn:
    """One eBPF instruction.

    ``imm64`` is only meaningful on the first half of an LDDW pair; the
    encoder splits it into the two 32-bit immediates automatically.

    ``raw`` is the 8-byte encoding, packed once at construction: the
    fields are frozen, so every later encode is a read.  It takes no
    part in ``==``, ``hash`` or ``repr``.  The class is slotted so the
    stored bytes cost one pointer per instruction, not a ``__dict__``.
    """

    opcode: int
    dst: int = 0
    src: int = 0
    off: int = 0
    imm: int = 0
    raw: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.opcode <= 255:
            raise ReproError(f"opcode {self.opcode} out of u8 range")
        if not 0 <= self.dst <= op.MAX_REG:
            raise ReproError(f"bad dst register r{self.dst}")
        if not 0 <= self.src <= 15:
            raise ReproError(f"bad src register field {self.src}")
        if not -(2**15) <= self.off < 2**15:
            raise ReproError(f"offset {self.off} out of s16 range")
        if not -(2**31) <= self.imm < 2**32:
            raise ReproError(f"imm {self.imm} out of 32-bit range")
        imm = self.imm if self.imm < 2**31 else self.imm - 2**32
        object.__setattr__(
            self,
            "raw",
            _INSN.pack(self.opcode, (self.src << 4) | self.dst, self.off, imm),
        )

    @property
    def is_lddw(self) -> bool:
        return self.opcode == op.LDDW

    def encode(self) -> bytes:
        return self.raw

    @classmethod
    def decode(cls, data: bytes) -> "Insn":
        if len(data) != 8:
            raise ReproError(f"instruction must be 8 bytes, got {len(data)}")
        opcode, regs, off, imm = _INSN.unpack(data)
        return cls(opcode=opcode, dst=regs & 0xF, src=regs >> 4, off=off, imm=imm)

    def __repr__(self) -> str:
        return (
            f"Insn(op={self.opcode:#04x}, dst=r{self.dst}, src=r{self.src}, "
            f"off={self.off}, imm={self.imm})"
        )


def encode_program(insns: list[Insn]) -> bytes:
    """Serialize a program to its flat 8-bytes-per-insn image.

    Joins the encodings each :class:`Insn` packed when it was built, so
    the cost per deploy is one concatenation, not one pack per insn.
    """
    return b"".join([insn.raw for insn in insns])


def decode_program(data: bytes) -> list[Insn]:
    """Parse a flat instruction image back into :class:`Insn` objects."""
    if len(data) % 8:
        raise ReproError(f"program image not a multiple of 8 bytes: {len(data)}")
    return [Insn.decode(data[i : i + 8]) for i in range(0, len(data), 8)]


def lddw_pair(dst: int, imm64: int, src: int = 0) -> list[Insn]:
    """Build the two-instruction load-64-bit-immediate sequence.

    With ``src=PSEUDO_MAP_FD`` the immediate is a map reference to be
    resolved at load/link time rather than a literal.
    """
    low = imm64 & 0xFFFFFFFF
    high = (imm64 >> 32) & 0xFFFFFFFF
    return [
        Insn(opcode=op.LDDW, dst=dst, src=src, imm=low),
        Insn(opcode=0, dst=0, src=0, imm=high),
    ]
