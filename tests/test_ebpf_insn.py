"""Instruction encode/decode tests."""

import dataclasses
import struct

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.ebpf import opcodes as op
from repro.ebpf.insn import Insn, decode_program, encode_program, lddw_pair


class TestEncoding:
    def test_eight_bytes(self):
        insn = Insn(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=1, imm=42)
        assert len(insn.encode()) == 8

    def test_roundtrip_simple(self):
        insn = Insn(op.BPF_JMP | op.BPF_JEQ | op.BPF_K, dst=3, src=0, off=-2, imm=7)
        assert Insn.decode(insn.encode()) == insn

    @given(
        st.integers(0, 255),
        st.integers(0, 10),
        st.integers(0, 15),
        st.integers(-(2**15), 2**15 - 1),
        st.integers(-(2**31), 2**31 - 1),
    )
    def test_roundtrip_property(self, opcode, dst, src, off, imm):
        insn = Insn(opcode=opcode, dst=dst, src=src, off=off, imm=imm)
        assert Insn.decode(insn.encode()) == insn

    def test_negative_imm_roundtrip(self):
        insn = Insn(op.BPF_ALU64 | op.BPF_ADD | op.BPF_K, dst=0, imm=-1)
        assert Insn.decode(insn.encode()).imm == -1

    def test_bad_register_rejected(self):
        with pytest.raises(ReproError):
            Insn(opcode=0, dst=11)

    def test_bad_offset_rejected(self):
        with pytest.raises(ReproError):
            Insn(opcode=0, off=2**15)

    def test_opcode_range_checked(self):
        assert Insn(opcode=0).opcode == 0
        assert Insn(opcode=255).opcode == 255
        for opcode in (256, -1):
            with pytest.raises(ReproError, match="opcode"):
                Insn(opcode=opcode)

    def test_decode_wrong_length(self):
        with pytest.raises(ReproError):
            Insn.decode(b"short")


class TestProgramImage:
    def test_encode_decode_program(self):
        insns = [
            Insn(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=0, imm=1),
            Insn(op.BPF_JMP | op.BPF_EXIT),
        ]
        assert decode_program(encode_program(insns)) == insns

    def test_decode_misaligned_image(self):
        with pytest.raises(ReproError):
            decode_program(b"123456789")

    def test_lddw_pair_splits_imm64(self):
        pair = lddw_pair(dst=2, imm64=0x1122334455667788)
        assert pair[0].opcode == op.LDDW
        assert pair[0].imm == 0x55667788
        assert pair[1].imm == 0x11223344

    def test_lddw_pair_map_fd(self):
        pair = lddw_pair(dst=1, imm64=3, src=op.PSEUDO_MAP_FD)
        assert pair[0].src == op.PSEUDO_MAP_FD
        assert pair[0].imm == 3


_REF = struct.Struct("<BBhi")


def _per_insn_image(insns):
    """Reference image packed from the fields, not from ``Insn.raw``."""
    return b"".join(
        _REF.pack(
            insn.opcode,
            (insn.src << 4) | insn.dst,
            insn.off,
            insn.imm - 2**32 if insn.imm >= 2**31 else insn.imm,
        )
        for insn in insns
    )


class TestEncodeProgramEdges:
    """``encode_program`` joins stored encodings; they must match the fields."""

    EDGES = [
        Insn(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=1, imm=-(2**31)),
        Insn(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=2, imm=2**31 - 1),
        Insn(op.BPF_ALU64 | op.BPF_XOR | op.BPF_K, dst=3, imm=2**31),
        Insn(op.BPF_ALU64 | op.BPF_AND | op.BPF_K, dst=4, imm=2**32 - 1),
        Insn(op.BPF_LDX | op.BPF_W | op.BPF_MEM, dst=5, src=10, off=-4),
        Insn(op.BPF_ST | op.BPF_DW | op.BPF_MEM, dst=10, off=-(2**15), imm=-1),
        Insn(op.BPF_JMP | op.BPF_JEQ | op.BPF_K, dst=6, off=2**15 - 1, imm=0),
        *lddw_pair(dst=1, imm64=7, src=op.PSEUDO_MAP_FD),
        *lddw_pair(dst=2, imm64=2**64 - 1),
        Insn(op.BPF_JMP | op.BPF_CALL, imm=1),
        Insn(op.BPF_JMP | op.BPF_CALL | op.BPF_X, src=15, imm=2**32 - 1),
        Insn(op.BPF_JMP | op.BPF_EXIT),
    ]

    def test_matches_per_insn_encode(self):
        assert encode_program(self.EDGES) == _per_insn_image(self.EDGES)
        assert encode_program([]) == b""

    def test_roundtrips_through_decode(self):
        image = encode_program(self.EDGES)
        decoded = decode_program(image)
        assert encode_program(decoded) == image
        # Immediates at or above 2**31 come back as their signed value.
        assert [insn.imm for insn in decoded] == [
            insn.imm - 2**32 if insn.imm >= 2**31 else insn.imm
            for insn in self.EDGES
        ]
        assert [(i.opcode, i.dst, i.src, i.off) for i in decoded] == [
            (i.opcode, i.dst, i.src, i.off) for i in self.EDGES
        ]

    @given(
        st.lists(
            st.builds(
                Insn,
                opcode=st.integers(0, 255),
                dst=st.integers(0, 10),
                src=st.integers(0, 15),
                off=st.integers(-(2**15), 2**15 - 1),
                imm=st.integers(-(2**31), 2**32 - 1),
            ),
            max_size=20,
        )
    )
    def test_matches_per_insn_encode_property(self, insns):
        assert encode_program(insns) == _per_insn_image(insns)


class TestStoredEncoding:
    """``Insn.raw`` is packed once; it must track the fields it came from."""

    INSN = Insn(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=3, off=-2, imm=7)

    def test_encode_is_raw(self):
        assert self.INSN.encode() is self.INSN.raw
        assert self.INSN.raw == _per_insn_image([self.INSN])

    def test_replace_recomputes_raw(self):
        patched = dataclasses.replace(self.INSN, imm=2**32 - 1)
        assert patched.raw == _per_insn_image([patched])
        assert patched.raw != self.INSN.raw
        assert self.INSN.raw == _per_insn_image([self.INSN])

    def test_raw_is_not_part_of_identity(self):
        twin = Insn(self.INSN.opcode, dst=3, off=-2, imm=7)
        assert twin == self.INSN
        assert hash(twin) == hash(self.INSN)
        assert "raw" not in repr(self.INSN)
        assert [f.name for f in dataclasses.fields(Insn) if f.compare] == [
            "opcode", "dst", "src", "off", "imm",
        ]
        with pytest.raises(TypeError):
            Insn(0, raw=b"\x00" * 8)

    def test_slotted_without_instance_dict(self):
        assert not hasattr(self.INSN, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.INSN.raw = b"\x00" * 8

    @given(
        st.integers(0, 255),
        st.integers(0, 10),
        st.integers(0, 15),
        st.integers(-(2**15), 2**15 - 1),
        st.integers(-(2**31), 2**31 - 1),
    )
    def test_decode_keeps_the_bytes(self, opcode, dst, src, off, imm):
        data = _REF.pack(opcode, (src << 4) | dst, off, imm)
        assert Insn.decode(data).raw == data
