"""Equivalence oracle for the eBPF toolchain's wall-clock rewrites.

Every value below was computed with the frozen-dataclass verifier and
the per-instruction JIT that preceded the interned-register verifier
and the image-sliced JIT, on the same inputs.  The search result
(``states_visited``, ``peak_queue``, ``helpers_called``), the first
error a rejected program reports, the JIT output for both
architectures and the program tag must stay byte-identical: the
toolchain's simulated cost is charged from these figures, so any
drift here would move simulated time.

Two families of inputs are pinned:

* ``make_stress_program`` at 40 to 2,600 instructions, with and
  without a map (the shape every benchmark deploys);
* seeded branchy programs whose arms diverge in register types, spill
  slots, initialised stack bytes and map-lookup results, so the state
  search visits many distinct states per instruction and the DFS
  order decides which error a rejected program reports.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.errors import VerifierError
from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.jit import jit_compile
from repro.ebpf.program import BpfProgram
from repro.ebpf.stress import make_stress_program
from repro.ebpf.verifier import MapGeometry, verify

GEO = {0: MapGeometry(key_size=4, value_size=8)}

# (n_insns, seed, with_map, (states_visited, peak_queue, helpers_called),
#  sha256(x86_64 image)[:16], sha256(arm64 image)[:16], tag)
STRESS_GOLDEN = [
    (40, 1, False, (40, 1, ()), "47f1773eba14cd7f", "2b81d09506ff47f4", "e92bddef69de4d7d"),
    (40, 2, True, (39, 2, ('bpf_map_lookup_elem',)), "7ffd4863f1e022f9", "f4bc9c2758c55417", "9b96ceb685e25b6a"),
    (64, 3, False, (64, 2, ()), "58531e367232de0d", "6b679d93b8afa5f8", "f7c2027850fa03f8"),
    (64, 4, True, (63, 3, ('bpf_map_lookup_elem',)), "c34d3617862e0370", "2b397d5ec64d7c5e", "10e495febedcedfc"),
    (100, 5, False, (100, 3, ()), "270f8048e2e85916", "e21bf375700070ac", "753a6de22210ef45"),
    (100, 6, True, (99, 4, ('bpf_map_lookup_elem',)), "1ea626626e843ccf", "f75696960ffc55bd", "fcd58e18e2a15b69"),
    (131, 7, False, (131, 4, ()), "2eb1738e4907f2c9", "f8e0b90b0b0c9b48", "3320d84ab9aba4a2"),
    (131, 8, True, (130, 4, ('bpf_map_lookup_elem',)), "4a96c245513401aa", "09b8d8619e0ddd3a", "c775f2c2c735fb82"),
    (200, 9, False, (200, 5, ()), "3829d5267197c946", "59522df5c1081022", "487a2974606bcc38"),
    (200, 10, True, (199, 6, ('bpf_map_lookup_elem',)), "15a8f3ed53caa0e4", "751561f949e88212", "31fa6cefdd5a687f"),
    (333, 11, False, (333, 8, ()), "4857165c8ea149d1", "2b3e3a8fe38c2da2", "d0bbc4b314581e39"),
    (333, 12, True, (332, 9, ('bpf_map_lookup_elem',)), "e9db5591936599a5", "246235135ff1cc49", "900e39090434b430"),
    (500, 13, False, (500, 13, ()), "2454104e3d0e97c9", "36317dba31440ccc", "1359dc980beef213"),
    (500, 14, True, (499, 13, ('bpf_map_lookup_elem',)), "5dc6a22de2334063", "5eecacbe2373ef47", "21c09dce72356af8"),
    (777, 15, False, (777, 19, ()), "cc62d2da5634387e", "f62b8f7ad6b9b765", "aeef890c30b9dc5a"),
    (777, 16, True, (776, 20, ('bpf_map_lookup_elem',)), "6393f51b4e882623", "98c53e0092470736", "f4df8dfa37a7fc7b"),
    (1000, 17, False, (1000, 25, ()), "0aa38dbc1687ca5d", "ffa94f446609857e", "885b945343639d2a"),
    (1000, 18, True, (999, 26, ('bpf_map_lookup_elem',)), "9e1fa738696ac675", "9232f8cab2e8c238", "13da7c43e2d516ae"),
    (1302, 19, False, (1302, 32, ()), "18907e0473805f06", "e01896608c46cadb", "d31604f31afe45f4"),
    (1302, 20, True, (1301, 33, ('bpf_map_lookup_elem',)), "e36baf8fa2d923bb", "0e4c5a511052e04c", "5c73c3e9ee4e4950"),
    (1800, 21, False, (1800, 44, ()), "33c14a0f760eb5f6", "84bf01329a286596", "bc0d11a3411f9ccc"),
    (1800, 22, True, (1799, 45, ('bpf_map_lookup_elem',)), "6b8590e631217710", "132eb8e880b7cfad", "ab802e974ede6121"),
    (2600, 23, False, (2600, 64, ()), "5aadb9d364752cdf", "1801cf23655cb84d", "c6989514aedd5832"),
    (2600, 24, True, (2599, 65, ('bpf_map_lookup_elem',)), "9ffb2def1bed1703", "8d81133d50c1b97a", "e83ab6ecbf9fc9f4"),
]

# (seed, blocks, (states_visited, peak_queue, helpers_called),
#  sha256(x86_64 image)[:16], sha256(arm64 image)[:16], tag)
BRANCHY_GOLDEN = [
    (1, 14, (7676, 16, ('bpf_map_lookup_elem',)), "a5e84b9ac36e9cef", "a066d2058c84c6cc", "d0bfbfe0c7185e79"),
    (2, 14, (6392, 16, ('bpf_map_lookup_elem',)), "a992d8bc809b3d5e", "61a282ee23c47f7f", "4133cabf465b02c4"),
    (3, 14, (1430, 15, ()), "5f997e2c8171bdda", "669c6e8b7901c329", "035df6fff06b9f8b"),
    (4, 14, (10644, 17, ('bpf_map_lookup_elem',)), "2703a4ae103426c3", "04247d639722e32b", "0bd706b394cfad87"),
    (5, 14, (20062, 17, ('bpf_map_lookup_elem',)), "37b4c8e149b21c8b", "9bf0aa029b352a83", "e42027f2c7b47c88"),
    (6, 14, (1235, 17, ('bpf_map_lookup_elem',)), "b807d00ad9139b9f", "94eb23acedda5d98", "1ffa2c3eb06059a0"),
    (7, 14, (6963, 17, ('bpf_map_lookup_elem',)), "36d01bd55af0d010", "0fc0aa2cc45fe117", "828146bf19a4458e"),
    (8, 14, (14338, 16, ('bpf_map_lookup_elem',)), "1bff2ceeb309a946", "fa0dd45d67f7e6dc", "5f5e7cc877b3442d"),
    (9, 14, (2311, 16, ('bpf_map_lookup_elem',)), "50b88090ba496a1b", "053f64f0c353afda", "15018c3333b03e51"),
    (10, 14, (1107, 17, ('bpf_map_lookup_elem',)), "47eb3323c64fc3da", "54c2d2ff94050853", "9c1358cc7d72ed4c"),
    (11, 14, (680, 17, ('bpf_map_lookup_elem',)), "4536d5deb5dc25e7", "b6a0a7ee8302fc5f", "f8a37bfc4eda5003"),
    (12, 14, (2601, 16, ('bpf_map_lookup_elem',)), "f971368b04dc18a4", "36063ecef16fe933", "7e0377f8b9223b96"),
]

# (seed, blocks, bad, first error the verifier reports)
BRANCHY_REJECT_GOLDEN = [
    (1, 14, 'uninit', 'read of uninitialized stack byte -412 at 66'),
    (1, 14, 'arith', 'R3 !read_ok at insn 66'),
    (3, 14, 'deref', 'load from non-pointer R0 (scalar) at 50'),
    (3, 14, 'arith', 'arithmetic on ptr_ctx pointer R3 at 50'),
    (8, 14, 'deref', 'load from non-pointer R0 (null) at 62'),
    (14, 14, 'arith', 'arithmetic on ptr_ctx pointer R3 at 73'),
    (20, 14, 'deref', 'load from non-pointer R0 (null) at 64'),
    (22, 14, 'deref', 'R0 possibly NULL, deref without check at 65'),
    (26, 14, 'uninit', 'read of uninitialized stack byte -460 at 56'),
]


def _digest(code: bytes) -> str:
    return hashlib.sha256(code).hexdigest()[:16]


def branchy_program(seed: int, blocks: int, bad: str = "") -> BpfProgram:
    """A seeded program of ``blocks`` forward diamonds whose arms leave
    different abstract states behind, so states multiply at each join.

    ``bad`` appends one instruction that is illegal on some but not all
    of the states reaching it: ``"uninit"`` reads a stack word only
    some paths initialised, ``"deref"`` loads through r0 (scalar, NULL,
    map value or unchecked lookup result depending on the path) and
    ``"arith"`` adds to a register some paths filled from a pointer
    spill.
    """
    rng = random.Random(seed)
    asm = Asm()
    asm.mov_reg(op.R6, op.R1)
    asm.mov_imm(op.R7, seed)
    asm.mov_imm(op.R0, 0)
    asm.st_imm(op.BPF_W, op.R10, -4, 0)  # map key
    asm.mov_imm(op.R3, 0)
    spilled: list[int] = []
    partial: list[int] = []
    for block in range(blocks):
        kind = rng.choice(("spill", "partial", "lookup", "ptr", "arith", "fill"))
        if kind == "fill" and not spilled:
            kind = "arith"
        join, other = f"join_{block}", f"other_{block}"
        asm.ldx_b(op.R8, op.R6, rng.randrange(256))
        if kind == "spill":
            # One arm spills the ctx pointer, the other stores a scalar.
            slot = -8 * rng.randrange(2, 64)
            asm.jmp_imm(op.BPF_JGT, op.R8, rng.randrange(256), other)
            asm.stx_dw(op.R10, op.R6, slot)
            asm.ja(join)
            asm.label(other)
            asm.st_imm(op.BPF_DW, op.R10, slot, block)
            spilled.append(slot)
            asm.label(join)
            continue
        asm.jmp_imm(op.BPF_JGT, op.R8, rng.randrange(256), join)
        if kind == "partial":
            offset = -rng.randrange(8, 128) * 4
            asm.st_imm(op.BPF_W, op.R10, offset, block)
            partial.append(offset)
        elif kind == "lookup":
            asm.mov_reg(op.R2, op.R10)
            asm.alu64_imm(op.BPF_ADD, op.R2, -4)
            asm.ld_map_fd(op.R1, 0)
            asm.call(1)  # bpf_map_lookup_elem
            if rng.random() < 0.8:
                asm.jmp_imm(op.BPF_JEQ, op.R0, 0, join)
                asm.ldx_w(op.R8, op.R0, 0)
                asm.alu64_reg(op.BPF_ADD, op.R7, op.R8)
        elif kind == "ptr":
            asm.mov_reg(op.R4, op.R10)
            asm.alu64_imm(op.BPF_ADD, op.R4, -8 * rng.randrange(1, 64))
        elif kind == "fill":
            # Every path initialised this slot; some spilled a pointer.
            asm.ldx_dw(op.R3, op.R10, rng.choice(spilled))
        else:
            asm.alu64_imm(op.BPF_XOR, op.R7, rng.randrange(1 << 20))
        asm.label(join)
    if bad == "uninit":
        asm.ldx_w(op.R8, op.R10, partial[-1] if partial else -400)
    elif bad == "deref":
        asm.ldx_w(op.R8, op.R0, 0)
    elif bad == "arith":
        asm.alu64_imm(op.BPF_ADD, op.R3, 1)
    asm.mov_reg(op.R0, op.R7)
    asm.exit_()
    return BpfProgram(asm.build(), name=f"branchy_{seed}", map_names=("m",))


def _search(stats) -> tuple:
    return (stats.states_visited, stats.peak_queue, stats.helpers_called)


def _check_outputs(program: BpfProgram, x86: str, arm: str, tag: str) -> None:
    assert _digest(jit_compile(program, "x86_64").code) == x86
    assert _digest(jit_compile(program, "arm64").code) == arm
    assert program.tag() == tag


@pytest.mark.parametrize(
    "n_insns, seed, with_map, search, x86, arm, tag", STRESS_GOLDEN
)
def test_stress_program_golden(n_insns, seed, with_map, search, x86, arm, tag):
    program = make_stress_program(n_insns, seed=seed, with_map=with_map)
    assert _search(verify(program, GEO if with_map else {})) == search
    _check_outputs(program, x86, arm, tag)


@pytest.mark.parametrize("seed, blocks, search, x86, arm, tag", BRANCHY_GOLDEN)
def test_branchy_program_golden(seed, blocks, search, x86, arm, tag):
    program = branchy_program(seed, blocks)
    stats = verify(program, GEO)
    # Many distinct states per instruction: the pruning is exercised.
    assert stats.states_visited > len(program)
    assert _search(stats) == search
    _check_outputs(program, x86, arm, tag)


@pytest.mark.parametrize("seed, blocks, bad, message", BRANCHY_REJECT_GOLDEN)
def test_branchy_rejection_golden(seed, blocks, bad, message):
    with pytest.raises(VerifierError) as caught:
        verify(branchy_program(seed, blocks, bad), GEO)
    assert str(caught.value) == message


def test_equal_registers_built_on_different_paths_prune():
    """Arms that build the same register value differently (r4 = fp
    directly, or fp - 8 + 8) leave equal states at the join, so the
    join's tail is visited once: 11 states, not 14."""
    asm = Asm()
    asm.mov_reg(op.R6, op.R1)
    asm.ldx_b(op.R8, op.R6, 0)
    asm.jmp_imm(op.BPF_JGT, op.R8, 10, "roundabout")
    asm.mov_reg(op.R4, op.R10)
    asm.ja("join")
    asm.label("roundabout")
    asm.mov_reg(op.R4, op.R10)
    asm.alu64_imm(op.BPF_ADD, op.R4, -8)
    asm.alu64_imm(op.BPF_ADD, op.R4, 8)
    asm.label("join")
    asm.st_imm(op.BPF_DW, op.R4, -8, 0)
    asm.mov_imm(op.R0, 0)
    asm.exit_()
    stats = verify(BpfProgram(asm.build()))
    assert (stats.states_visited, stats.peak_queue) == (11, 2)
