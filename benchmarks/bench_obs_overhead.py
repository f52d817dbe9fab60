"""Observability overhead gate: RDX_OBS=1 vs RDX_OBS=0 wall clock.

The telemetry plane is supposed to be free where it matters -- the
sandbox side is agentless by construction (one-sided scrapes cost zero
target CPU events; the sim asserts that property in
``tests/test_obs_scrape.py``).  What *can* regress is the control
plane's own bookkeeping: segment stores on hook execs, trace events on
every chain/CAS/flush, span accounting.  This bench drives the same
warm pipelined deploy loop with the obs plane on and off and gates the
wall-clock ratio.

Both arms run in-process by flipping :data:`repro.params.RDX_OBS`
(a module global read at call time, like ``RDX_PIPELINED_DEPLOY``).
Plain ``time.perf_counter`` timing, with the arms *interleaved* in
alternating order: a loaded CI runner drifts over seconds, so timing
all of one arm and then all of the other would fold that drift
straight into the ratio.  Each pair runs back-to-back, and the gate
reads the median pair ratio: one lucky pair cannot pass it and one
noisy pair cannot fail it.

Results land in ``BENCH_OBS.json`` under ``$RDX_BENCH_DIR``.
"""

import time

from repro import params
from repro.ebpf.stress import make_stress_program
from repro.exp.harness import format_table, make_testbed, write_bench_json

#: Warm deploys timed per measurement (one testbed, cache hot).  Sized
#: so each timed window lasts at least ~250 ms even on the faster
#: obs-off arm: at ~50 ms a window was short enough for scheduler noise
#: on a 2-vCPU runner to push the median pair past the gate.
DEPLOYS = 480
#: Interleaved on/off measurement pairs (odd: the median is one pair).
PAIRS = 7
#: The gate: obs-on must stay within 15% of obs-off wall clock.
MAX_RATIO = 1.15


def _run_warm_deploys() -> float:
    """One measurement: build a bed, warm the caches, time the loop."""
    bed = make_testbed(n_hosts=1, cores_per_host=8)
    program = make_stress_program(1_300, seed=7)
    # Warm-up: cold validate + JIT + link, outside the timed window.
    bed.sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
    started = time.perf_counter()
    for _ in range(DEPLOYS):
        bed.sim.run_process(
            bed.control.inject(bed.codeflow, program, "ingress")
        )
    return time.perf_counter() - started


def _measure(arm_obs: bool) -> float:
    saved = params.RDX_OBS
    params.RDX_OBS = arm_obs
    try:
        return _run_warm_deploys()
    finally:
        params.RDX_OBS = saved


def test_bench_obs_overhead():
    _measure(True)  # process warm-up pass, discarded
    pairs = []
    for index in range(PAIRS):
        if index % 2 == 0:
            on, off = _measure(True), _measure(False)
        else:
            off, on = _measure(False), _measure(True)
        pairs.append((on, off))
    pairs.sort(key=lambda pair: pair[0] / pair[1] if pair[1] else 1.0)
    with_obs, without_obs = pairs[PAIRS // 2]
    ratio = with_obs / without_obs if without_obs else 1.0

    rows = [
        ("warm_deploys_obs_on_s", with_obs, "s"),
        ("warm_deploys_obs_off_s", without_obs, "s"),
        ("obs_overhead_ratio", ratio, "ratio"),
    ]
    path = write_bench_json(
        "OBS",
        [
            {"metric": metric, "value": value, "unit": unit}
            for metric, value, unit in rows
        ],
    )
    print()
    print(
        format_table(
            f"Observability overhead -- {DEPLOYS} warm deploys, "
            f"median of {PAIRS} interleaved pairs",
            ["metric", "value", "unit"],
            rows,
            note=(
                f"gate: median ratio <= {MAX_RATIO} | pair ratios "
                + " ".join(f"{on / off:.3f}" for on, off in pairs if off)
                + f" | wrote {path}"
            ),
        )
    )
    assert ratio <= MAX_RATIO, (
        f"obs plane costs {ratio:.2f}x on the warm deploy path "
        f"(gate {MAX_RATIO}x): {with_obs:.3f}s vs {without_obs:.3f}s"
    )


if __name__ == "__main__":
    test_bench_obs_overhead()
