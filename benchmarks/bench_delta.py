"""Delta-deploy ablation: dirty chunks vs a full-image deploy.

The deploy planner diffs the newly linked image against the target's
resident baseline at MTU-chunk granularity and ships only the
cache-line-trimmed dirty spans plus the metadata descriptor.  The
full arm deploys the same one-instruction hotpatch on a fresh testbed
with no baseline resident, so the planner falls back and ships the
whole image.  Both arms run in-process and the >= 5x bytes-moved
floor is asserted here.

Results land in ``BENCH_DELTA.json`` (rows of
``{bench, metric, value, unit, sim_time}``) under ``$RDX_BENCH_DIR``.
"""

from repro.exp.delta_deploy import run_delta_deploy
from repro.exp.harness import format_table, write_bench_json

#: Acceptance floor: a one-instruction hotpatch to the 8 KB program
#: must move at least 5x fewer bytes than the full-image fast path.
MIN_BYTES_RATIO = 5.0


def test_bench_delta(benchmark):
    result = benchmark.pedantic(run_delta_deploy, rounds=1, iterations=1)

    table_rows = []
    json_rows = []
    for name, mode in result.modes.items():
        for metric, value, unit in (
            ("hotpatch_us", mode.hotpatch_us, "us"),
            ("hotpatch_bytes", mode.hotpatch_bytes, "bytes"),
            ("hotpatch_chunks", mode.hotpatch_chunks, "chunks"),
            ("deploy_cold_us", mode.deploy_cold_us, "us"),
            ("delta_deploys", mode.delta_deploys, "count"),
            ("delta_fallbacks", mode.delta_fallbacks, "count"),
        ):
            table_rows.append((name, metric, value))
            json_rows.append(
                {
                    "metric": f"{name}.{metric}",
                    "value": value,
                    "unit": unit,
                    "sim_time": mode.sim_time_us,
                }
            )

    json_rows.append(
        {"metric": "ratio.bytes_moved", "value": result.bytes_ratio,
         "unit": "x"}
    )
    json_rows.append(
        {"metric": "ratio.hotpatch_latency", "value": result.latency_ratio,
         "unit": "x"}
    )
    note = (
        f"bytes moved: {result.bytes_ratio:.1f}x fewer on the delta arm "
        f"(floor: {MIN_BYTES_RATIO:.0f}x), latency "
        f"{result.latency_ratio:.2f}x"
    )
    path = write_bench_json("DELTA", json_rows)

    print()
    print(
        format_table(
            f"Delta hotpatch -- {result.insn_size} insns "
            f"({result.image_bytes} image bytes)",
            ["mode", "metric", "value"],
            table_rows,
            note=note,
        )
    )
    print(f"results: {path}")

    fast = result.modes["delta"]
    benchmark.extra_info["delta_hotpatch_bytes"] = fast.hotpatch_bytes
    # The acceptance shape: ~1 chunk + commit CAS for a
    # one-instruction edit (the edited insn and the image CRC share
    # the trailing MTU chunk).
    assert fast.mode_used == "delta"
    assert fast.hotpatch_chunks == 1
    assert fast.delta_deploys == 1
    assert fast.hotpatch_fallbacks == {}
    # v1 (no owner) and v2 (no baseline yet) fell back, counted.
    assert fast.delta_fallbacks == 2
    slow = result.modes["full"]
    benchmark.extra_info["full_hotpatch_bytes"] = slow.hotpatch_bytes
    assert slow.mode_used == "full"
    # The hotpatch is one counted fallback: v1's extent was never
    # superseded on this testbed, so no baseline is resident.
    assert slow.hotpatch_fallbacks == {"no-baseline": 1}

    # Both arms installed the same v3 semantics.
    assert fast.exec_r0 == slow.exec_r0
    assert result.bytes_ratio >= MIN_BYTES_RATIO
