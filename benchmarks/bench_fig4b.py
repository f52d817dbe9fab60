"""Regenerates Fig 4b: injection time breakdown at 1.3K instructions.

Paper: the agent path decomposes into verify / JIT compile / other,
with verify+JIT >= 90%; the RDX path contains neither phase (§6).
Alongside the table this bench emits the telemetry snapshot gathered
while the workload ran -- ``rdx.deploy.latency_us`` here is the
simulated counterpart of the paper's Fig 4b deploy bar.
"""

from repro.exp.fig4b import PAPER, run_fig4b
from repro.exp.harness import format_table, make_testbed, write_bench_json


def test_bench_fig4b(benchmark):
    bed = make_testbed()
    result = benchmark.pedantic(
        run_fig4b, kwargs={"testbed": bed}, rounds=1, iterations=1
    )
    rows = [
        ("agent", phase, us) for phase, us in result.agent_phases_us.items()
    ] + [("rdx", phase, us) for phase, us in result.rdx_phases_us.items()]
    print()
    print(
        format_table(
            f"Fig 4b -- per-phase breakdown at {result.insn_size} insns (us)",
            ["path", "phase", "time (us)"],
            rows,
            note=(
                f"agent verify+JIT share: "
                f"{result.agent_verify_jit_share * 100:.1f}% "
                f"(paper: >= {PAPER['verify_jit_share_min'] * 100:.0f}%)"
            ),
        )
    )

    # Telemetry gathered during the run, next to the figure it backs.
    registry = bed.obs.registry
    histo_rows = [
        (row["name"], row["count"], row["p50"], row["p99"], row["max"])
        for row in registry.snapshot()
        if row["type"] == "histogram" and row["count"]
    ]
    print()
    print(
        format_table(
            "Telemetry snapshot (us)",
            ["metric", "count", "p50", "p99", "max"],
            histo_rows,
            note=(
                f"compiled hit/miss: "
                f"{registry.counter('rdx.cache.hit').value:.0f}/"
                f"{registry.counter('rdx.cache.miss').value:.0f}; "
                f"linked hits: "
                f"{registry.counter('rdx.link.cache_hit').value:.0f}"
            ),
        )
    )
    deploy = registry.get("rdx.deploy.latency_us")
    json_rows = [
        {"metric": f"{path}.{phase}_us", "value": us, "unit": "us",
         "sim_time": bed.sim.now}
        for path, phases in (
            ("agent", result.agent_phases_us),
            ("rdx", result.rdx_phases_us),
        )
        for phase, us in phases.items()
    ]
    json_rows.append(
        {"metric": "agent.total_us", "value": result.agent_total_us,
         "unit": "us", "sim_time": bed.sim.now}
    )
    json_rows.append(
        {"metric": "rdx.total_us", "value": result.rdx_total_us,
         "unit": "us", "sim_time": bed.sim.now}
    )
    json_rows.append(
        {"metric": "rdx.deploy_latency_p50_us",
         "value": deploy.percentile(50), "unit": "us", "sim_time": bed.sim.now}
    )
    print(f"results: {write_bench_json('fig4b', json_rows)}")
    benchmark.extra_info["rdx_deploy_latency_p50_us"] = deploy.percentile(50)
    benchmark.extra_info["rdx_deploy_latency_p99_us"] = deploy.percentile(99)
    benchmark.extra_info["rdx_cache_hits"] = registry.counter("rdx.cache.hit").value

    assert deploy.count >= 2  # warm + measured deploy both instrumented
    assert result.agent_verify_jit_share >= PAPER["verify_jit_share_min"]
    assert "verify" not in result.rdx_phases_us
    assert result.rdx_total_us < result.agent_total_us / 20
