#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_ramp --seed 1 --seconds 20 --trace 0

Each pass builds a fresh testbed and generates its inputs from
``--seed`` (set-up), runs the workload (timed) and checks its outputs
(untimed).  Passes repeat until ``--seconds`` is used up; host-clock
figures are medians over passes, simulated-time figures come from one
pass and repeat exactly for a seed.  ``--trace 1`` alternates plain and
traced passes and prints per-layer figures instead.  The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in its own
process.  Exits non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve_ramp", "redeploy_warm", "broadcast_fleet", "fuzz_guarded")
#: Set-up runs per invocation at least; ``setup_s`` is their median.
MIN_SETUPS = 3
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("deploy_p50_us", "us"),
    ("deploy_p99_us", "us"),
)

#: Simulated end-to-end figures a workload reports on top of
#: ``END_TO_END``, printed by name; ``failed_ratio`` applies to all.
NAMED = (
    ("deploy_p99_us.x4", "us", "serve_ramp"),
    ("deploy_p99_us.x8", "us", "serve_ramp"),
    ("max_deploys_per_s_at_slo", "deploys/s", "serve_ramp"),
    ("shed_ratio", "ratio", "serve_ramp"),
    ("bubble_window_p50_us", "us", "broadcast_fleet"),
    ("bubble_window_tail_us", "us", "broadcast_fleet"),
    ("broadcast_p50_us", "us", "broadcast_fleet"),
)

STEPS = (1, 4, 8, 12, 16)

# What each layer should move, as "end-to-end metric on workload".
_VERIFY = "run_s on serve_ramp; ~0 on redeploy_warm"
_ENCODE = "run_s on redeploy_warm, broadcast_fleet"
_FUZZ = "run_s on fuzz_guarded"
_HB = "run_s on fuzz_guarded only; 0 elsewhere"
_CONTROL = "deploy_p99_us, max_deploys_per_s_at_slo on serve_ramp"
_WIRE = "deploy_p50_us on redeploy_warm; bubble_window_* on broadcast_fleet"
_BCAST = "bubble_window_*, broadcast_p50_us on broadcast_fleet"
_SERVE = "deploy_p99_us.x8, max_deploys_per_s_at_slo, shed_ratio on serve_ramp"
_SIM = "run_s, most on broadcast_fleet and fuzz_guarded"
_OBS = "run_s on broadcast_fleet"

#: (per-layer metric, unit, better, what it should move).
PER_LAYER = (
    ("ebpf.verify.calls", "count", "lower", _VERIFY),
    ("ebpf.verify.self_s", "s", "lower", _VERIFY),
    ("ebpf.jit.calls", "count", "lower", _VERIFY),
    ("ebpf.jit.self_s", "s", "lower", _VERIFY),
    ("ebpf.encode.calls", "count", "lower", _ENCODE),
    ("ebpf.encode.self_s", "s", "lower", _ENCODE),
    ("ebpf.interp.calls", "count", "lower", _FUZZ),
    ("ebpf.interp.self_s", "s", "lower", _FUZZ),
    ("control_plane.prepare.calls", "count", "lower", _CONTROL),
    ("control_plane.registry_hit_ratio", "ratio", "higher", _CONTROL),
    ("control_plane.compiles", "count", "lower", _CONTROL),
    ("control_plane.validate_sim_us", "us", "lower", _CONTROL),
    ("control_plane.jit_sim_us", "us", "lower", _CONTROL),
    ("control_plane.cpu_util", "ratio", "lower", _CONTROL),
) + tuple(
    (f"codeflow.{phase}_us.p50", "us", "lower", _WIRE)
    for phase in ("dispatch", "link", "write", "commit", "cc")
) + (
    ("codeflow.link_cache_hit_ratio", "ratio", "higher", _WIRE),
    ("codeflow.delta_share", "ratio", "higher", _WIRE),
    ("broadcast.leg_us.p50", "us", "lower", _BCAST),
    ("broadcast.leg_us.max", "us", "lower", _BCAST),
    ("broadcast.prepare_coalesced", "count", "higher", _BCAST),
    ("broadcast.relay_fallbacks", "count", "lower", _BCAST),
    ("broadcast.bubble_window_p50_us", "us", "lower", "itself"),
    ("broadcast.bubble_window_tail_us", "us", "lower", "itself"),
    ("broadcast.broadcast_p50_us", "us", "lower", "itself"),
) + tuple(
    (f"serve.queue_wait_us.{q}.x{m}", "us", "lower", _SERVE)
    for m in STEPS for q in ("p50", "p99")
) + (
    ("serve.service_us.warm_p50", "us", "lower", _SERVE),
    ("serve.service_us.cold_p50", "us", "lower", _SERVE),
    ("serve.warm_pool.hit_ratio", "ratio", "higher", _SERVE),
    ("serve.warm_pool.evictions", "count", "lower", _SERVE),
) + tuple(
    (f"serve.shed.{reason}", "count", "lower", "shed_ratio on serve_ramp")
    for reason in (
        "queue-full", "tenant-quota", "unknown-tenant", "rate-limited", "stopped"
    )
) + tuple(
    (f"serve.{cls}.tail_us", "us", "lower", "deploy_p99_us.x8 on serve_ramp")
    for cls in ("hotpatch", "standard", "bulk")
) + (
    ("serve.deploy_p99_us.x4", "us", "lower", "itself"),
    ("serve.deploy_p99_us.x8", "us", "lower", "itself"),
    ("serve.max_deploys_per_s_at_slo", "deploys/s", "higher", "itself"),
    ("serve.shed_ratio", "ratio", "lower", "itself"),
    ("rdma.bytes_per_deploy", "B", "lower", _WIRE),
    ("rdma.wrs_per_doorbell.p50", "count", "higher", _WIRE),
    ("rdma.retries", "count", "lower", _WIRE),
    ("sim.events", "count", "lower", _SIM),
    ("sim.events_per_wall_s", "1/s", "higher", _SIM),
    ("sim.self_s", "s", "lower", _SIM),
    ("obs.flight.self_s", "s", "lower", _OBS),
    ("obs.trace_records_per_deploy", "count", "lower", _OBS),
    ("obs.segment_stores_per_deploy", "count", "lower", _OBS),
    ("hb.check.calls", "count", "lower", _HB),
    ("hb.check.self_s", "s", "lower", _HB),
    ("hb.extract.self_s", "s", "lower", _HB),
    ("hb.events_per_iteration", "count", "lower", _FUZZ),
    ("hb.findings", "count", "lower", "failed_ratio on fuzz_guarded"),
    ("fuzz.iterations", "count", "higher", _FUZZ),
    ("fuzz.run_plan.p50_s", "s", "lower", _FUZZ),
    ("fuzz.run_plan.self_s", "s", "lower", _FUZZ),
) + tuple(
    (f"fuzz.verdict.{v}", "count", "higher" if v == "clean" else "lower",
     "failed_ratio on fuzz_guarded")
    for v in ("clean", "finding", "invariant", "inconclusive")
) + (
    ("trace.overhead_ratio", "ratio", "lower", "none: traced / untraced run_s"),
)

#: Wall-clock spans whose calls and self time are reported directly.
SPAN_LAYERS = (
    "ebpf.verify", "ebpf.jit", "ebpf.encode", "ebpf.interp",
    "obs.flight", "hb.check", "hb.extract", "fuzz.run_plan",
)


def _add_paths() -> None:
    """Import ``repro`` from this checkout's ``src`` and ``perfbench``
    as a package; refuse to run without them."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path[:0] = [src, ROOT]


def _pass(module, seed: int, tracer=None, run: bool = True):
    """One set-up, then (with ``run``) the timed run and the checks;
    returns the set-up and run HostClocks and the pass result."""
    from repro.fuzz.determinism import deterministic_ids

    from perfbench.clock import HostClock

    with deterministic_ids():
        gc.collect()
        with HostClock() as setup_clock:
            state = module.setup(seed)
        if not run:
            return setup_clock, None, None
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            with HostClock() as run_clock:
                module.run(state)
        finally:
            if tracer is not None:
                tracer.uninstall()
        # Read before the checks, whose audits allocate more than the
        # workload itself.
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = module.finish(state)
    result.peak_rss_mib = peak_rss_mib
    return setup_clock, run_clock, result


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import importlib

    from perfbench import stats
    from perfbench.tracing import Tracer

    module = importlib.import_module(f"perfbench.{name}")
    setups, plain_runs, traced_runs, results = [], [], [], []
    tracer = None
    begin = time.perf_counter()
    while True:
        traced = trace and len(plain_runs) > len(traced_runs)
        if traced:
            tracer = Tracer()
        mark = time.perf_counter()
        setup_clock, run_clock, result = _pass(
            module, seed, tracer if traced else None
        )
        last = time.perf_counter() - mark
        setups.append(setup_clock)
        (traced_runs if traced else plain_runs).append(run_clock)
        results.append(result)
        used = time.perf_counter() - begin
        if used + last > seconds and (not trace or traced_runs):
            break
    while len(setups) < MIN_SETUPS:
        setups.append(_pass(module, seed, run=False)[0])

    first = results[0]
    failures = [f for r in results for f in r.failures]
    digests = {r.fingerprint.hexdigest() for r in results}
    if len(digests) != 1:
        failures.append(f"passes disagree on the sim fingerprint: {sorted(digests)}")
    p99 = stats.p99(first.deploy_us)
    if p99 is None:
        failures.append(
            f"{len(first.deploy_us)} deploy samples: too few for a p99"
        )
    out = {
        "workload": name,
        "seed": seed,
        "passes": len(results),
        "pass_run_s": [c.scaled_s for c in plain_runs],
        "pass_wall_s": [c.wall_s for c in plain_runs],
        "traced_passes": len(traced_runs),
        "fingerprint": first.fingerprint.hexdigest(),
        "fingerprint_records": first.fingerprint.records,
        "attempted": sum(r.attempted for r in results),
        "failed": len(failures),
        "failures": failures,
        "deploy_samples": len(first.deploy_us),
        "named": first.named,
        "metrics": {
            "setup_s": statistics.median(c.scaled_s for c in setups),
            "run_s": statistics.median(c.scaled_s for c in plain_runs),
            "peak_rss_mib": first.peak_rss_mib,
            "deploy_p50_us": stats.central(first.deploy_us),
            "deploy_p99_us": p99,
        },
    }
    if trace:
        out["layers"] = _layers(
            results[-1], tracer, out["metrics"]["run_s"], traced_runs
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        out["spans_file"] = os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl")
        tracer.write(out["spans_file"])
    return out


def _layers(result, tracer, plain_run_s: float, traced_clocks) -> dict:
    """Per-layer figures of the last traced pass.  Wall self times are
    rescaled by that pass's host-speed factor, like ``run_s``."""
    from perfbench.stats import percentile

    scale = traced_clocks[-1].scaled_s / traced_clocks[-1].wall_s
    layers = {entry[0]: 0.0 for entry in PER_LAYER}
    layers.update(result.layers)
    own = tracer.self_times()
    for span_name in SPAN_LAYERS:
        calls, self_s = own.get(span_name, (0, 0.0))
        layers[f"{span_name}.calls"] = float(calls)
        layers[f"{span_name}.self_s"] = self_s * scale
    deploys = own.get("codeflow.deploy", (0, 0.0))[0]
    layers["sim.events"] = float(result.sim_events)
    layers["sim.events_per_wall_s"] = result.sim_events / plain_run_s
    layers["sim.self_s"] = own.get("sim.loop", (0, 0.0))[1] * scale
    if deploys:
        layers["obs.trace_records_per_deploy"] = (
            tracer.counts["obs.trace_records"] / deploys
        )
        layers["obs.segment_stores_per_deploy"] = (
            tracer.counts["obs.segment_stores"] / deploys
        )
    layers["fuzz.run_plan.p50_s"] = scale * (
        percentile(tracer.durations("fuzz.run_plan"), 50.0) or 0.0
    )
    layers["trace.overhead_ratio"] = (
        statistics.median(c.scaled_s for c in traced_clocks) / plain_run_s
    )
    return {entry[0]: float(layers[entry[0]]) for entry in PER_LAYER}


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(out: dict, trace: bool) -> None:
    name = out["workload"]
    print(f"perfbench {name} seed={out['seed']} passes={out['passes']} "
          f"(traced {out['traced_passes']})")
    print("  run_s per pass: " + " ".join(f"{v:.3f}" for v in out["pass_run_s"])
          + " (raw wall: " + " ".join(f"{v:.3f}" for v in out["pass_wall_s"])
          + ")")
    print(f"  sim fingerprint {out['fingerprint']} "
          f"({out['fingerprint_records']} records, same in every pass)")
    units = dict(END_TO_END)
    notes = {
        "setup_s": "(host, median of set-ups)",
        "run_s": "(host, median of passes)",
        "peak_rss_mib": "(host, through the first timed phase)",
        "deploy_p50_us": "(sim, mean of the central 10%)",
        "deploy_p99_us": "(sim)",
    }
    for metric, value in out["metrics"].items():
        print(f"  {metric:<26} {_fmt(value):>14} {units[metric]:<9} {notes[metric]}")
    ratio = out["failed"] / max(out["attempted"], 1)
    print(f"  {'failed_ratio':<26} {_fmt(ratio):>14} {'ratio':<9} "
          f"({out['failed']} of {out['attempted']})")
    for metric, unit, owner in NAMED:
        value = out["named"].get(metric) if owner == name else None
        note = "(sim)" if owner == name else f"(only on {owner})"
        print(f"  {metric:<26} {_fmt(value):>14} {unit:<9} {note}")
    print(f"  deploy samples: {out['deploy_samples']}")
    if name == "broadcast_fleet":
        print(f"  bubble_window_tail_us is the p{_fmt(out['named']['bubble_window_tail_pct'])}"
              " (highest percentile with ten rounds beyond it)")
    if name == "serve_ramp":
        lateness = out["named"]["generator_lateness_us"]
        print(f"  open-loop generator lateness: {_fmt(lateness)} us "
              "(arrivals fire at their due simulated instant)")
        for m in STEPS:
            print(f"  step x{m:<3} p99 {_fmt(out['named'][f'step.x{m}.p99_us']):>12} us"
                  f"  drain/window {_fmt(out['named'][f'step.x{m}.drain_share'])}"
                  f"  {'PASS' if out['named'][f'step.x{m}.pass'] else 'fail'}")
    for failure in out["failures"][:20]:
        print(f"  FAILED: {failure}")
    if trace:
        print("  per-layer (traced pass)                     moves")
        for metric, unit, _better, moves in PER_LAYER:
            print(f"  {metric:<36} {_fmt(out['layers'][metric]):>12} "
                  f"{unit:<9} -> {moves}")
        print(f"  spans written to {os.path.relpath(out['spans_file'], ROOT)}")


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except ValueError:
            last = None
        if proc.returncode or last is None:
            combined["correct"] = False
            continue
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    _add_paths()
    if args.workload == "all":
        return run_all(args)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(out, bool(args.trace))
    if args.trace:
        units = {entry[0]: entry[1] for entry in PER_LAYER}
        values = out["layers"]
    else:
        units = dict(END_TO_END)
        values = out["metrics"]
    correct = out["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
