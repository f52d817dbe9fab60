"""The command end to end: fingerprint determinism, the result line,
and ``BENCHMARK.json`` agreeing with what the command prints."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run, serve_ramp

ROOT = run.ROOT


def _run(workload, seed, hash_seed="0", cwd=ROOT, trace=0):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    return proc


def _fingerprint(proc):
    for line in proc.stdout.splitlines():
        if "sim fingerprint" in line:
            return line.split()[2]
    raise AssertionError(proc.stdout + proc.stderr)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_fingerprint_repeats_per_seed_only(workload):
    first = _run(workload, 5, hash_seed="0")
    again = _run(workload, 5, hash_seed="1")
    other = _run(workload, 6, hash_seed="0")
    for proc in (first, again, other):
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert _fingerprint(first) == _fingerprint(again)
    assert _fingerprint(first) != _fingerprint(other)
    result = json.loads(first.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer():
    proc = _run("redeploy_warm", 5, trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert list(metrics) == [entry[0] for entry in run.PER_LAYER]
    assert metrics["ebpf.encode.calls"]["value"] > 0
    assert metrics["ebpf.verify.calls"]["value"] == 0
    assert metrics["hb.check.calls"]["value"] == 0
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _run("redeploy_warm", 1, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_command():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        entry[:3] for entry in run.PER_LAYER
    ]
    assert run.STEPS == serve_ramp.STEPS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
