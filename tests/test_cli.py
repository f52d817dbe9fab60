"""Smoke tests for the command-line interface."""

import pytest

from repro import params
from repro.cli import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_quick_fig4b(self, capsys):
        assert main(["fig4b", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Fig 4b" in out
        assert "verify" in out

    def test_quick_fig5(self, capsys):
        assert main(["fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "CPKI" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_telemetry_table(self, capsys, monkeypatch):
        monkeypatch.setattr(params, "RDX_PIPELINED_DEPLOY", True)
        assert main(["telemetry", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "rdx.deploy.latency_us" in out
        # Warm redeploys are served by the artifact store's linked
        # stage, so its hit counter is the cache counter that moves.
        assert "rdx.link.cache_hit" in out
        assert "rdx.cache.miss" in out
        assert "rdx.audit.findings" in out
        assert "p99" in out

    def test_telemetry_jsonl(self, capsys):
        assert main(["telemetry", "--quick", "--format", "jsonl"]) == 0
        out = capsys.readouterr().out
        import json
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert any(r["name"] == "rdx.deploy.latency_us" for r in rows)

    def test_telemetry_prom(self, capsys):
        assert main(["telemetry", "--quick", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE rdx_deploy_latency_us summary" in out
        assert 'rdx_deploy_latency_us{quantile="0.99"}' in out

    def test_every_experiment_registered(self):
        assert set(EXPERIMENTS) == {
            "fig2a", "fig2b", "fig2c", "fig4a", "fig4b", "fig5",
            "redis", "mesh", "broadcast", "rollback",
        }
