"""Tests for the repro-simulate command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.errors import ProtocolError
from repro.sim import cli
from repro.sim.cli import main


class TestBasicRuns:
    def test_default_smc_run(self, capsys):
        assert main(["copy", "--length", "128", "--fifo-depth", "16"]) == 0
        out = capsys.readouterr().out
        assert "kernel       : copy" in out
        assert "% of peak" in out

    def test_baseline_run(self, capsys):
        assert main(
            ["daxpy", "--baseline", "natural-order", "--length", "128"]
        ) == 0
        out = capsys.readouterr().out
        assert "controller   : natural-order" in out

    def test_pi_org(self, capsys):
        assert main(["vaxpy", "--org", "pi", "--length", "128"]) == 0
        assert "PI / open-page" in capsys.readouterr().out

    def test_strided_reports_attainable(self, capsys):
        assert main(["copy", "--stride", "4", "--length", "128"]) == 0
        assert "attainable" in capsys.readouterr().out


class TestOptions:
    def test_bounds(self, capsys):
        assert main(["daxpy", "--length", "128", "--bounds"]) == 0
        out = capsys.readouterr().out
        assert "natural-order" in out and "SMC combined" in out

    def test_metrics_and_audit(self, capsys):
        assert main(
            ["copy", "--length", "128", "--metrics", "--audit"]
        ) == 0
        out = capsys.readouterr().out
        assert "audit        : OK" in out
        assert "bus load" in out

    def test_json_report_is_audited(self, capsys, monkeypatch):
        flags = ["daxpy", "--org", "pi", "--length", "256", "--refresh",
                 "--page-policy", "timeout", "--json", "--audit"]
        assert main(flags) == 0
        audit = json.loads(capsys.readouterr().out)["audit"]
        assert audit["channels"] == 1 and audit["col_packets"] > 0

        def reject(memory):
            raise ProtocolError("t_RCD violated")

        monkeypatch.setattr(cli, "audit_memory", reject)
        assert main(flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "error: t_RCD violated"

    def test_gantt(self, capsys):
        assert main(["copy", "--length", "64", "--gantt", "80"]) == 0
        out = capsys.readouterr().out
        assert "cycle 0" in out
        assert "data " in out

    def test_policy_selection(self, capsys):
        assert main(
            ["daxpy", "--length", "128", "--policy", "bank-aware"]
        ) == 0
        assert "bank-aware" in capsys.readouterr().out

    def test_refresh(self, capsys):
        assert main(["copy", "--length", "1024", "--refresh"]) == 0
        out = capsys.readouterr().out
        refreshes = int(out.split("refreshes")[0].rsplit(",", 1)[1])
        assert refreshes > 0

    @pytest.mark.parametrize("baseline, policy", [
        ("natural-order", "natural-order"),
        ("cached", "cached-natural-order"),
        ("l2-streaming", "l2-streaming"),
    ])
    def test_baseline_refresh(self, capsys, baseline, policy):
        assert main([
            "copy", "--baseline", baseline, "--refresh", "--json",
            "--length", "1024",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["policy"] == policy
        assert report["result"]["refreshes"] > 0

    def test_compile_mode(self, capsys):
        assert main(
            ["y[i] = a*x[i] + y[i]", "--compile", "--length", "128"]
        ) == 0
        assert "kernel       : loop" in capsys.readouterr().out


class TestTopology:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--devices", "2", "--audit"],
            ["--channels", "2", "--devices", "2", "--audit"],
            ["--baseline", "natural-order", "--devices", "2", "--audit"],
        ],
    )
    def test_audits_each_channel(self, capsys, flags):
        assert main(["daxpy", "--length", "256", "--refresh", *flags]) == 0
        assert "audit        : OK" in capsys.readouterr().out

    def test_baseline_rejects_multi_channel(self, capsys):
        assert main(
            ["daxpy", "--baseline", "natural-order", "--channels", "2"]
        ) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: NaturalOrderController")


class TestErrors:
    def test_unknown_kernel_reports_error(self, capsys):
        assert main(["fft", "--length", "64"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_loop_source(self, capsys):
        assert main(["y[i] = x[i*i]", "--compile"]) == 1
        assert "error:" in capsys.readouterr().err
