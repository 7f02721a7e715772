"""Tests for the self-contained HTML report and its CLI.

The one property everything else hangs off: the output is a single
static document — no scripts, no external references — that renders
from any combination of ledger, metrics, and traffic inputs.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.exec import execution, run_specs
from repro.obs.ledger import Ledger
from repro.obs.metrics import MetricsRegistry, write_metrics_jsonl
from repro.obs.cli import main as obs_main
from repro.obs.report import render_report
from repro.sim.runner import RunSpec
from repro.traffic import TrafficWorkload, run_traffic

WORKLOAD = TrafficWorkload(clients=16, requests=80, seed=9)


@pytest.fixture
def ledger(tmp_path):
    path = tmp_path / "run.jsonl"
    with execution(ledger=path):
        run_specs([RunSpec(kernel="copy", length=128)])
    return Ledger.load(path)


@pytest.fixture
def traffic_registry():
    registry = MetricsRegistry()
    result = run_traffic(
        workload=WORKLOAD,
        channels=2,
        registry=registry,
        telemetry_window=128,
    )
    return result, registry


def _assert_self_contained(text):
    lowered = text.lower()
    assert "<script" not in lowered
    assert "http" not in lowered  # no external assets of any kind
    assert text.startswith("<!DOCTYPE html>")
    assert "prefers-color-scheme: dark" in text


class TestRender:
    def test_ledger_only(self, ledger):
        text = render_report(ledger=ledger)
        _assert_self_contained(text)
        assert "Run ledger" in text
        assert "Batches" in text

    def test_traffic_and_metrics(self, traffic_registry):
        result, registry = traffic_registry
        text = render_report(metrics=registry, traffic=[result])
        _assert_self_contained(text)
        assert "Where request latency went" in text
        assert "queue_wait" in text
        assert "traffic.bank_bytes" in text
        assert "<svg" in text

    def test_all_inputs(self, ledger, traffic_registry):
        result, registry = traffic_registry
        text = render_report(
            ledger=ledger, metrics=registry, traffic=[result]
        )
        _assert_self_contained(text)
        for heading in ("Run ledger", "Traffic", "Metrics"):
            assert f"<h2>{heading}</h2>" in text

    def test_empty_inputs_rejected(self):
        with pytest.raises(ObservabilityError):
            render_report()
        with pytest.raises(ObservabilityError):
            render_report(metrics=MetricsRegistry())

    def test_title_is_escaped(self, ledger):
        text = render_report(ledger=ledger, title='<img src=x> & "q"')
        assert "<img" not in text
        assert "&lt;img src=x&gt; &amp; &quot;q&quot;" in text


class TestCli:
    def test_renders_all_inputs(
        self, tmp_path, ledger, traffic_registry, capsys
    ):
        result, registry = traffic_registry
        ledger_path = tmp_path / "run.jsonl"
        with execution(ledger=ledger_path):
            run_specs([RunSpec(kernel="copy", length=128)])
        metrics_path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(metrics_path, registry)
        traffic_path = tmp_path / "traffic.json"
        traffic_path.write_text(json.dumps(result.to_dict()))
        out = tmp_path / "report.html"

        assert obs_main([
            "report",
            "--ledger", str(ledger_path),
            "--metrics", str(metrics_path),
            "--traffic", str(traffic_path),
            "--out", str(out),
            "--title", "cli smoke",
        ]) == 0
        text = out.read_text()
        _assert_self_contained(text)
        assert "cli smoke" in text
        assert str(out) in capsys.readouterr().out

    def test_missing_input_is_an_error(self, tmp_path, capsys):
        assert obs_main([
            "report",
            "--ledger", str(tmp_path / "absent.jsonl"),
            "--out", str(tmp_path / "report.html"),
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_inputs_is_an_error(self, tmp_path, capsys):
        assert obs_main(["report", "--out", str(tmp_path / "report.html")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_traffic_json_is_an_error(self, tmp_path, capsys):
        bogus = tmp_path / "traffic.json"
        bogus.write_text("[1, 2, 3]")
        assert obs_main([
            "report",
            "--traffic", str(bogus),
            "--out", str(tmp_path / "report.html"),
        ]) == 1
        assert "organization" in capsys.readouterr().err
