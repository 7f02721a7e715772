"""Tests of the benchmark harness itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_harness.py

Each workload body runs one pass (``min_passes=1``, no time budget),
traced and untraced, so the whole file takes tens of seconds.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import compare
import harness
import run
from tracing import ROOT, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected_digests.json").read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def passes(request, tmp_path_factory):
    """One untraced and one traced pass of a workload at seed 1."""
    workload = WORKLOADS[request.param](1, str(tmp_path_factory.mktemp("scratch")))
    workload.warmup()
    untraced = harness.run_passes(workload, 0, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = harness.run_passes(workload, 0, 1, tracer)
    finally:
        tracer.uninstall()
    return workload, untraced, traced, tracer


def test_workload_and_metric_names_match_the_benchmark_file():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert BENCH["paths"] == ["perfbench"]


def test_every_declared_metric_is_printed_with_its_unit(passes):
    workload, untraced, traced, tracer = passes
    result = {
        "seed": 1, "passes": 1, "digest": untraced.digests[0], "errors": [],
        "metrics": dict(
            harness.end_to_end(workload, untraced), setup_s={"value": 0.5}
        ),
    }
    layered = dict(result, metrics=harness.per_layer(tracer, traced, untraced))
    for declared, report in (
        (BENCH["end_to_end"], result), (BENCH["per_layer"], layered),
    ):
        assert set(report["metrics"]) == {m["name"] for m in declared}
        run.add_units(report, declared)
        lines = run.report_lines(workload.name, report, declared)
        for metric in declared:
            assert any(
                line.startswith(f"{metric['name']} ")
                and line.endswith(f" {metric['unit']}")
                for line in lines
            ), metric["name"]


def test_end_to_end_metrics_are_never_zero(passes):
    workload, untraced, _, _ = passes
    for name, entry in harness.end_to_end(workload, untraced).items():
        assert entry["value"] > 0, name


def test_outputs_match_the_pinned_digest_traced_and_untraced(passes):
    workload, untraced, traced, _ = passes
    assert untraced.failed == traced.failed == 0, untraced.errors + traced.errors
    assert untraced.digests == traced.digests == [EXPECTED[workload.name]["1"]]


def test_spans_nest_within_their_parents(passes):
    _, _, _, tracer = passes
    spans = {span[0]: span for span in tracer.spans}
    assert any(span[3] == ROOT for span in spans.values())
    for span_id, parent, root, name, start, end in spans.values():
        assert start <= end
        if parent is None:
            assert name == ROOT and root == span_id
        elif parent in spans:
            assert spans[parent][4] <= start and end <= spans[parent][5]
            assert spans[parent][2] == root


def test_self_time_sums_to_no_more_than_traced_wall_time(passes):
    _, _, traced, tracer = passes
    total = sum(stat.self_s for stat in tracer.stats.values())
    assert 0 < total <= sum(traced.walls)


def test_tracer_restores_every_callable():
    import repro
    import repro.sim.runner

    before = (repro.simulate, repro.sim.runner.simulate, repro.run_specs)
    tracer = Tracer()
    tracer.install()
    assert repro.simulate is not before[0]
    assert repro.simulate is repro.sim.runner.simulate
    tracer.uninstall()
    assert (repro.simulate, repro.sim.runner.simulate, repro.run_specs) == before


def _results(tmp_path: Path, name: str, values: dict, seed: int = 1) -> Path:
    metrics = {
        metric: {"value": value, "unit": "x"} for metric, value in values.items()
    }
    report = {
        "schema": "perfbench/1", "seed": seed, "trace": False,
        "workloads": {"traffic-matched": {
            "seed": seed, "attempted": 9, "failed": 0, "digest": "d",
            "metrics": metrics,
        }},
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(report))
    return path


def _side(tmp_path: Path, label: str, runs: list) -> str:
    folder = tmp_path / label
    folder.mkdir()
    for index, values in enumerate(runs):
        _results(folder, f"run{index}", values, seed=index)
    return str(folder)


def _verdicts(base: str, new: str) -> dict:
    rows, _, _ = compare.compare(compare.load(base), compare.load(new), BENCH)
    return {row["metric"]: row["verdict"] for row in rows}


BASE = [
    {"data_packets_per_s": 50_000 + 200 * i, "call_p50_ms": 140 + 0.5 * i}
    for i in range(5)
]


def test_compare_flags_a_2x_slowdown_as_worse(tmp_path):
    slow = [
        {"data_packets_per_s": run["data_packets_per_s"] / 2,
         "call_p50_ms": run["call_p50_ms"] * 2}
        for run in BASE
    ]
    base, new = _side(tmp_path, "a", BASE), _side(tmp_path, "b", slow)
    assert set(_verdicts(base, new).values()) == {"worse"}
    assert compare.main([base, new]) == 1


def test_compare_identical_inputs_are_ok(tmp_path):
    side = _side(tmp_path, "a", BASE)
    assert set(_verdicts(side, side).values()) == {"ok"}
    assert compare.main([side, side]) == 0


def test_compare_wide_spread_is_unresolved(tmp_path):
    noisy = [
        {"data_packets_per_s": value, "call_p50_ms": 140}
        for value in (35_000, 65_000, 42_000, 58_000, 50_000)
    ]
    base, new = _side(tmp_path, "a", BASE), _side(tmp_path, "b", noisy)
    assert _verdicts(base, new)["data_packets_per_s"] == "unresolved"
    assert compare.main([base, new]) == 0


def test_compare_fails_on_a_digest_change(tmp_path, capsys):
    base = _results(tmp_path, "base", BASE[0])
    changed = json.loads(base.read_text())
    changed["workloads"]["traffic-matched"]["digest"] = "other"
    new = tmp_path / "new.json"
    new.write_text(json.dumps(changed))
    assert compare.main([str(base), str(new)]) == 1
    assert "output digest differs" in capsys.readouterr().out
