"""Tests for the observability layer: counters, spans, attribution, export."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.core.smc import build_smc_system
from repro.cpu.kernels import get_kernel
from repro.naturalorder.controller import NaturalOrderController
from repro.obs import (
    BUCKETS,
    CounterRegistry,
    EventTracer,
    Instrumentation,
    attribute_stalls,
)
from repro.obs.attribution import CONTROLLER, partition_gap, partition_gap_sums
from repro.obs.cli import main as obs_main
from repro.obs.core import DataBusGap
from repro.obs.export import load_trace_file, write_chrome_trace, write_jsonl
from repro.sim.cli import main as simulate_main
from repro.sim.engine import run_smc
from repro.sim.metrics import measure_trace
from repro.sim.runner import RunSpec, resolve_config, simulate

KERNELS = ("copy", "daxpy", "vaxpy")
ORGS = ("cli", "pi")


def run_instrumented(kernel, org, length=1024, depth=64, **kwargs):
    obs = Instrumentation()
    result = simulate(
        RunSpec(kernel, org, length=length, fifo_depth=depth, **kwargs),
        obs=obs,
    )
    return obs, result


class TestPrimitives:
    def test_counters_and_gauges(self):
        registry = CounterRegistry()
        registry.incr("a")
        registry.incr("a", 2)
        registry.sample_gauge("g", 5, 1.5)
        assert registry.get("a") == 3
        assert registry.get("missing") == 0
        assert registry.counters == {"a": 3}
        assert registry.gauges == {"g": [(5, 1.5)]}

    def test_tracer_spans_and_instants(self):
        tracer = EventTracer()
        tracer.add_span("msu", "idle:fifo", 10, 20, reason="full")
        tracer.add_span("cpu", "stall:read", 0, 4)
        tracer.add_instant("refresh", "forced_precharge", 7, bank=3)
        assert tracer.tracks() == ["msu", "cpu", "refresh"]
        (span,) = tracer.spans_on("msu", "idle")
        assert span.duration == 10 and dict(span.args) == {"reason": "full"}
        assert tracer.spans_on("msu", "nope") == []

    def test_disabled_by_default(self):
        system = build_smc_system(
            get_kernel("copy"), resolve_config("cli"),
            length=128, fifo_depth=16,
        )
        run_smc(system)
        assert system.msu.obs is None
        assert system.device.obs is None


class TestStallAttribution:
    @pytest.mark.parametrize("org", ORGS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_buckets_and_busy_sum_to_cycles(self, kernel, org):
        obs, result = run_instrumented(kernel, org)
        stalls = attribute_stalls(obs)
        assert stalls.cycles == result.cycles
        assert stalls.busy + sum(stalls.buckets.values()) == result.cycles
        assert set(stalls.buckets) == set(BUCKETS)
        assert all(value >= 0 for value in stalls.buckets.values())

    @pytest.mark.parametrize("org", ORGS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_turnaround_bucket_matches_trace_metrics(self, kernel, org):
        system = build_smc_system(
            get_kernel(kernel), resolve_config(org),
            length=1024, fifo_depth=64, record_trace=True,
        )
        obs = Instrumentation()
        result = run_smc(system, obs=obs)
        stalls = attribute_stalls(obs)
        metrics = measure_trace(
            system.device.trace, system.config.timing, result.cycles
        )
        assert stalls.buckets["turnaround"] == metrics.turnaround_cycles

    def test_refresh_run_attributes_refresh_cycles(self):
        obs, result = run_instrumented("daxpy", "pi", length=4096,
                                       refresh=True)
        stalls = attribute_stalls(obs)
        assert stalls.total == result.cycles
        assert obs.counters.get("refresh.issued") > 0
        assert stalls.buckets["refresh"] > 0

    @pytest.mark.parametrize("org", ORGS)
    def test_natural_order_controller_closes(self, org):
        obs = Instrumentation()
        controller = NaturalOrderController(resolve_config(org))
        result = controller.run(get_kernel("daxpy"), 1024, obs=obs)
        stalls = attribute_stalls(obs)
        assert stalls.total == result.cycles
        assert obs.counters.get("controller.transactions") > 0

    def test_attribution_needs_completed_run(self):
        with pytest.raises(ObservabilityError):
            attribute_stalls(Instrumentation())

    def test_stall_table_renders(self):
        obs, __ = run_instrumented("copy", "cli", length=128, depth=16)
        table = attribute_stalls(obs).table()
        assert "stall attribution" in table
        for bucket in BUCKETS:
            assert bucket in table


#: partition_gap's causes, in the order partition_gap_sums returns them.
CAUSES = (
    "turnaround", "refresh", "precharge_activate", "command_bus", CONTROLLER
)


@st.composite
def gap_cases(draw):
    """A gap, a first cycle to classify in it, and refresh spans.

    Each device bound lies below, inside or past the gap.  The spans
    are sorted and disjoint, from well before the gap to well after
    it, so they miss it, straddle ``lo``, lie inside it or straddle
    its end.
    """
    start = draw(st.integers(0, 100))
    end = start + draw(st.integers(1, 60))

    def bound():
        return draw(st.one_of(
            st.integers(start - 40, start - 1),
            st.integers(start, end),
            st.integers(end + 1, end + 40),
        ))

    gap = DataBusGap(
        start, end, 0, draw(st.sampled_from(("read", "write"))),
        bound(), bound(), bound(), end,
    )
    lo = draw(st.integers(start, end))
    points = sorted(draw(st.lists(
        st.integers(start - 40, end + 40), unique=True, max_size=8
    )))
    return lo, gap, list(zip(points[::2], points[1::2]))


class TestPartitionGapSums:
    @given(case=gap_cases())
    @settings(max_examples=500, deadline=None)
    def test_sums_equal_partition_totals(self, case):
        lo, gap, spans = case
        totals = dict.fromkeys(CAUSES, 0)
        for start, end, cause in partition_gap(lo, gap, spans):
            totals[cause] += end - start
        sums = partition_gap_sums(lo, gap, spans)
        assert sums == tuple(totals[cause] for cause in CAUSES)
        assert min(sums) >= 0
        assert sum(sums) == gap.end - lo


class TestDenseSkipIdentity:
    @pytest.mark.parametrize("org", ORGS)
    def test_identical_event_streams(self, org):
        streams = []
        for dense in (False, True):
            system = build_smc_system(
                get_kernel("daxpy"), resolve_config(org),
                length=256, fifo_depth=32,
            )
            obs = Instrumentation()
            run_smc(system, dense=dense, obs=obs)
            streams.append(obs)
        skip, dense = streams
        assert skip.tracer == dense.tracer
        assert skip.counters == dense.counters
        assert skip.gaps == dense.gaps
        assert skip == dense


class TestExportRoundTrip:
    @pytest.mark.parametrize("fmt", ("chrome", "jsonl"))
    def test_events_round_trip(self, fmt, tmp_path):
        obs, result = run_instrumented("vaxpy", "pi", length=256, depth=32)
        stalls = attribute_stalls(obs)
        path = str(tmp_path / ("t.json" if fmt == "chrome" else "t.jsonl"))
        write = write_chrome_trace if fmt == "chrome" else write_jsonl
        count = write(path, obs, result={"cycles": result.cycles},
                      stalls=stalls.as_dict())
        assert count > 0
        document = load_trace_file(path)
        assert document.meta["kernel"] == "vaxpy"
        assert document.result["cycles"] == result.cycles
        assert document.stalls["buckets"]["turnaround"] == (
            stalls.buckets["turnaround"]
        )
        assert document.counters == obs.counters.counters
        assert document.gauges == obs.counters.gauges
        assert document.spans == obs.tracer.spans
        assert document.instants == obs.tracer.instants
        assert document.meta == obs.meta

    def test_chrome_trace_is_valid_trace_event_json(self, tmp_path):
        obs, __ = run_instrumented("copy", "cli", length=128, depth=16)
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, obs)
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert isinstance(document["traceEvents"], list)
        phases = {event["ph"] for event in document["traceEvents"]}
        assert "X" in phases and "M" in phases
        for event in document["traceEvents"]:
            assert "name" in event and "ph" in event

    def test_unwritable_path_is_clean_error(self):
        obs, __ = run_instrumented("copy", "cli", length=128, depth=16)
        for write in (write_chrome_trace, write_jsonl):
            with pytest.raises(ObservabilityError):
                write("/nonexistent-dir/trace.out", obs)

    def test_load_rejects_garbage(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(ObservabilityError):
            load_trace_file(str(empty))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ObservabilityError):
            load_trace_file(str(bad))
        with pytest.raises(ObservabilityError):
            load_trace_file(str(tmp_path / "missing.json"))


class TestSimulateCliModes:
    def test_json_mode(self, capsys):
        assert simulate_main(["daxpy", "--org", "pi", "--length", "128",
                              "--json", "--metrics"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["kernel"] == "daxpy"
        assert report["stalls"]["cycles"] == report["result"]["cycles"]
        assert report["stalls"]["busy"] + sum(
            report["stalls"]["buckets"].values()
        ) == report["result"]["cycles"]
        assert report["counters"]["device.data_packets"] > 0
        assert 0.0 <= report["metrics"]["data_bus_utilization"] <= 1.0

    def test_json_excludes_gantt(self, capsys):
        assert simulate_main(["copy", "--json", "--gantt"]) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_stats_mode(self, capsys):
        assert simulate_main(["copy", "--length", "128", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "stall attribution" in out
        assert "msu.decisions" in out

    def test_trace_out_then_repro_trace(self, capsys, tmp_path):
        path = str(tmp_path / "run.json")
        assert simulate_main(["daxpy", "--org", "pi", "--length", "128",
                              "--trace-out", path]) == 0
        capsys.readouterr()
        assert obs_main(["trace", path, "--stalls"]) == 0
        out = capsys.readouterr().out
        assert "stall attribution" in out
        assert "run cycles" in out

    def test_trace_out_jsonl(self, capsys, tmp_path):
        path = str(tmp_path / "run.jsonl")
        assert simulate_main(["copy", "--length", "128",
                              "--trace-out", path]) == 0
        capsys.readouterr()
        assert obs_main(["trace", path, "--counters"]) == 0
        assert "device.data_packets" in capsys.readouterr().out


class TestTraceCli:
    def test_summary_and_spans(self, capsys, tmp_path):
        path = str(tmp_path / "run.json")
        simulate_main(["vaxpy", "--length", "128", "--trace-out", path])
        capsys.readouterr()
        assert obs_main(["trace", path]) == 0
        out = capsys.readouterr().out
        assert "kernel" in out and "events" in out
        assert obs_main(["trace", path, "--spans", "5"]) == 0
        assert "msu" in capsys.readouterr().out

    def test_missing_file_is_clean_error(self, capsys, tmp_path):
        assert obs_main(["trace", str(tmp_path / "none.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_stalls_flag_without_embedded_stalls(self, capsys, tmp_path):
        obs, __ = run_instrumented("copy", "cli", length=128, depth=16)
        path = str(tmp_path / "bare.json")
        write_chrome_trace(path, obs)
        assert obs_main(["trace", path, "--stalls"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_span_count_rejected(self, capsys, tmp_path):
        obs, __ = run_instrumented("copy", "cli", length=128, depth=16)
        path = str(tmp_path / "run.json")
        write_chrome_trace(path, obs)
        assert obs_main(["trace", path, "--spans", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--spans" in captured.err

    def test_closed_pipe_exits_quietly(self, tmp_path):
        obs, __ = run_instrumented("copy", "cli", length=128, depth=16)
        path = str(tmp_path / "run.json")
        write_chrome_trace(path, obs)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        reader, writer = os.pipe()
        os.close(reader)  # every write to stdout now fails with EPIPE
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro.obs.cli", "trace", path,
                 "--spans", "100000"],
                stdout=writer,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(src)},
                timeout=120,
            )
        finally:
            os.close(writer)
        assert completed.stderr == b""
        assert completed.returncode == 0


class TestMalformedInputs:
    """Bad input files fail with one ``error:`` line naming the file."""

    @pytest.mark.parametrize("command, name, content", [
        ("trace", "t.jsonl", b"[1, 2]\n"),
        ("trace", "t.jsonl", b'{"type": "span"}\n'),
        ("trace", "t.json", b'{"traceEvents": [1]}'),
        ("trace", "t.json", b"\xff\xfe"),
        ("list", "m.jsonl", b'{"type": "counter"}\n'),
        ("list", "m.jsonl", b'{"type": "histogram", "name": "h"}\n'),
        ("list", "m.jsonl",
         b'{"type": "series", "name": "s", "samples": [[1]]}\n'),
        ("list", "t.jsonl", None),  # a repro-simulate --trace-out export
        ("report --traffic", "traffic.json", b'{"organization": "x"}'),
        ("report --ledger", "run.jsonl",
         b'{"event": "ledger_open", "t": "soon"}\n'),
    ])
    def test_exits_with_one_error_line(
        self, command, name, content, tmp_path, capsys
    ):
        path = tmp_path / name
        if content is None:
            assert simulate_main(["copy", "--length", "128",
                                  "--trace-out", str(path)]) == 0
            capsys.readouterr()
        else:
            path.write_bytes(content)
        subcommand, *flag = command.split()
        argv = [subcommand, *flag, str(path)]
        if subcommand == "report":
            argv += ["--out", str(tmp_path / "report.html")]
        assert obs_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert str(path) in captured.err


class TestRequireTrace:
    def test_metrics_without_trace_is_repro_error(self):
        from repro.sim.cli import _require_trace

        with pytest.raises(ObservabilityError) as excinfo:
            _require_trace(None, "--metrics")
        assert "--metrics" in str(excinfo.value)
        assert _require_trace([], "--metrics") == []
