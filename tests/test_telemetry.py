"""Tests for telemetry, the metrics registry, exporters, and sweep stats."""

from __future__ import annotations

import io
import json
import re
import sys

import pytest

from repro.errors import ConfigurationError, ObservabilityError
from repro.core.smc import build_smc_system
from repro.cpu.kernels import get_kernel
from repro.memsys.config import MemorySystemConfig
from repro.naturalorder.controller import NaturalOrderController
from repro.obs import (
    BUCKETS,
    Instrumentation,
    attribute_stalls,
    classify_stall_intervals,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    load_metrics_jsonl,
    to_prometheus,
    write_metrics_csv,
    write_metrics_jsonl,
)
from repro.obs.cli import main as obs_main
from repro.obs.telemetry import build_windowed_series
from repro.exec.pool import run_specs
from repro.exec.stats import SweepStats
from repro.sim.engine import run_smc
from repro.sim.cli import main as simulate_main
from repro.sim.runner import RunSpec, simulate


def run_instrumented(kernel="copy", org="cli", length=256, window=64):
    obs = Instrumentation(telemetry_window=window)
    system = build_smc_system(
        get_kernel(kernel),
        getattr(MemorySystemConfig, org)(),
        length=length,
        fifo_depth=32,
    )
    result = run_smc(system, obs=obs)
    return result, obs


# ---------------------------------------------------------------- registry


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("g") is registry.gauge("g")

    def test_labels_distinguish_metrics(self):
        registry = MetricsRegistry()
        a = registry.counter("stalls", bucket="fifo")
        b = registry.counter("stalls", bucket="refresh")
        assert a is not b
        a.inc()
        assert b.value == 0

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")

    def test_series_total_and_last(self):
        registry = MetricsRegistry()
        series = registry.series("s")
        series.sample(0, 1.0)
        series.sample(64, 2.0)
        assert series.values() == [1.0, 2.0]
        assert series.total() == 3.0
        assert series.last == 2.0


class TestHistogram:
    def test_bucket_counts_and_overflow(self):
        h = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            h.observe(value)
        assert h.count == 4
        assert h.bucket_counts == [1, 1, 1, 1]

    def test_percentiles_uniform(self):
        h = Histogram("h", bounds=tuple(float(i) for i in range(1, 101)))
        for value in range(1, 101):
            h.observe(float(value))
        # Interpolated quantiles land within one bucket of the exact rank.
        assert h.p50 == pytest.approx(50.0, abs=1.0)
        assert h.p90 == pytest.approx(90.0, abs=1.0)
        assert h.p99 == pytest.approx(99.0, abs=1.0)

    def test_quantile_bounds_and_empty(self):
        h = Histogram("h", bounds=(1.0, 2.0))
        assert h.quantile(0.5) == 0.0
        h.observe(1.5)
        assert h.quantile(0.0) <= h.quantile(1.0)

    def test_mean_min_max(self):
        h = Histogram("h", bounds=(10.0,))
        for value in (1.0, 2.0, 3.0):
            h.observe(value)
        assert h.mean == pytest.approx(2.0)
        assert h.min == 1.0
        assert h.max == 3.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_empty_percentiles_are_zero(self):
        h = Histogram("h", bounds=(1.0, 2.0))
        assert (h.p50, h.p90, h.p99) == (0.0, 0.0, 0.0)
        assert h.mean == 0.0
        assert h.min is None and h.max is None

    def test_single_sample(self):
        h = Histogram("h", bounds=(10.0, 20.0))
        h.observe(15.0)
        # Every percentile of a one-sample distribution is that
        # sample's bucket; interpolation must not escape it.
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert 10.0 <= h.quantile(q) <= 20.0
        assert h.min == h.max == 15.0

    def test_all_identical_samples(self):
        h = Histogram("h", bounds=(1.0, 4.0, 16.0))
        for _ in range(50):
            h.observe(4.0)
        assert 1.0 <= h.p50 <= 4.0
        assert 1.0 <= h.p99 <= 4.0
        assert h.mean == pytest.approx(4.0)

    def test_overflow_only_percentiles_use_observed_max(self):
        h = Histogram("h", bounds=(1.0,))
        h.observe(99.0)
        assert h.p50 == 99.0


# --------------------------------------------------------------- exporters


class TestExporters:
    def build_registry(self):
        registry = MetricsRegistry()
        registry.counter("hits", help="cache hits").inc(5)
        registry.gauge("depth", stream="x").set(3.0)
        h = registry.histogram("wall", bounds=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        s = registry.series("util")
        s.sample(0, 0.25)
        s.sample(64, 0.75)
        return registry

    def test_jsonl_round_trip_exact(self, tmp_path):
        registry = self.build_registry()
        path = tmp_path / "m.jsonl"
        count = write_metrics_jsonl(path, registry)
        assert count == len(registry)
        loaded = load_metrics_jsonl(path)
        assert loaded == registry

    def test_prometheus_text_format(self):
        text = to_prometheus(self.build_registry())
        assert "# TYPE repro_hits counter" in text
        assert "repro_hits 5" in text
        assert 'repro_depth{stream="x"} 3' in text
        assert "repro_wall_bucket" in text
        assert 'le="+Inf"' in text
        assert text.endswith("\n")

    def test_csv_export(self, tmp_path):
        path = tmp_path / "m.csv"
        count = write_metrics_csv(path, self.build_registry())
        lines = path.read_text().strip().splitlines()
        assert count == len(lines) - 1  # header row
        assert lines[0] == "metric,labels,t,value"

    def test_load_rejects_bad_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ObservabilityError):
            load_metrics_jsonl(path)

    def test_labeled_histogram_jsonl_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        for component in ("queue_wait", "transfer"):
            h = registry.histogram(
                "latency", bounds=(8.0, 64.0), component=component
            )
            h.observe(10.0)
            h.observe(100.0)
        registry.series("bytes", channel=0, bank=3).sample(0, 32.0)
        path = tmp_path / "m.jsonl"
        write_metrics_jsonl(path, registry)
        loaded = load_metrics_jsonl(path)
        assert loaded == registry
        clone = loaded.histogram(
            "latency", bounds=(8.0, 64.0), component="transfer"
        )
        assert clone.count == 2 and clone.sum == 110.0

    def test_prometheus_escapes_hostile_label_values(self):
        registry = MetricsRegistry()
        registry.counter(
            "c", path='back\\slash "quote"\nnewline'
        ).inc(1)
        text = to_prometheus(registry)
        line = next(
            l for l in text.splitlines()
            if l.startswith("repro_c{")
        )
        # One physical line, with the three specials escaped per the
        # text exposition format.
        assert line == (
            'repro_c{path="back\\\\slash \\"quote\\"\\nnewline"} 1'
        )


# --------------------------------------------------------------- telemetry


class TestTelemetryReconciliation:
    @pytest.mark.parametrize("window", [32, 64, 250])
    def test_windowed_stalls_sum_to_attribution(self, window):
        result, obs = run_instrumented(window=window)
        report = attribute_stalls(obs, cycles=result.cycles)
        for bucket in BUCKETS:
            series = obs.metrics.series(
                "telemetry.stall_cycles", bucket=bucket
            )
            assert series.total() == report.buckets[bucket], bucket
        busy = obs.metrics.series("telemetry.busy_cycles")
        assert busy.total() == report.busy

    def test_window_count_covers_run(self):
        result, obs = run_instrumented(window=64)
        busy = obs.metrics.series("telemetry.busy_cycles")
        expected = -(-result.cycles // 64)
        assert len(busy.samples) == expected
        # Samples are stamped at window starts: 0, 64, 128, ...
        assert [t for t, _ in busy.samples] == [
            64 * i for i in range(expected)
        ]

    def test_natural_order_controller_reconciles(self):
        obs = Instrumentation(telemetry_window=128)
        controller = NaturalOrderController(MemorySystemConfig.cli())
        result = controller.run(get_kernel("daxpy"), 256, obs=obs)
        report = attribute_stalls(obs, cycles=result.cycles)
        total_stall = sum(
            obs.metrics.series("telemetry.stall_cycles", bucket=b).total()
            for b in BUCKETS
        )
        assert total_stall == sum(report.buckets.values())

    def test_classify_intervals_match_buckets(self):
        result, obs = run_instrumented(window=64)
        report = attribute_stalls(obs, cycles=result.cycles)
        summed = {name: 0 for name in BUCKETS}
        for lo, hi, name in classify_stall_intervals(obs):
            summed[name] += hi - lo
        summed["drain"] = report.buckets["drain"]
        assert summed == report.buckets

    def test_utilization_and_bandwidth_series(self):
        _, obs = run_instrumented(window=64)
        util = obs.metrics.series("telemetry.data_bus_utilization")
        bw = obs.metrics.series("telemetry.effective_bandwidth_pct_peak")
        assert util.values(), "no utilization samples"
        assert all(0.0 <= v <= 1.0 for v in util.values())
        assert all(0.0 <= v <= 100.0 for v in bw.values())

    def test_fifo_and_bank_series_present(self):
        _, obs = run_instrumented(window=64)
        names = obs.metrics.names()
        assert "telemetry.fifo_occupancy" in names
        assert "telemetry.banks_open" in names
        assert "telemetry.bank_active_cycles" in names

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            Instrumentation(telemetry_window=0)
        with pytest.raises(ConfigurationError):
            RunSpec(kernel="copy", telemetry_window=-1)
        for window in ("64", True, 2.5):
            with pytest.raises(ConfigurationError, match="window.*integer"):
                Instrumentation(telemetry_window=window)
            with pytest.raises(ConfigurationError, match="window.*integer"):
                RunSpec(kernel="copy", telemetry_window=window)

    def test_build_windowed_series_needs_window(self):
        obs = Instrumentation()
        with pytest.raises(ConfigurationError):
            build_windowed_series(obs, cycles=128, last_data_end=100)


class TestTelemetryNeutrality:
    def test_attached_equals_detached_bit_for_bit(self):
        plain = simulate(RunSpec("daxpy", "cli", length=256))
        obs = Instrumentation(telemetry_window=64)
        watched = simulate(RunSpec("daxpy", "cli", length=256), obs=obs)
        assert watched.to_dict() == plain.to_dict()

    def test_spec_window_shares_cache_key(self):
        spec = RunSpec(kernel="copy", telemetry_window=64)
        bare = RunSpec(kernel="copy")
        assert spec.canonical_key() == bare.canonical_key()
        # ... but the window still survives serialization.
        assert RunSpec.from_dict(spec.to_dict()).telemetry_window == 64
        assert "telemetry_window" not in bare.to_dict()


# -------------------------------------------------------------- sweep stats


class TestSweepStats:
    def test_counts_and_summary(self):
        stats = SweepStats()
        stats.begin_batch(3, workers=1)
        stats.note_point(cached=True)
        stats.note_point(cached=False, wall_s=0.01)
        stats.note_point(cached=False, wall_s=0.02)
        stats.end_batch()
        assert stats.specs == 3
        assert stats.cache_hits == 1
        assert stats.cache_hit_rate == pytest.approx(1 / 3)
        summary = stats.summary()
        assert "3 specs" in summary
        assert "1 cache hits" in summary

    def test_progress_line_overwrites(self):
        buf = io.StringIO()
        stats = SweepStats(stream=buf)
        stats.begin_batch(2, workers=2)
        stats.note_point(cached=False, wall_s=0.01)
        stats.note_point(cached=False, wall_s=0.01)
        stats.end_batch()
        text = buf.getvalue()
        assert "sweep: 1/2 specs" in text
        assert "sweep: 2/2 specs" in text
        assert text.endswith("\r")  # line cleared at batch end

    def test_run_specs_reports_into_stats(self):
        stats = SweepStats()
        specs = [RunSpec(kernel="copy", length=64)] * 2
        run_specs(specs, stats=stats)
        assert stats.specs == 2
        assert stats.cache_hits == 0
        assert stats._wall.count == 2

    def test_run_specs_counts_cache_hits(self, tmp_path):
        from repro.exec.cache import ResultCache

        stats = SweepStats()
        cache = ResultCache(tmp_path)
        specs = [RunSpec(kernel="copy", length=64)]
        run_specs(specs, cache=cache, stats=stats)
        run_specs(specs, cache=cache, stats=stats)
        assert stats.specs == 2
        assert stats.cache_hits == 1


# ------------------------------------------------------------- metrics CLI


class TestMetricsCli:
    def write_file(self, tmp_path):
        registry = MetricsRegistry()
        s = registry.series("telemetry.data_bus_utilization")
        for i in range(8):
            s.sample(i * 64, i / 8)
        registry.counter("hits").inc(3)
        path = tmp_path / "m.jsonl"
        write_metrics_jsonl(path, registry)
        return path

    def test_list(self, tmp_path, capsys):
        path = self.write_file(tmp_path)
        assert obs_main(["list", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry.data_bus_utilization" in out
        assert "8 samples" in out

    def test_dump_prometheus(self, tmp_path, capsys):
        path = self.write_file(tmp_path)
        assert obs_main(["dump", str(path)]) == 0
        assert "repro_hits 3" in capsys.readouterr().out

    def test_plot_series(self, tmp_path, capsys):
        path = self.write_file(tmp_path)
        code = obs_main(
            ["plot", str(path), "telemetry.data_bus_utilization"]
        )
        assert code == 0
        assert "8 samples" in capsys.readouterr().out

    def test_plot_unknown_metric_errors(self, tmp_path, capsys):
        path = self.write_file(tmp_path)
        assert obs_main(["plot", str(path), "nope"]) == 1
        assert "known names" in capsys.readouterr().err

    def test_simulate_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        code = simulate_main(
            ["copy", "--length", "256", "--telemetry", "64",
             "--metrics-out", str(out)]
        )
        assert code == 0
        windows = re.search(
            r"telemetry +: (\d+) windows", capsys.readouterr().out
        )
        registry = load_metrics_jsonl(out)
        assert "telemetry.busy_cycles" in registry.names()
        busy = registry.series("telemetry.busy_cycles")
        assert len(busy.samples) == int(windows.group(1))


# ------------------------------------------------------------ bench compare


class TestBenchCompare:
    def make_report(self, tmp_path, name, cps):
        report = {
            "schema": "bench-core/2",
            "results": [
                {
                    "controller": "smc",
                    "kernel": "copy",
                    "organization": "cli",
                    "cycles_per_second": cps,
                }
            ],
        }
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return str(path)

    def test_within_tolerance_passes(self, tmp_path, capsys):
        sys.path.insert(0, "benchmarks")
        try:
            from bench_compare import main as compare_main
        finally:
            sys.path.pop(0)
        base = self.make_report(tmp_path, "base.json", 100_000)
        fresh = self.make_report(tmp_path, "fresh.json", 90_000)
        assert compare_main([base, fresh, "--tolerance", "0.25"]) == 0
        assert "OK: 1 points" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, capsys):
        sys.path.insert(0, "benchmarks")
        try:
            from bench_compare import main as compare_main
        finally:
            sys.path.pop(0)
        base = self.make_report(tmp_path, "base.json", 100_000)
        fresh = self.make_report(tmp_path, "fresh.json", 60_000)
        assert compare_main([base, fresh, "--tolerance", "0.25"]) == 1
        assert "REGRESSION" in capsys.readouterr().out
