"""Tests for the append-only run ledger.

Covers the lifecycle invariants (first event queued, monotonic
timestamps, nothing after a terminal event), replay reconstruction
(the ledger alone recovers the spec set and cache-hit count),
bit-neutrality (a ledgered run changes no results and no cache keys),
the crash/retry path, and multiple runs appended to one file.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ExecutionError, ObservabilityError
from repro.exec import ResultCache, execution, run_specs
from repro.exec import pool as pool_module
from repro.obs.ledger import Ledger, LedgerWriter
from repro.sim.runner import RunSpec

SPECS = [
    RunSpec(kernel="copy", length=length, stride=stride)
    for length in (128, 256)
    for stride in (1, 2)
]


class TestWriter:
    def test_opens_with_versioned_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with LedgerWriter(path) as writer:
            writer.record("queued", batch=0, index=0, key="k")
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert lines[0]["event"] == "ledger_open"
        assert lines[0]["version"] == 1
        assert lines[0]["pid"] == os.getpid()
        assert lines[1]["event"] == "queued"

    def test_rejects_unknown_event(self, tmp_path):
        with LedgerWriter(tmp_path / "run.jsonl") as writer:
            with pytest.raises(ObservabilityError):
                writer.record("teleported", batch=0, index=0)

    def test_rejects_writes_after_close(self, tmp_path):
        writer = LedgerWriter(tmp_path / "run.jsonl")
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(ObservabilityError):
            writer.record("queued", batch=0, index=0)

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(ObservabilityError):
            LedgerWriter(tmp_path / "missing-dir" / "run.jsonl")


class TestReader:
    def test_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ObservabilityError):
            Ledger.load(path)

    def test_rejects_event_before_open(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"event": "queued", "t": 0.0}) + "\n")
        with pytest.raises(ObservabilityError):
            Ledger.load(path)


class TestSweepLifecycle:
    def _run(self, tmp_path, workers):
        path = tmp_path / "run.jsonl"
        cache = ResultCache(tmp_path / "cache")
        with execution(workers=workers, cache=cache, ledger=path):
            cold = run_specs(SPECS)
            warm = run_specs(SPECS)
        assert cold == warm
        return Ledger.load(path), cache

    @pytest.mark.parametrize("workers", [1, 2])
    def test_invariants_and_counts(self, tmp_path, workers):
        ledger, _ = self._run(tmp_path, workers)
        assert ledger.verify() == []
        counts = ledger.counts()
        assert counts["queued"] == 2 * len(SPECS)
        assert counts["completed"] == len(SPECS)
        assert counts["cache_hit"] == len(SPECS)
        assert counts["batch"] == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_replay_reconstructs_run(self, tmp_path, workers):
        ledger, cache = self._run(tmp_path, workers)
        # The ledger alone recovers the executed spec set...
        expected = [spec.canonical_key() for spec in SPECS]
        assert ledger.spec_keys() == expected + expected
        # ...and the cache-hit count agrees with the cache itself.
        assert ledger.cache_hits == cache.hits

    def test_bit_neutral(self, tmp_path):
        plain = run_specs(SPECS)
        with execution(ledger=tmp_path / "run.jsonl"):
            ledgered = run_specs(SPECS)
        assert plain == ledgered

    def test_worker_utilization_and_critical_path(self, tmp_path):
        ledger, _ = self._run(tmp_path, workers=2)
        utilization = ledger.worker_utilization()
        assert utilization
        assert all(0.0 <= u <= 1.0 for u in utilization.values())
        batches = ledger.batch_summaries()
        assert len(batches) == 2
        assert batches[0].completed == len(SPECS)
        assert batches[0].critical_label is not None
        assert batches[1].cache_hits == len(SPECS)
        assert "critical path" in ledger.summary()

    def test_multiple_runs_in_one_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        for _ in range(2):
            with execution(ledger=path):
                run_specs(SPECS[:2])
        ledger = Ledger.load(path)
        assert ledger.runs == 2
        assert ledger.verify() == []
        assert ledger.counts()["queued"] == 4


class TestCrashPath:
    def test_retried_and_failed_events(self, tmp_path, monkeypatch):
        path = tmp_path / "run.jsonl"
        monkeypatch.setenv("REPRO_EXEC_CRASH_KERNEL", "copy")
        with pytest.raises(Exception):
            with execution(workers=2, ledger=path):
                run_specs(SPECS, retries=1)
        ledger = Ledger.load(path)
        counts = ledger.counts()
        assert counts.get("retried", 0) > 0
        assert counts.get("failed", 0) > 0
        assert ledger.verify() == []

    def test_submit_time_crash_is_retried_then_fails(
        self, tmp_path, monkeypatch
    ):
        # A pool whose worker died refuses new work: submit() raises
        # BrokenProcessPool itself.  Each pool here breaks on its second
        # submit, so every pool lands one point and the rest are charged
        # an attempt, as for a crash seen through a future.
        class BreaksOnSecondSubmit(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.submits = 0

            def submit(self, *args, **kwargs):
                self.submits += 1
                if self.submits == 2:
                    raise BrokenProcessPool("worker died during submit")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(
            pool_module, "ProcessPoolExecutor", BreaksOnSecondSubmit
        )
        path = tmp_path / "run.jsonl"
        with pytest.raises(ExecutionError, match="crashed 2 times"):
            with execution(workers=2, ledger=path):
                run_specs(SPECS, retries=1)
        ledger = Ledger.load(path)
        counts = ledger.counts()
        assert counts["completed"] == 2
        assert counts["retried"] == len(SPECS) - 1
        assert counts["failed"] == len(SPECS) - 2
        assert ledger.verify() == []

    def test_crash_once_recovers_with_retried_event(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.jsonl"
        monkeypatch.setenv("REPRO_EXEC_CRASH_KERNEL", "copy")
        monkeypatch.setenv(
            "REPRO_EXEC_CRASH_ONCE", str(tmp_path / "crashed")
        )
        with execution(workers=2, ledger=path):
            results = run_specs(SPECS)
        assert all(result is not None for result in results)
        ledger = Ledger.load(path)
        counts = ledger.counts()
        assert counts["completed"] == len(SPECS)
        assert counts.get("retried", 0) > 0
        assert counts.get("failed", 0) == 0
        assert ledger.verify() == []
