"""Append-only run ledger: one JSONL event per lifecycle transition.

The exec pool reports *transient* progress (a stderr line, a callback);
the ledger is its *durable* counterpart — an append-only JSONL file in
which every sweep point leaves a timestamped trail of lifecycle events:

``queued``
    The point entered a :func:`~repro.exec.pool.run_specs` batch.
``cache_hit``
    The point was served from the result cache without simulating.
``dispatched``
    The point was handed to a backend (a pool worker or the in-process
    serial path).
``started``
    Simulation of the point began (for pooled runs the start time is
    reconstructed on the parent's clock from the worker's wall time).
``retried``
    A worker crash forced the point back into the queue; ``attempt``
    counts how many crashes it has been involved in.
``completed``
    The point finished; ``wall_s`` is the in-worker simulation time.
``failed``
    Crashes exhausted the point's retry budget.

Every event carries a monotonic timestamp ``t`` (seconds since the
writer opened), the batch number, the point's index within its batch,
and its canonical cache key, so a reader can reconstruct exactly which
specs ran, which were cache hits, and where the wall-clock went —
without having watched the run.  Two meta events frame the stream:
``ledger_open`` (one per writer, with wall-clock provenance) and
``batch`` (one per :func:`~repro.exec.pool.run_specs` call).

Writing is opt-in and bit-neutral: the ledger only ever *observes* a
run (results, cache keys, and cache contents are untouched), the same
contract ``telemetry_window`` obeys.  Enable it ambiently::

    from repro.exec import execution
    with execution(workers=4, ledger="run.jsonl"):
        sweep.run()

or via ``repro-experiments --ledger run.jsonl``, then read it back::

    from repro.obs.ledger import Ledger
    ledger = Ledger.load("run.jsonl")
    print(ledger.summary())
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ObservabilityError

#: Lifecycle event names, in the order a spec can emit them.
LIFECYCLE_EVENTS = (
    "queued",
    "cache_hit",
    "dispatched",
    "started",
    "retried",
    "completed",
    "failed",
)

#: Stream-framing events (not part of any one spec's lifecycle).
#: ``generation`` frames one policy-search generation (see
#: :mod:`repro.search`).
META_EVENTS = ("ledger_open", "batch", "generation")

#: Events that end a spec's lifecycle.
TERMINAL_EVENTS = ("cache_hit", "completed", "failed")

#: Current on-disk schema version, written into ``ledger_open``.
LEDGER_VERSION = 1


class LedgerWriter:
    """Appends lifecycle events to a JSONL file as they happen.

    Each record is flushed immediately, so a crashed or killed run
    still leaves a readable trail up to its last event.  Writers only
    ever append; pointing two runs at the same path yields one file
    with two ``ledger_open`` framings, which :class:`Ledger` reads as
    two runs.

    Args:
        path: JSONL file to append to (created if missing).
    """

    def __init__(self, path: Union[str, "os.PathLike[str]"]) -> None:
        self.path = os.fspath(path)
        try:
            self._file: Optional[IO[str]] = open(
                self.path, "a", encoding="utf-8"
            )
        except OSError as error:
            raise ObservabilityError(
                f"cannot open ledger file: {error}"
            ) from None
        self._epoch = time.monotonic()
        self._batches = 0
        self.events = 0
        self._write(
            {
                "event": "ledger_open",
                "t": 0.0,
                "version": LEDGER_VERSION,
                "pid": os.getpid(),
                "utc": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
            }
        )

    def now(self) -> float:
        """Seconds of monotonic time since the writer opened."""
        return time.monotonic() - self._epoch

    def begin_batch(self, total: int, workers: int) -> int:
        """Frame a new batch; returns its number (0-based per writer)."""
        batch = self._batches
        self._batches += 1
        self.record("batch", batch=batch, total=total, workers=workers)
        return batch

    def record(
        self, event: str, t: Optional[float] = None, **fields: object
    ) -> float:
        """Append one event; returns the timestamp written.

        Args:
            event: One of :data:`LIFECYCLE_EVENTS` or
                :data:`META_EVENTS`.
            t: Explicit timestamp (seconds since open); defaults to
                :meth:`now`.  Used to back-date ``started`` events
                reconstructed from worker wall times.
            **fields: Event payload (batch, index, key, worker, ...).
        """
        if event not in LIFECYCLE_EVENTS and event not in META_EVENTS:
            raise ObservabilityError(f"unknown ledger event {event!r}")
        stamp = self.now() if t is None else t
        self._write({"event": event, "t": round(stamp, 6), **fields})
        return stamp

    def _write(self, record: Dict[str, object]) -> None:
        if self._file is None:
            raise ObservabilityError(
                f"ledger {self.path!r} is closed; no further events "
                "can be recorded"
            )
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()
        self.events += 1

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LedgerWriter({self.path!r}, events={self.events})"


@dataclass(frozen=True)
class LedgerEvent:
    """One parsed ledger record.

    Attributes:
        event: Event name (see module docstring).
        t: Monotonic seconds since the writer opened.
        run: Which ``ledger_open`` framing the event belongs to
            (0-based), for files appended to by several runs.
        fields: The remaining payload, verbatim.
    """

    event: str
    t: float
    run: int
    fields: Mapping[str, Any] = field(default_factory=dict)

    @property
    def batch(self) -> Optional[int]:
        value = self.fields.get("batch")
        return None if value is None else int(value)

    @property
    def index(self) -> Optional[int]:
        value = self.fields.get("index")
        return None if value is None else int(value)

    @property
    def key(self) -> Optional[str]:
        value = self.fields.get("key")
        return None if value is None else str(value)

    @property
    def label(self) -> Optional[str]:
        value = self.fields.get("label")
        return None if value is None else str(value)

    @property
    def worker(self) -> Optional[str]:
        value = self.fields.get("worker")
        return None if value is None else str(value)

    @property
    def wall_s(self) -> Optional[float]:
        value = self.fields.get("wall_s")
        return None if value is None else float(value)


#: A spec occurrence is identified by (run, batch, index): the same
#: canonical key may legitimately appear in many batches.
LifecycleKey = Tuple[int, int, int]


@dataclass(frozen=True)
class BatchSummary:
    """Per-batch critical-path digest.

    Attributes:
        run: ``ledger_open`` framing the batch belongs to.
        batch: Batch number within its run.
        total: Points in the batch (from the ``batch`` event).
        cache_hits: Points served from the cache.
        completed: Points simulated to completion.
        failed: Points that exhausted their retry budget.
        elapsed_s: First ``queued`` to last terminal event.
        critical_label: Label (or key) of the point whose completion
            ended the batch — the batch's critical path.
        critical_wall_s: That point's in-worker wall time.
    """

    run: int
    batch: int
    total: int
    cache_hits: int
    completed: int
    failed: int
    elapsed_s: float
    critical_label: Optional[str]
    critical_wall_s: Optional[float]


class Ledger:
    """A parsed ledger file, with lifecycle and utilization views."""

    def __init__(self, events: Sequence[LedgerEvent]) -> None:
        self.events: List[LedgerEvent] = list(events)

    @classmethod
    def load(cls, path: Union[str, "os.PathLike[str]"]) -> "Ledger":
        """Parse a :class:`LedgerWriter` file."""
        name = os.fspath(path)
        try:
            with open(name, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise ObservabilityError(
                f"cannot read ledger file: {error}"
            ) from None
        except UnicodeDecodeError as error:
            raise ObservabilityError.malformed(name, "text file", error) from None
        events: List[LedgerEvent] = []
        run = -1
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                event = str(record.pop("event"))
                t = float(record.pop("t", 0.0))
            except ObservabilityError.MALFORMED as error:
                raise ObservabilityError.malformed(
                    f"{name}:{number}", "JSONL ledger record", error
                ) from None
            if event == "ledger_open":
                run += 1
            if run < 0:
                raise ObservabilityError(
                    f"{name}:{number}: event before any ledger_open"
                )
            events.append(
                LedgerEvent(event=event, t=t, run=run, fields=record)
            )
        return cls(events)

    # -- basic views ----------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Event occurrences by name."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.event] = out.get(event.event, 0) + 1
        return out

    @property
    def runs(self) -> int:
        """Number of ``ledger_open`` framings in the file."""
        return sum(1 for e in self.events if e.event == "ledger_open")

    @property
    def cache_hits(self) -> int:
        """Points served from the cache."""
        return self.counts().get("cache_hit", 0)

    def spec_keys(self) -> List[str]:
        """Canonical keys of every queued point, in queue order."""
        return [
            e.key
            for e in self.events
            if e.event == "queued" and e.key is not None
        ]

    def lifecycles(self) -> Dict[LifecycleKey, List[LedgerEvent]]:
        """Lifecycle events grouped per (run, batch, index) occurrence."""
        out: Dict[LifecycleKey, List[LedgerEvent]] = {}
        for event in self.events:
            if event.event not in LIFECYCLE_EVENTS:
                continue
            if event.batch is None or event.index is None:
                continue
            key = (event.run, event.batch, event.index)
            out.setdefault(key, []).append(event)
        return out

    # -- invariants -----------------------------------------------------

    def verify(self) -> List[str]:
        """Check lifecycle invariants; returns human-readable problems.

        An empty list means the ledger is well-formed: every occurrence
        starts with ``queued``, timestamps never run backwards within a
        lifecycle, a terminal event (``cache_hit`` / ``completed`` /
        ``failed``) appears at most once and nothing follows it, and
        ``started`` is always preceded by ``dispatched``.
        """
        problems: List[str] = []
        for key, events in sorted(self.lifecycles().items()):
            where = "run {0} batch {1} index {2}".format(*key)
            if events[0].event != "queued":
                problems.append(
                    f"{where}: first event is {events[0].event!r}, "
                    "not 'queued'"
                )
            last_t = None
            seen: List[str] = []
            for event in events:
                if last_t is not None and event.t < last_t:
                    problems.append(
                        f"{where}: {event.event!r} at t={event.t} runs "
                        f"backwards past t={last_t}"
                    )
                last_t = event.t
                if seen and seen[-1] in TERMINAL_EVENTS:
                    problems.append(
                        f"{where}: {event.event!r} follows terminal "
                        f"{seen[-1]!r}"
                    )
                if event.event == "started" and "dispatched" not in seen:
                    problems.append(
                        f"{where}: 'started' without a prior 'dispatched'"
                    )
                seen.append(event.event)
            terminals = [e for e in seen if e in TERMINAL_EVENTS]
            if len(terminals) > 1:
                problems.append(
                    f"{where}: {len(terminals)} terminal events {terminals}"
                )
        return problems

    # -- time accounting ------------------------------------------------

    def worker_busy(self) -> Dict[str, float]:
        """Seconds each worker spent simulating (summed ``wall_s``)."""
        busy: Dict[str, float] = {}
        for event in self.events:
            if event.event != "completed":
                continue
            worker = event.worker or "?"
            busy[worker] = busy.get(worker, 0.0) + (event.wall_s or 0.0)
        return busy

    def elapsed_s(self) -> float:
        """First to last lifecycle event, across all runs and batches."""
        stamps = [
            e.t for e in self.events if e.event in LIFECYCLE_EVENTS
        ]
        return (max(stamps) - min(stamps)) if stamps else 0.0

    def worker_utilization(self) -> Dict[str, float]:
        """Fraction of the ledger's elapsed span each worker was busy."""
        elapsed = self.elapsed_s()
        if elapsed <= 0.0:
            return {worker: 0.0 for worker in self.worker_busy()}
        return {
            worker: min(1.0, busy / elapsed)
            for worker, busy in self.worker_busy().items()
        }

    def batch_summaries(self) -> List[BatchSummary]:
        """Critical-path digest of every batch, in stream order."""
        frames: Dict[Tuple[int, int], int] = {}
        for event in self.events:
            if event.event == "batch" and event.batch is not None:
                frames[(event.run, event.batch)] = int(
                    event.fields.get("total", 0)
                )
        grouped: Dict[Tuple[int, int], List[LedgerEvent]] = {}
        for event in self.events:
            if event.event not in LIFECYCLE_EVENTS:
                continue
            if event.batch is None:
                continue
            grouped.setdefault((event.run, event.batch), []).append(event)
        labels: Dict[LifecycleKey, str] = {}
        for key, events in self.lifecycles().items():
            for event in events:
                if event.label is not None:
                    labels[key] = event.label
                    break
                if event.key is not None:
                    labels.setdefault(key, event.key)
        summaries: List[BatchSummary] = []
        for (run, batch), events in sorted(grouped.items()):
            terminals = [e for e in events if e.event in TERMINAL_EVENTS]
            first = min(e.t for e in events)
            critical = max(terminals, key=lambda e: e.t, default=None)
            critical_key: Optional[LifecycleKey] = None
            if critical is not None and critical.index is not None:
                critical_key = (run, batch, critical.index)
            summaries.append(
                BatchSummary(
                    run=run,
                    batch=batch,
                    total=frames.get(
                        (run, batch),
                        len({e.index for e in events}),
                    ),
                    cache_hits=sum(
                        1 for e in events if e.event == "cache_hit"
                    ),
                    completed=sum(
                        1 for e in events if e.event == "completed"
                    ),
                    failed=sum(1 for e in events if e.event == "failed"),
                    elapsed_s=(
                        max(e.t for e in terminals) - first
                        if terminals
                        else 0.0
                    ),
                    critical_label=(
                        labels.get(critical_key)
                        if critical_key is not None
                        else None
                    ),
                    critical_wall_s=(
                        critical.wall_s if critical is not None else None
                    ),
                )
            )
        return summaries

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        counts = self.counts()
        lines = [
            "ledger: {0} events, {1} run(s), {2} batch(es)".format(
                len(self.events),
                self.runs,
                counts.get("batch", 0),
            ),
            "  queued {0}, cache hits {1}, completed {2}, failed {3}, "
            "retried {4}".format(
                counts.get("queued", 0),
                counts.get("cache_hit", 0),
                counts.get("completed", 0),
                counts.get("failed", 0),
                counts.get("retried", 0),
            ),
        ]
        utilization = self.worker_utilization()
        for worker in sorted(utilization):
            lines.append(
                f"  worker {worker}: "
                f"{self.worker_busy()[worker]:.3f}s busy "
                f"({utilization[worker]:.0%} of span)"
            )
        for batch in self.batch_summaries():
            critical = (
                f"; critical path {batch.critical_label}"
                + (
                    f" ({batch.critical_wall_s:.3f}s)"
                    if batch.critical_wall_s is not None
                    else ""
                )
                if batch.critical_label is not None
                else ""
            )
            lines.append(
                f"  batch {batch.run}/{batch.batch}: {batch.total} point(s), "
                f"{batch.cache_hits} cached, {batch.completed} simulated "
                f"in {batch.elapsed_s:.3f}s{critical}"
            )
        return "\n".join(lines)


#: Signature of the pool's internal event emitter (see exec.pool).
LedgerNote = Callable[..., Optional[float]]
