"""Core instrumentation primitives: counters, gauges, and events.

The observability layer is *opt-in and zero-cost when disabled*: every
instrumented component holds an ``obs`` attribute that defaults to
``None``, and each hook is guarded by a single ``if self.obs is not
None`` check, so uninstrumented runs pay one predictable branch per
hook site and allocate nothing.  To instrument a run, construct an
:class:`Instrumentation` and pass it to
:func:`repro.sim.engine.run_smc` (or
:func:`repro.sim.runner.simulate`, or
:class:`repro.naturalorder.controller.NaturalOrderController`); that
entry point wires it to the components of its run and closes their
observations when the run ends.

Three kinds of data are collected:

* **Counters and gauges** (:class:`CounterRegistry`) — monotonic named
  counts (packets issued, activations, refreshes) and time-stamped
  value samples (FIFO occupancy over time).
* **Events** (:class:`EventTracer`) — named, timestamped
  :class:`SpanEvent` intervals and :class:`InstantEvent` points on
  named tracks ("msu", "cpu", "bank3", "refresh", ...), exportable to
  Chrome/Perfetto trace JSON.
* **DATA-bus gaps** (:class:`DataBusGap`) — one record per idle
  interval on the DATA bus, carrying the constraint decomposition the
  device computed when it scheduled the access that ended the gap.
  The device appends them to its ``gap_log`` list, which attaching an
  Instrumentation points at :attr:`Instrumentation.gaps` (the traffic
  layer points it at a list of its own instead).  The
  stall-attribution pass (:mod:`repro.obs.attribution`) turns these
  into an exact cycle-by-cycle account of where bandwidth went.

All timestamps are interface-clock cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError, require_int
from repro.obs.metrics import MetricsRegistry


class CounterRegistry:
    """Named monotonic counters and time-stamped gauge series."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, List[Tuple[int, float]]] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (zero if never touched)."""
        return self._counters.get(name, 0)

    def sample_gauge(self, name: str, cycle: int, value: float) -> None:
        """Append one (cycle, value) sample to gauge ``name``."""
        self._gauges.setdefault(name, []).append((cycle, value))

    @property
    def counters(self) -> Dict[str, int]:
        """All counters, by name."""
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, List[Tuple[int, float]]]:
        """All gauge series, by name."""
        return {name: list(series) for name, series in self._gauges.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CounterRegistry):
            return NotImplemented
        return (
            self._counters == other._counters
            and self._gauges == other._gauges
        )


@dataclass(frozen=True, eq=True)
class SpanEvent:
    """A named interval on a track.

    Attributes:
        track: Logical timeline the span belongs to ("msu", "cpu",
            "bank0"..., "refresh", "controller").
        name: Event name ("RD x", "idle:fifo", "row 12", ...).
        start: First cycle of the span.
        end: First cycle after the span.
        args: Extra key/value detail carried into exports.
    """

    track: str
    name: str
    start: int
    end: int
    args: Tuple[Tuple[str, object], ...] = ()

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True, eq=True)
class InstantEvent:
    """A named point event on a track."""

    track: str
    name: str
    cycle: int
    args: Tuple[Tuple[str, object], ...] = ()


class EventTracer:
    """Collects span and instant events in emission order."""

    def __init__(self) -> None:
        self.spans: List[SpanEvent] = []
        self.instants: List[InstantEvent] = []

    def add_span(
        self, track: str, name: str, start: int, end: int, **args: object
    ) -> None:
        """Record a finished span (``end`` is exclusive)."""
        self.spans.append(
            SpanEvent(
                track=track,
                name=name,
                start=start,
                end=end,
                args=tuple(sorted(args.items())),
            )
        )

    def add_instant(
        self, track: str, name: str, cycle: int, **args: object
    ) -> None:
        """Record a point event."""
        self.instants.append(
            InstantEvent(
                track=track,
                name=name,
                cycle=cycle,
                args=tuple(sorted(args.items())),
            )
        )

    def spans_on(self, track: str, prefix: str = "") -> List[SpanEvent]:
        """Spans on ``track`` whose name starts with ``prefix``."""
        return [
            span
            for span in self.spans
            if span.track == track and span.name.startswith(prefix)
        ]

    def tracks(self) -> List[str]:
        """All track names, in first-appearance order."""
        seen: Dict[str, None] = {}
        for event in (*self.spans, *self.instants):
            seen.setdefault(event.track, None)
        return list(seen)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventTracer):
            return NotImplemented
        return self.spans == other.spans and self.instants == other.instants


class DataBusGap(NamedTuple):
    """One idle interval on the DATA bus, with its constraint bounds.

    Recorded by the device model when it schedules a DATA packet that
    starts after the bus went idle.  Each ``*_until`` field is the
    first cycle at which the corresponding constraint stopped blocking
    the transfer; the gap's end is the maximum of them (and of
    ``start``), which is exactly how the device schedules.  The
    stall-attribution pass partitions ``[start, end)`` using these
    bounds.  A named tuple rather than a dataclass: the device builds
    one per idle interval, and a tuple builds about three times faster.

    Attributes:
        start: First idle cycle (end of the previous DATA packet, or 0).
        end: Start cycle of the DATA packet that ended the gap.
        bank: Bank served by the access that ended the gap.
        direction: "read" or "write".
        turnaround_until: Write-to-read t_RW bound (== ``start`` when
            no turnaround applied).
        bank_until: Bank readiness bound — the earliest the bank's
            activate/precharge/t_RCD state allowed data, regardless of
            when the controller asked.
        colbus_until: COL command-bus occupancy bound.
        request_until: Earliest data had the device been entirely
            unconstrained — the controller's request cycle plus the
            fixed command-to-data pipeline delay.  Idle cycles beyond
            every device bound but below this one are the controller's
            (FIFO stalls, pacing, refresh interference).
    """

    start: int
    end: int
    bank: int
    direction: str
    turnaround_until: int
    bank_until: int
    colbus_until: int
    request_until: int

    @property
    def length(self) -> int:
        return self.end - self.start


class Instrumentation:
    """One run's worth of observability state.

    Create one, pass it to a simulation entry point, then hand it to
    :func:`repro.obs.attribution.attribute_stalls` or the exporters in
    :mod:`repro.obs.export`.

    Attributes:
        counters: Named counters and gauges.
        tracer: Span/instant event collector.
        gaps: DATA-bus idle records, in bus order.
        meta: Run metadata filled in by the engine (kernel,
            organization, cycles, last_data_end, t_pack, t_rw, ...).
        metrics: Time-series registry (:mod:`repro.obs.metrics`) that
            telemetry samples and windowed series land in.
        telemetry_window: Sampling period in cycles; when set, the
            engine builds windowed series after the run, and an SMC
            run (:func:`~repro.sim.engine.run_smc`) also wires a
            :class:`~repro.obs.telemetry.TelemetryProbe` sampling its
            MSU.  None (the default) disables both — runs pay nothing.
    """

    def __init__(self, telemetry_window: Optional[int] = None) -> None:
        window = telemetry_window
        if window is not None and require_int("telemetry window", window) < 1:
            raise ConfigurationError(
                f"telemetry window must be positive, got {window}"
            )
        self.counters = CounterRegistry()
        self.tracer = EventTracer()
        self.gaps: List[DataBusGap] = []
        self.meta: Dict[str, object] = {}
        self.metrics = MetricsRegistry()
        self.telemetry_window = telemetry_window

    def __eq__(self, other: object) -> bool:
        """Equality over the *simulation-determined* record — counters,
        events, and gaps — deliberately ignoring the metrics registry,
        so a telemetry-attached run compares equal to a detached one
        (the basis of the bit-for-bit equivalence tests)."""
        if not isinstance(other, Instrumentation):
            return NotImplemented
        return (
            self.counters == other.counters
            and self.tracer == other.tracer
            and self.gaps == other.gaps
        )


def merge_intervals(
    intervals: Iterable[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Merge possibly-overlapping [start, end) intervals, sorted."""
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def overlap(
    lo: int, hi: int, merged: List[Tuple[int, int]]
) -> int:
    """Total cycles of [lo, hi) covered by merged intervals."""
    covered = 0
    for start, end in merged:
        if start >= hi:
            break
        covered += max(0, min(hi, end) - max(lo, start))
    return covered
