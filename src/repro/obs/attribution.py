"""Stall attribution: an exact account of every DATA-bus cycle.

The paper's whole argument is about where cycles go — bus turnarounds,
precharge/activate latency, FIFO stalls — so this pass classifies
*every* cycle of a run into exactly one bucket:

``busy``
    The DATA bus carried a packet.
``turnaround``
    Idle under the write-to-read t_RW turnaround (these agree exactly
    with :attr:`repro.sim.metrics.TraceMetrics.turnaround_cycles`).
``refresh``
    Idle while a background refresh held the row bus or a bank.
``precharge_activate``
    Idle waiting on bank state: a precharge and/or activate (plus
    t_RCD) had to complete before the next column access.  The run's
    startup latency lands here.
``command_bus``
    Idle because the COL command bus was occupied.
``fifo``
    The device was ready but the MSU had no serviceable FIFO: every
    read FIFO was full (or covered by in-flight data) and every write
    FIFO lacked a full packet.
``scheduler_idle``
    The device was ready and some FIFO was serviceable, but the
    controller had not asked yet — decision pacing and the fixed
    command-to-data pipeline of a late request.
``drain``
    After the last DATA packet: the processor draining the read FIFOs'
    remaining elements.

The buckets plus ``busy`` sum *exactly* to the run's total cycles;
:func:`attribute_stalls` raises
:class:`~repro.errors.ObservabilityError` if they do not, so the
accounting can never silently drift from the simulator.

Mechanically: the device records one :class:`~repro.obs.core.DataBusGap`
per idle interval, carrying the first cycle at which each scheduling
constraint stopped blocking the access that ended the gap.  Each gap is
partitioned front to back by :func:`partition_gap` — the leading
``min(gap, t_RW)`` cycles of a write-to-read flip are turnaround, then
cycles covered by a refresh span are refresh, then cycles below the
bank-readiness bound are precharge/activate, then command-bus cycles —
and the controller-side remainder is split into ``fifo`` and
``scheduler_idle`` using the MSU's recorded idle spans.  The traffic
layer's per-request latency attribution
(:mod:`repro.traffic.driver`) takes the same cycles per cause from
:func:`partition_gap_sums`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.core import DataBusGap, Instrumentation, merge_intervals

#: Bucket names in reporting order (``busy`` and ``total`` are
#: presented alongside but are not stall buckets).
BUCKETS = (
    "turnaround",
    "refresh",
    "precharge_activate",
    "command_bus",
    "fifo",
    "scheduler_idle",
    "drain",
)

_DESCRIPTIONS = {
    "busy": "DATA packets on the bus",
    "turnaround": "write-to-read t_RW turnarounds",
    "refresh": "background refresh interference",
    "precharge_activate": "precharge/activate (+t_RCD) latency",
    "command_bus": "COL command-bus occupancy",
    "fifo": "no serviceable FIFO (full reads / empty writes)",
    "scheduler_idle": "controller pacing and request latency",
    "drain": "processor draining FIFOs after the last packet",
}


@dataclass(frozen=True)
class StallAttribution:
    """Exact decomposition of a run's cycles.

    Attributes:
        cycles: The run's total cycles (``SimulationResult.cycles``).
        busy: Cycles the DATA bus carried packets.
        buckets: Idle cycles per stall bucket (see module docstring).
    """

    cycles: int
    busy: int
    buckets: Dict[str, int]

    @property
    def total(self) -> int:
        """busy + all buckets; equals :attr:`cycles` by construction."""
        return self.busy + sum(self.buckets.values())

    @property
    def idle(self) -> int:
        """Total idle DATA-bus cycles."""
        return self.cycles - self.busy

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form embedded in exports."""
        return {
            "cycles": self.cycles,
            "busy": self.busy,
            "buckets": dict(self.buckets),
        }

    def table(self) -> str:
        """Human-readable bucket table."""
        return format_stall_table(self.as_dict())


@dataclass(frozen=True)
class AccessMix:
    """Row-buffer outcome rates for an instrumented run.

    Every column access the device issues is classified at the shared
    access path (:meth:`repro.rdram.device.RdramDevice.issue_access`):
    a *page hit* found its row already open, a *page miss* had to
    activate, and a miss that additionally had to precharge a different
    open row first is also a *bank conflict*.  The page-management
    policy layer exists to move these rates, so they are first-class
    observables.

    Attributes:
        page_hits: Accesses whose row was already open.
        page_misses: Accesses that activated a row.
        bank_conflicts: Precharges forced by conflicting open rows
            (target bank or a doubled-bank neighbor).
        autocloses: Precharges a runtime page manager issued on its
            own (e.g. the timeout policy's expiries).
    """

    page_hits: int
    page_misses: int
    bank_conflicts: int
    autocloses: int

    @property
    def accesses(self) -> int:
        """Total classified column accesses."""
        return self.page_hits + self.page_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served from an open row."""
        return self.page_hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that activated."""
        return self.page_misses / self.accesses if self.accesses else 0.0

    @property
    def conflict_rate(self) -> float:
        """Forced precharges per access (can exceed miss_rate's share
        contribution on doubled-bank parts, where one access may close
        both a target row and a neighbor)."""
        return self.bank_conflicts / self.accesses if self.accesses else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form embedded in exports and reports."""
        return {
            "page_hits": self.page_hits,
            "page_misses": self.page_misses,
            "bank_conflicts": self.bank_conflicts,
            "autocloses": self.autocloses,
            "page_hit_rate": self.hit_rate,
            "page_miss_rate": self.miss_rate,
            "bank_conflict_rate": self.conflict_rate,
        }

    def summary(self) -> str:
        """One-line human-readable rate report."""
        return (
            f"{self.accesses} accesses: "
            f"{self.hit_rate:.1%} page hits, "
            f"{self.miss_rate:.1%} page misses, "
            f"{self.conflict_rate:.1%} bank conflicts"
            + (f", {self.autocloses} autocloses" if self.autocloses else "")
        )


def access_mix(obs: Instrumentation) -> AccessMix:
    """The run's row-buffer outcome rates, from the device counters.

    Args:
        obs: Instrumentation attached to a completed run.

    Returns:
        The access mix; all-zero if the run issued no accesses through
        the shared access path.
    """
    return AccessMix(
        page_hits=obs.counters.get("device.page_hits"),
        page_misses=obs.counters.get("device.page_misses"),
        bank_conflicts=obs.counters.get("device.bank_conflicts"),
        autocloses=obs.counters.get("device.autoclose"),
    )


def format_stall_table(stalls: Mapping[str, object]) -> str:
    """Render a stalls dict (see :meth:`StallAttribution.as_dict`)."""
    cycles = int(stalls["cycles"])  # type: ignore[arg-type]
    busy = int(stalls["busy"])  # type: ignore[arg-type]
    buckets: Mapping[str, int] = stalls["buckets"]  # type: ignore[assignment]
    lines = ["stall attribution (DATA-bus cycles):"]

    def row(name: str, count: int) -> str:
        share = 100.0 * count / cycles if cycles else 0.0
        return (
            f"  {name:<20s} {count:>8d}  {share:6.2f}%"
            f"  {_DESCRIPTIONS.get(name, '')}"
        )

    lines.append(row("busy", busy))
    for name in BUCKETS:
        lines.append(row(name, int(buckets.get(name, 0))))
    total = busy + sum(int(buckets.get(name, 0)) for name in BUCKETS)
    lines.append(f"  {'total':<20s} {total:>8d}  ==  {cycles} run cycles")
    return "\n".join(lines)


def attribute_stalls(
    obs: Instrumentation,
    cycles: Optional[int] = None,
    last_data_end: Optional[int] = None,
) -> StallAttribution:
    """Classify every cycle of an instrumented run.

    Args:
        obs: Instrumentation from a completed run (the engine fills in
            the required ``cycles`` / ``last_data_end`` metadata).
        cycles: Override the run's total cycles.
        last_data_end: Override the end of the last DATA packet.

    Returns:
        The attribution; ``busy`` plus the buckets sums exactly to
        ``cycles``.

    Raises:
        ObservabilityError: If required metadata is missing or the
            accounting does not close (which would indicate an
            instrumentation bug, not a slow run).
    """
    if cycles is None:
        cycles = obs.meta.get("cycles")  # type: ignore[assignment]
    if last_data_end is None:
        last_data_end = obs.meta.get("last_data_end")  # type: ignore[assignment]
    if cycles is None or last_data_end is None:
        raise ObservabilityError(
            "stall attribution needs a completed instrumented run: "
            "'cycles' and 'last_data_end' metadata are missing "
            "(pass the Instrumentation to run_smc / simulate "
            "before attributing)"
        )
    cycles = int(cycles)
    last_data_end = int(last_data_end)

    buckets: Dict[str, int] = {name: 0 for name in BUCKETS}
    gap_total = sum(gap.length for gap in obs.gaps)
    for lo, hi, name in classify_stall_intervals(obs):
        buckets[name] += hi - lo

    busy = last_data_end - gap_total
    buckets["drain"] = cycles - last_data_end

    data_packets = obs.counters.get("device.data_packets")
    t_pack = obs.meta.get("t_pack")
    if t_pack is not None and data_packets * int(t_pack) != busy:  # type: ignore[arg-type]
        raise ObservabilityError(
            "stall attribution does not close: "
            f"{data_packets} DATA packets x t_pack {t_pack} != "
            f"{busy} busy cycles"
        )

    attribution = StallAttribution(cycles=cycles, busy=busy, buckets=buckets)
    if attribution.total != cycles:
        raise ObservabilityError(
            "stall attribution does not close: busy + buckets = "
            f"{attribution.total}, run cycles = {cycles}"
        )
    return attribution


#: Cause :func:`partition_gap` gives the idle cycles beyond every
#: device bound: the controller had not asked yet.  The seven-bucket
#: attribution splits it into ``fifo`` and ``scheduler_idle``; the
#: traffic layer, which issues at service start, calls it ``pipeline``.
CONTROLLER = "controller"

_NEVER_ENDS = float("inf")


def _covered_pieces(
    lo: int, hi: int, spans: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int, bool]]:
    """Split ``[lo, hi)`` by coverage of sorted, disjoint ``spans``.

    Returns ``(start, end, covered)`` pieces in order.  The first span
    that can touch ``lo`` is found by bisection, so the spans may
    belong to the whole run (and gaps may arrive in any order).
    """
    pieces: List[Tuple[int, int, bool]] = []
    count = len(spans)
    index = bisect_right(spans, (lo, _NEVER_ENDS))
    if index and spans[index - 1][1] > lo:
        index -= 1
    while lo < hi:
        if index < count and spans[index][0] <= lo:
            end = min(spans[index][1], hi)
            pieces.append((lo, end, True))
            index += 1
        else:
            end = min(spans[index][0], hi) if index < count else hi
            pieces.append((lo, end, False))
        lo = end
    return pieces


def partition_gap(
    lo: int, gap: DataBusGap, refresh: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int, str]]:
    """Split the idle cycles ``[lo, gap.end)`` of one gap by cause.

    The one gap classifier: the seven-bucket stall attribution sums
    its pieces, and the traffic layer's per-request latency components
    take their totals from :func:`partition_gap_sums`.  Front to back:
    the leading write-to-read turnaround (``turnaround``), then cycles
    covered by a refresh span (``refresh``), then cycles below the
    bank-readiness bound (``precharge_activate``), then below the
    COL-bus bound (``command_bus``), and the rest is
    :data:`CONTROLLER`.

    Args:
        lo: First cycle to classify (``gap.start``, or later when the
            caller owns the cycles before it).
        gap: The DATA-bus gap.
        refresh: Sorted, disjoint ``[start, end)`` refresh spans.

    Returns:
        Disjoint ``(start, end, cause)`` pieces covering ``[lo,
        gap.end)`` in order.
    """
    hi = gap.end
    pieces: List[Tuple[int, int, str]] = []
    lead = min(max(gap.turnaround_until, lo), hi)
    if lead > lo:
        pieces.append((lo, lead, "turnaround"))
        lo = lead
    for start, end, in_refresh in _covered_pieces(lo, hi, refresh):
        if in_refresh:
            pieces.append((start, end, "refresh"))
            continue
        for bound, cause in (
            (gap.bank_until, "precharge_activate"),
            (gap.colbus_until, "command_bus"),
        ):
            cut = min(bound, end)
            if start < cut:
                pieces.append((start, cut, cause))
                start = cut
        if start < end:
            pieces.append((start, end, CONTROLLER))
    return pieces


def partition_gap_sums(
    lo: int, gap: DataBusGap, refresh: Sequence[Tuple[int, int]]
) -> Tuple[int, int, int, int, int]:
    """:func:`partition_gap`'s cycles per cause, without its pieces.

    For callers that need only the totals, such as the traffic layer's
    per-request latency components.  When no refresh span reaches
    ``[lo, gap.end)`` the gap is three clamped cuts and builds nothing;
    otherwise the pieces are summed.

    Args:
        lo: First cycle to classify, ``gap.start <= lo <= gap.end``.
        gap: The DATA-bus gap.
        refresh: Sorted, disjoint ``[start, end)`` refresh spans.

    Returns:
        Cycles of ``turnaround``, ``refresh``, ``precharge_activate``,
        ``command_bus`` and :data:`CONTROLLER`, in that order; they sum
        to ``gap.end - lo``.
    """
    hi = gap.end
    if not refresh or refresh[-1][1] <= lo or refresh[0][0] >= hi:
        lead = gap.turnaround_until
        if lead < lo:
            lead = lo
        elif lead > hi:
            lead = hi
        bank = gap.bank_until
        if bank < lead:
            bank = lead
        elif bank > hi:
            bank = hi
        colbus = gap.colbus_until
        if colbus < bank:
            colbus = bank
        elif colbus > hi:
            colbus = hi
        return lead - lo, 0, bank - lead, colbus - bank, hi - colbus
    sums = dict.fromkeys(
        ("turnaround", "refresh", "precharge_activate", "command_bus",
         CONTROLLER),
        0,
    )
    for start, end, cause in partition_gap(lo, gap, refresh):
        sums[cause] += end - start
    return tuple(sums.values())  # type: ignore[return-value]


def classify_stall_intervals(
    obs: Instrumentation,
) -> List[Tuple[int, int, str]]:
    """Classify every idle DATA-bus interval of an instrumented run.

    Both :func:`attribute_stalls` (run totals) and the windowed
    telemetry series (:func:`repro.obs.telemetry.build_windowed_series`)
    sum these same pieces, so windowed stall series reconcile with the
    seven-bucket totals *exactly*, by construction.

    Args:
        obs: Instrumentation from a completed run.

    Returns:
        Disjoint ``(start, end, bucket)`` pieces in bus order, one
        classification per piece, covering every recorded gap cycle.
        The ``drain`` tail is not included (it is not a gap; callers
        append it from ``cycles``/``last_data_end`` metadata).
    """
    fifo_spans = merge_intervals(
        (span.start, span.end)
        for span in obs.tracer.spans_on("msu", "idle:fifo")
    )
    refresh_spans = merge_intervals(
        (span.start, span.end)
        for span in obs.tracer.spans_on("refresh", "refresh")
    )
    pieces: List[Tuple[int, int, str]] = []
    for gap in obs.gaps:
        for lo, hi, cause in partition_gap(gap.start, gap, refresh_spans):
            if cause != CONTROLLER:
                pieces.append((lo, hi, cause))
                continue
            for start, end, in_fifo in _covered_pieces(lo, hi, fifo_spans):
                pieces.append(
                    (start, end, "fifo" if in_fifo else "scheduler_idle")
                )
    return pieces
