"""Periodic telemetry: sampled in-flight state and windowed series.

The paper's central quantity — effective bandwidth as a function of
access order — is a *time-varying* signal shaped by bank conflicts,
bus turnarounds, and refresh, but end-of-run totals flatten it.  This
module adds the time axis back, in two complementary ways:

* A **live probe** (:class:`TelemetryProbe`): a passive kernel
  component that :func:`repro.sim.engine.run_smc` wires last whenever
  the run's :class:`~repro.obs.core.Instrumentation` carries a
  ``telemetry_window``.  At every window boundary the probe calls its
  samplers — the SMC's one is the MSU's ``sample_telemetry`` (FIFO
  depths, open-bank counts, arrivals in flight) — which write into
  the instrumentation's metrics registry.  The probe never breaks a
  deadlock and forces only window-boundary cycle visits — safe by the
  kernel's dense/skip equivalence contract, so an attached probe
  changes no simulation result bit-for-bit.

* **Windowed series** (:func:`build_windowed_series`): computed after
  the run from the exact DATA-bus gap records, by summing the *same*
  classified pieces (:func:`repro.obs.attribution.classify_stall_intervals`)
  that :func:`~repro.obs.attribution.attribute_stalls` sums — so the
  windowed stall series reconcile with the seven-bucket totals
  exactly, by construction, and :func:`build_windowed_series` raises
  :class:`~repro.errors.ObservabilityError` if they ever do not.

Series names all live under the ``telemetry.`` prefix; sample
timestamps are interface-clock cycles (each window's sample is stamped
at the window's first cycle).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ObservabilityError
from repro.obs.attribution import BUCKETS, classify_stall_intervals
from repro.obs.core import Instrumentation, merge_intervals
from repro.obs.metrics import MetricsRegistry


#: Records one component's in-flight state at a cycle into a registry.
Sampler = Callable[[int, MetricsRegistry], None]


class TelemetryProbe:
    """Passive kernel component calling samplers at window boundaries.

    The probe's pending boundary never counts as forward progress
    (``breaks_deadlock = False``), so it cannot mask a controller
    deadlock; it only adds window-boundary cycles to the visited set,
    which the kernel's dense/skip equivalence contract proves safe.

    Args:
        window: Sampling period in interface-clock cycles.
        metrics: Registry the samples land in (normally the run
            instrumentation's ``metrics``).
        samplers: Called with the cycle and ``metrics`` at each
            boundary, and once more at the run's end.
    """

    breaks_deadlock = False

    def __init__(
        self,
        window: int,
        metrics: MetricsRegistry,
        samplers: Sequence[Sampler],
    ) -> None:
        if window <= 0:
            raise ConfigurationError(
                f"telemetry window must be positive, got {window}"
            )
        self.window = window
        self.metrics = metrics
        self.samplers: List[Sampler] = list(samplers)
        self._next_boundary = 0
        self._last_sampled: Optional[int] = None
        self.samples_taken = 0

    def tick(self, cycle: int) -> None:
        if cycle >= self._next_boundary:
            self._sample(cycle)
            self._next_boundary = (cycle // self.window + 1) * self.window

    @property
    def next_action_cycle(self) -> int:
        return self._next_boundary

    def finish_observation(self, end_cycle: int) -> None:
        """Take one closing sample at the run's logical end."""
        if self._last_sampled is None or end_cycle > self._last_sampled:
            self._sample(end_cycle)

    def _sample(self, cycle: int) -> None:
        self.samples_taken += 1
        self._last_sampled = cycle
        for sampler in self.samplers:
            sampler(cycle, self.metrics)


def build_windowed_series(
    obs: Instrumentation,
    window: Optional[int] = None,
    cycles: Optional[int] = None,
    last_data_end: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Compute exact windowed series from a completed run's records.

    Emits, per window of ``window`` cycles (stamped at the window's
    first cycle; the last window may be partial):

    * ``telemetry.busy_cycles`` — DATA-bus cycles carrying packets.
    * ``telemetry.stall_cycles{bucket=...}`` — idle cycles per stall
      bucket, including ``drain``; windowed sums reconcile exactly
      with :func:`~repro.obs.attribution.attribute_stalls`.
    * ``telemetry.data_bus_utilization`` — busy fraction of the window.
    * ``telemetry.effective_bandwidth_pct_peak`` — useful bytes
      delivered per window as a percentage of the 4 B/cycle peak.
    * ``telemetry.bank_active_cycles{bank=...}`` — cycles each bank
      held an open row (from the tracer's ``bankN`` row spans).
    * ``telemetry.refresh_busy_cycles`` — cycles covered by refresh
      spans.

    Args:
        obs: Instrumentation from a completed run (engine-filled
            ``cycles``/``last_data_end`` metadata, gaps, tracer spans).
        window: Window length; defaults to ``obs.telemetry_window``.
        cycles: Override the run's total cycles.
        last_data_end: Override the end of the last DATA packet.
        metrics: Registry to emit into; defaults to ``obs.metrics``.

    Returns:
        The registry the series were written to.

    Raises:
        ObservabilityError: If required metadata is missing or the
            windowed accounting does not close (instrumentation bug).
        ConfigurationError: If the window is not positive.
    """
    if window is None:
        window = getattr(obs, "telemetry_window", None)
    if window is None or window <= 0:
        raise ConfigurationError(
            "windowed telemetry needs a positive window "
            "(set Instrumentation.telemetry_window or pass window=)"
        )
    if cycles is None:
        cycles = obs.meta.get("cycles")  # type: ignore[assignment]
    if last_data_end is None:
        last_data_end = obs.meta.get("last_data_end")  # type: ignore[assignment]
    if cycles is None or last_data_end is None:
        raise ObservabilityError(
            "windowed telemetry needs a completed instrumented run: "
            "'cycles' and 'last_data_end' metadata are missing"
        )
    cycles = int(cycles)
    last_data_end = int(last_data_end)
    if metrics is None:
        metrics = obs.metrics

    count = max(1, -(-cycles // window))

    def window_len(index: int) -> int:
        return min(window, cycles - index * window) if cycles else 0

    def spread(
        totals: List[int], intervals: List[Tuple[int, int]]
    ) -> None:
        """Add each [lo, hi) interval's cycles into per-window totals."""
        for lo, hi in intervals:
            lo, hi = max(lo, 0), min(hi, count * window)
            w = lo // window
            while lo < hi:
                edge = min(hi, (w + 1) * window)
                totals[w] += edge - lo
                lo = edge
                w += 1

    # Stall buckets, from the same classified pieces attribution sums.
    bucket_totals = {name: [0] * count for name in BUCKETS}
    for lo, hi, name in classify_stall_intervals(obs):
        spread(bucket_totals[name], [(lo, hi)])
    spread(bucket_totals["drain"], [(last_data_end, cycles)])

    # Busy intervals: the complement of the gaps in [0, last_data_end).
    busy_intervals: List[Tuple[int, int]] = []
    prev = 0
    for gap in sorted(obs.gaps, key=lambda g: g.start):
        if gap.start > prev:
            busy_intervals.append((prev, gap.start))
        prev = max(prev, gap.end)
    if last_data_end > prev:
        busy_intervals.append((prev, last_data_end))
    busy_totals = [0] * count
    spread(busy_totals, busy_intervals)

    closure = sum(busy_totals) + sum(
        sum(totals) for totals in bucket_totals.values()
    )
    if closure != cycles:
        raise ObservabilityError(
            "windowed telemetry does not close: busy + buckets = "
            f"{closure} windowed cycles, run cycles = {cycles}"
        )

    useful = float(obs.meta.get("useful_bytes", 0) or 0)
    transferred = float(obs.meta.get("transferred_bytes", 0) or 0)
    useful_fraction = useful / transferred if transferred > 0 else 1.0

    busy_series = metrics.series(
        "telemetry.busy_cycles",
        help="DATA-bus cycles carrying packets, per window",
    )
    util_series = metrics.series(
        "telemetry.data_bus_utilization",
        help="busy fraction of the DATA bus, per window",
    )
    bw_series = metrics.series(
        "telemetry.effective_bandwidth_pct_peak",
        help="useful bytes delivered per window, % of 4 B/cycle peak",
    )
    stall_series = {
        name: metrics.series(
            "telemetry.stall_cycles",
            help="idle DATA-bus cycles per stall bucket, per window",
            bucket=name,
        )
        for name in BUCKETS
    }
    for index in range(count):
        t = index * window
        length = window_len(index)
        busy = busy_totals[index]
        busy_series.sample(t, float(busy))
        util = busy / length if length else 0.0
        util_series.sample(t, util)
        bw_series.sample(t, 100.0 * util * useful_fraction)
        for name in BUCKETS:
            stall_series[name].sample(t, float(bucket_totals[name][index]))

    # Per-bank open-row occupancy and refresh coverage, from spans.
    for track in obs.tracer.tracks():
        if not track.startswith("bank"):
            continue
        spans = merge_intervals(
            (span.start, span.end)
            for span in obs.tracer.spans_on(track, "row")
        )
        totals = [0] * count
        spread(totals, spans)
        series = metrics.series(
            "telemetry.bank_active_cycles",
            help="cycles the bank held an open row, per window",
            bank=track[len("bank"):],
        )
        for index in range(count):
            series.sample(index * window, float(totals[index]))
    refresh_spans = merge_intervals(
        (span.start, span.end)
        for span in obs.tracer.spans_on("refresh", "refresh")
    )
    if refresh_spans:
        totals = [0] * count
        spread(totals, refresh_spans)
        series = metrics.series(
            "telemetry.refresh_busy_cycles",
            help="cycles covered by background refresh, per window",
        )
        for index in range(count):
            series.sample(index * window, float(totals[index]))

    return metrics


def finalize_telemetry(obs: Optional[Instrumentation]) -> None:
    """Build the run's windowed series if telemetry was requested.

    Called by the engines after they record run metadata; a no-op when
    ``obs`` is None or carries no ``telemetry_window``, so detached
    and window-less runs pay nothing.
    """
    if obs is None:
        return
    window = getattr(obs, "telemetry_window", None)
    if not window:
        return
    obs.meta.setdefault("telemetry_window", window)
    build_windowed_series(obs, window=window)
