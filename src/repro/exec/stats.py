"""Sweep-level execution metrics: fleet observability for run_specs.

:class:`SweepStats` accumulates what the process-pool backend knows
about a sweep as it runs — points completed, cache hits, per-spec wall
time, worker utilization — into a
:class:`~repro.obs.metrics.MetricsRegistry`, renders a live progress
line while batches drain, and produces the end-of-sweep summary the
``repro-experiments`` CLI prints.

Install one through the ambient execution context and every
:func:`~repro.exec.pool.run_specs` batch inside the block reports into
it::

    from repro.exec import execution
    from repro.exec.stats import SweepStats

    stats = SweepStats(stream=sys.stderr)
    with execution(workers=4, cache="~/.cache/repro", stats=stats):
        figure7.run()
    print(stats.summary())

Metric names (all under the ``sweep.`` prefix): ``sweep.specs_total``
and ``sweep.cache_hits`` counters, a ``sweep.batches`` counter, a
``sweep.workers`` gauge, and the ``sweep.spec_wall_seconds`` histogram
whose p50/p90/p99 the summary reports.
"""

from __future__ import annotations

import time
from typing import IO, Optional

from repro.obs.metrics import MetricsRegistry


class SweepStats:
    """Accumulates sweep execution metrics across run_specs batches.

    Args:
        registry: Metrics registry to report into; a fresh one by
            default.
        stream: Optional text stream for the live progress line
            (typically ``sys.stderr``); None disables live output.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        stream: Optional[IO[str]] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stream = stream
        self.workers_used = 1
        self._specs = self.registry.counter(
            "sweep.specs_total", help="sweep points completed"
        )
        self._hits = self.registry.counter(
            "sweep.cache_hits", help="points served from the result cache"
        )
        self._batches = self.registry.counter(
            "sweep.batches", help="run_specs batches executed"
        )
        self._workers = self.registry.gauge(
            "sweep.workers", help="process-pool size of the last batch"
        )
        # The registry's default bounds, 1 ms to 60 s log-spaced, fit
        # sim points that run milliseconds to minutes.
        self._wall = self.registry.histogram(
            "sweep.spec_wall_seconds",
            help="per-spec simulation wall time, seconds",
        )
        self._started: Optional[float] = None
        self._finished: Optional[float] = None
        self._busy_seconds = 0.0
        self._batch_total = 0
        self._batch_done = 0
        self._line_width = 0

    # -- recording hooks (called by repro.exec.pool) --------------------

    def begin_batch(self, total: int, workers: int) -> None:
        """Mark the start of one run_specs batch of ``total`` points."""
        if self._started is None:
            self._started = time.perf_counter()
        self._finished = None
        self._batches.inc()
        self._workers.set(float(workers))
        self.workers_used = max(self.workers_used, workers)
        self._batch_total = total
        self._batch_done = 0

    def note_point(
        self, cached: bool, wall_s: Optional[float] = None
    ) -> None:
        """Record one completed point (a cache hit or a fresh run)."""
        if self._started is None:  # tolerate use without begin_batch
            self._started = time.perf_counter()
        self._specs.inc()
        self._batch_done += 1
        if cached:
            self._hits.inc()
        elif wall_s is not None:
            self._wall.observe(wall_s)
            self._busy_seconds += wall_s
        self._emit_progress()

    def end_batch(self) -> None:
        """Mark the end of a batch; clears the live progress line."""
        self._finished = time.perf_counter()
        self._clear_progress()

    # -- derived quantities ---------------------------------------------

    @property
    def specs(self) -> int:
        """Points completed so far (hits and fresh runs)."""
        return int(self._specs.value)

    @property
    def cache_hits(self) -> int:
        """Points served from the result cache."""
        return int(self._hits.value)

    @property
    def elapsed(self) -> float:
        """Wall seconds from the first batch start (0.0 before it)."""
        if self._started is None:
            return 0.0
        end = self._finished if self._finished is not None else time.perf_counter()
        return max(0.0, end - self._started)

    @property
    def specs_per_sec(self) -> float:
        """Completed points per wall second."""
        elapsed = self.elapsed
        return self.specs / elapsed if elapsed > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of points served from the cache."""
        return self.cache_hits / self.specs if self.specs else 0.0

    @property
    def worker_utilization(self) -> float:
        """Simulation-busy seconds over available worker-seconds.

        Below 1.0 means workers idled (startup, stragglers, cache-hit
        phases); serial runs with negligible overhead approach 1.0.
        """
        available = self.elapsed * max(1, self.workers_used)
        return self._busy_seconds / available if available > 0 else 0.0

    # -- rendering ------------------------------------------------------

    def progress_line(self) -> str:
        """One-line live status for the current batch."""
        line = (
            f"sweep: {self._batch_done}/{self._batch_total} specs"
            f" ({self.cache_hits} cached, {self.specs_per_sec:.1f}/s)"
        )
        if self.workers_used > 1:
            line += f" [{self.workers_used} workers]"
        return line

    def summary(self) -> str:
        """End-of-sweep report (total, hits, elapsed, specs/sec)."""
        parts = [
            f"sweep summary: {self.specs} specs",
            f"{self.cache_hits} cache hits"
            + (f" ({self.cache_hit_rate:.0%})" if self.specs else ""),
            f"{self.elapsed:.1f}s elapsed",
            f"{self.specs_per_sec:.1f} specs/s",
        ]
        if self.workers_used > 1:
            parts.append(
                f"{self.workers_used} workers at "
                f"{self.worker_utilization:.0%} utilization"
            )
        if self._wall.count:
            parts.append(
                f"per-spec wall p50={self._wall.p50 * 1000:.0f}ms "
                f"p90={self._wall.p90 * 1000:.0f}ms "
                f"p99={self._wall.p99 * 1000:.0f}ms"
            )
        return ", ".join(parts)

    def _emit_progress(self) -> None:
        if self.stream is None:
            return
        line = self.progress_line()
        pad = max(0, self._line_width - len(line))
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()
        self._line_width = len(line)

    def _clear_progress(self) -> None:
        if self.stream is None or self._line_width == 0:
            return
        self.stream.write("\r" + " " * self._line_width + "\r")
        self.stream.flush()
        self._line_width = 0
