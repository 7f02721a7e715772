"""Sweep-point execution: serial, pooled, and cached.

:func:`run_specs` is the one entry point.  Give it a list of
:class:`~repro.sim.runner.RunSpec` and it returns the matching
:class:`~repro.sim.results.SimulationResult` list *in input order*,
regardless of backend:

* cache-first — points already in the active/given
  :class:`~repro.exec.cache.ResultCache` are never re-simulated;
* ``workers > 1`` fans the remaining points out over a process pool,
  streaming per-point progress back as completions arrive;
* a worker crash (segfault, OOM-kill, ``os._exit``) breaks the pool;
  the unfinished points are resubmitted to a fresh pool, up to
  :data:`RETRIES` times per point, before
  :class:`~repro.errors.ExecutionError` is raised.

Specs cross the process boundary as their
:meth:`~repro.sim.runner.RunSpec.to_dict` form and results return as
:meth:`~repro.sim.results.SimulationResult.to_dict` payloads, so no
simulator object graph is ever pickled.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.errors import ExecutionError, require_int
from repro.exec import context as _context
from repro.exec.cache import ResultCache
from repro.exec.stats import SweepStats
from repro.obs.ledger import LedgerWriter
from repro.sim import runner as _runner
from repro.sim.results import SimulationResult
from repro.sim.runner import RunSpec


@dataclass(frozen=True)
class ProgressEvent:
    """One completed sweep point, reported as it lands.

    Attributes:
        index: Position of the point in the input spec list.
        done: Points completed so far (including this one).
        total: Total points in the batch.
        spec: The point's specification.
        result: The point's result.
        cached: True if the result came from the cache.
    """

    index: int
    done: int
    total: int
    spec: RunSpec
    result: SimulationResult
    cached: bool


ProgressCallback = Callable[[ProgressEvent], None]

#: How many worker crashes a sweep point may be involved in and still
#: be resubmitted.
RETRIES = 1

# Test hooks: set REPRO_EXEC_CRASH_KERNEL=<kernel name> to make worker
# processes die (os._exit) when they pick up that kernel, simulating a
# segfault.  If REPRO_EXEC_CRASH_ONCE names a file path, the crash
# happens only while the file is absent (it is created on the way
# down), so exactly one worker dies and the retry path is exercised.
_CRASH_KERNEL_VAR = "REPRO_EXEC_CRASH_KERNEL"
_CRASH_ONCE_VAR = "REPRO_EXEC_CRASH_ONCE"


def _maybe_crash(spec: RunSpec) -> None:
    target = os.environ.get(_CRASH_KERNEL_VAR)
    if not target or spec.kernel != target:
        return
    sentinel = os.environ.get(_CRASH_ONCE_VAR)
    if sentinel:
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return  # already crashed once; behave this time
        os.close(fd)
    os._exit(73)


def _simulate(spec: RunSpec) -> SimulationResult:
    """Simulate a point :func:`run_specs` missed in its cache.

    The ambient cache is masked: ``run_specs`` already looked the
    point up and stores the result itself, in the cache it was given.
    """
    with _context.execution():
        return _runner.simulate(spec)


def _worker_run(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool worker: dict in, dict out.

    The result rides back under ``"result"`` with the simulation's
    wall time alongside, so the parent can feed per-spec timing into
    the sweep-level metrics without a second clock across the process
    boundary.
    """
    spec = RunSpec.from_dict(payload)
    _maybe_crash(spec)
    started = time.perf_counter()
    result = _simulate(spec).to_dict()
    return {
        "result": result,
        "wall_s": time.perf_counter() - started,
        "worker": os.getpid(),
    }


def run_specs(
    specs: Iterable[RunSpec],
    *,
    workers: Optional[int] = None,
    cache: Union[ResultCache, str, "os.PathLike[str]", None] = None,
    progress: Optional[ProgressCallback] = None,
    stats: Optional["SweepStats"] = None,
    ledger: Optional[LedgerWriter] = None,
) -> List[SimulationResult]:
    """Execute a batch of run specifications.

    Args:
        specs: The points to simulate.
        workers: Pool size, an int; None falls back to the active
            :func:`~repro.exec.context.execution` context, and values
            <= 1 run serially in-process.
        cache: Result cache (or its directory path); None falls back
            to the active context's cache.  Hits skip simulation;
            fresh results are stored.
        progress: Callback receiving a :class:`ProgressEvent` per
            completed point, in completion order.
        stats: Sweep-level metrics accumulator
            (:class:`~repro.exec.stats.SweepStats`); None falls back
            to the active context's.  Receives every completed point
            with its cache status and (for fresh runs) wall time.
        ledger: Append-only run ledger
            (:class:`~repro.obs.ledger.LedgerWriter`); None falls
            back to the active context's.  Receives one event per
            lifecycle transition of every point.  Observation only —
            results, cache keys, and cache contents are untouched.

    Returns:
        Results in the same order as ``specs``.

    Raises:
        ExecutionError: When crashes exhaust the retry budget.
        ConfigurationError: When ``workers`` is not an int or None, or
            ``workers > 1`` and a spec is not serializable for
            transport.
    """
    specs = list(specs)
    if workers is None:
        workers = _context.active_workers()
    else:
        require_int("workers", workers)
    cache = _context.coerce_cache(cache)
    if cache is None:
        cache = _context.active_cache()
    if stats is None:
        stats = _context.active_stats()
    if ledger is None:
        ledger = _context.active_ledger()

    total = len(specs)
    pooled = workers is not None and workers > 1
    if stats is not None:
        stats.begin_batch(total, workers if pooled else 1)
    batch = (
        ledger.begin_batch(total, workers if pooled else 1)
        if ledger is not None
        else 0
    )
    keys = (
        [spec.canonical_key() for spec in specs]
        if ledger is not None
        else []
    )
    dispatched_at: Dict[int, float] = {}

    def note(event: str, index: int, **fields: object) -> Optional[float]:
        if ledger is None:
            return None
        return ledger.record(
            event, batch=batch, index=index, key=keys[index], **fields
        )

    results: List[Optional[SimulationResult]] = [None] * total
    pending: Dict[int, RunSpec] = {}
    done = 0

    try:
        for index, spec in enumerate(specs):
            note("queued", index, label=spec.describe())
            hit = cache.get(spec) if cache is not None else None
            if hit is not None:
                results[index] = hit
                done += 1
                note("cache_hit", index)
                if stats is not None:
                    stats.note_point(cached=True)
                if progress is not None:
                    progress(
                        ProgressEvent(index, done, total, spec, hit, True)
                    )
            else:
                pending[index] = spec

        def dispatched(index: int) -> None:
            stamp = note("dispatched", index)
            if stamp is not None:
                dispatched_at[index] = stamp

        def landed(
            index: int,
            result: SimulationResult,
            wall_s: Optional[float] = None,
            worker: Optional[object] = None,
        ) -> None:
            nonlocal done
            results[index] = result
            del pending[index]
            done += 1
            if ledger is not None:
                # The worker's start time is reconstructed on the
                # parent's clock: landing time minus the in-worker
                # wall time, clamped so it never precedes dispatch.
                now = ledger.now()
                note(
                    "started",
                    index,
                    worker=worker,
                    t=max(
                        dispatched_at.get(index, 0.0),
                        now - (wall_s or 0.0),
                    ),
                )
                note("completed", index, worker=worker, wall_s=wall_s)
            if cache is not None:
                cache.put(specs[index], result)
            if stats is not None:
                stats.note_point(cached=False, wall_s=wall_s)
            if progress is not None:
                progress(
                    ProgressEvent(
                        index, done, total, specs[index], result, False
                    )
                )

        if not pending:
            return results  # fully warm

        if pooled:
            _run_pooled(pending, workers, landed, dispatched, note)
        else:
            for index in sorted(pending):
                dispatched(index)
                started = time.perf_counter()
                result = _simulate(specs[index])
                landed(
                    index,
                    result,
                    time.perf_counter() - started,
                    worker="main",
                )
        return results
    finally:
        if stats is not None:
            stats.end_batch()


def _run_pooled(
    pending: Dict[int, RunSpec],
    workers: int,
    landed: Callable[..., None],
    dispatched: Callable[[int], None],
    note: Callable[..., Optional[float]],
) -> None:
    """Drain ``pending`` through process pools, retrying after crashes."""
    # Serialize up front so unserializable specs fail fast and clearly.
    payloads = {index: spec.to_dict() for index, spec in pending.items()}
    attempts = {index: 0 for index in pending}
    while pending:
        crash: Optional[BaseException] = None
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending))
        ) as pool:
            futures = {}
            try:
                for index in sorted(pending):
                    dispatched(index)
                    futures[pool.submit(_worker_run, payloads[index])] = index
            except BrokenProcessPool as error:
                # A worker died before every point was submitted: the
                # submitted ones still land or break below.
                crash = error
            for future in as_completed(futures):
                index = futures[future]
                try:
                    payload = future.result()
                except BrokenProcessPool as error:
                    crash = error
                    break  # every remaining future is equally broken
                landed(
                    index,
                    SimulationResult.from_dict(payload["result"]),
                    payload.get("wall_s"),
                    payload.get("worker"),
                )
        if crash is None:
            continue  # pending is empty; loop exits
        # We cannot tell which in-flight point killed the worker, so
        # every unfinished point is charged one attempt and resubmitted.
        exhausted = _charge_crash(pending, attempts)
        for index in sorted(pending):
            if attempts[index] > RETRIES:
                note("failed", index, attempts=attempts[index])
            else:
                note("retried", index, attempt=attempts[index])
        if exhausted:
            labels = ", ".join(spec.describe() for spec in exhausted)
            raise ExecutionError(
                f"worker pool crashed {RETRIES + 1} times while running "
                f"{len(exhausted)} sweep point(s): {labels}"
            ) from crash


def _charge_crash(
    pending: Dict[int, RunSpec], attempts: Dict[int, int]
) -> Sequence[RunSpec]:
    """Charge an attempt to every unfinished point; return the exhausted."""
    exhausted = []
    for index in sorted(pending):
        attempts[index] += 1
        if attempts[index] > RETRIES:
            exhausted.append(pending[index])
    return exhausted
