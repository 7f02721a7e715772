"""Ambient execution settings for sweeps and experiments.

The experiment harness is many layers deep — CLI over experiment
modules over :class:`~repro.sim.sweep.Sweep` over
:func:`~repro.sim.runner.simulate` — and threading ``workers=`` /
``cache=`` through every signature would couple all of them to the
execution backend.  Instead, :func:`execution` installs an ambient
:class:`ExecutionContext`; :func:`repro.exec.pool.run_specs` picks up
the worker count and cache from it, and a direct
:func:`repro.sim.runner.simulate` call consults the cache, so any
code path that simulates a previously seen point gets the stored
result.  ``run_specs`` owns the cache reads and writes of its own
points: it looks each one up and stores each fresh result once, and
runs the ``simulate`` of a miss under an empty context, so neither
that call nor a pool worker touches a cache again.

    >>> from repro.exec import execution
    >>> with execution(workers=4, cache="~/.cache/repro"):
    ...     figure7.run()        # doctest: +SKIP
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

from repro.exec.cache import ResultCache
from repro.exec.stats import SweepStats
from repro.obs.ledger import LedgerWriter


@dataclass
class ExecutionContext:
    """Ambient sweep-execution settings.

    Attributes:
        workers: Process-pool size for sweep fan-out; None or <= 1
            means in-process serial execution.
        cache: Result cache that ``run_specs`` batches and direct
            ``simulate`` calls consult and fill.
        stats: Optional sweep-level metrics accumulator; every
            :func:`~repro.exec.pool.run_specs` batch inside the
            context reports into it.
        ledger: Optional append-only run ledger
            (:class:`~repro.obs.ledger.LedgerWriter`); every batch in
            the context writes its lifecycle events to it.
    """

    workers: Optional[int] = None
    cache: Optional[ResultCache] = None
    stats: Optional[SweepStats] = None
    ledger: Optional[LedgerWriter] = None


_STACK: List[ExecutionContext] = []


def coerce_cache(
    cache: Union[ResultCache, str, "os.PathLike[str]", None]
) -> Optional[ResultCache]:
    """Accept a ResultCache, a directory path, or None."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def coerce_ledger(
    ledger: Union[LedgerWriter, str, "os.PathLike[str]", None]
) -> Optional[LedgerWriter]:
    """Accept a LedgerWriter, a JSONL file path, or None."""
    if ledger is None or isinstance(ledger, LedgerWriter):
        return ledger
    return LedgerWriter(ledger)


@contextmanager
def execution(
    workers: Optional[int] = None,
    cache: Union[ResultCache, str, "os.PathLike[str]", None] = None,
    stats: Optional[SweepStats] = None,
    ledger: Union[LedgerWriter, str, "os.PathLike[str]", None] = None,
) -> Iterator[ExecutionContext]:
    """Install an ambient execution context for the enclosed block.

    Contexts nest; the innermost one wins.  ``cache`` may be a
    :class:`~repro.exec.cache.ResultCache` or a directory path;
    ``stats`` a :class:`~repro.exec.stats.SweepStats` collecting
    sweep-level metrics across every batch in the block; ``ledger`` a
    :class:`~repro.obs.ledger.LedgerWriter` (or a JSONL file path)
    receiving one event per spec lifecycle transition.  A ledger
    opened here from a path is closed when the block exits.
    """
    opened = ledger is not None and not isinstance(ledger, LedgerWriter)
    writer = coerce_ledger(ledger)
    context = ExecutionContext(
        workers=workers, cache=coerce_cache(cache), stats=stats,
        ledger=writer,
    )
    _STACK.append(context)
    try:
        yield context
    finally:
        _STACK.remove(context)
        if opened and writer is not None:
            writer.close()


def current() -> Optional[ExecutionContext]:
    """The innermost active context, or None."""
    return _STACK[-1] if _STACK else None


def active_cache() -> Optional[ResultCache]:
    """The active context's result cache, or None."""
    context = current()
    return context.cache if context else None


def active_workers() -> Optional[int]:
    """The active context's worker count, or None."""
    context = current()
    return context.workers if context else None


def active_stats() -> Optional[SweepStats]:
    """The active context's sweep-stats accumulator, or None."""
    context = current()
    return context.stats if context else None


def active_ledger() -> Optional[LedgerWriter]:
    """The active context's run-ledger writer, or None."""
    context = current()
    return context.ledger if context else None
