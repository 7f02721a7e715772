"""Uniform registry over the per-module experiment ``run()`` functions.

Every experiment registers under a short name with a description and
a builder producing ``(slug, ExperimentTable)`` pairs — one per table
or figure panel it regenerates.  The CLI, the test suite, and
programmatic callers all resolve experiments the same way::

    >>> from repro.experiments.registry import EXPERIMENTS
    >>> tables = EXPERIMENTS.resolve("figure8").build()

``list(EXPERIMENTS)`` is in registration order, which is the paper's
presentation order and the CLI's default run order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.experiments import (
    cache_reality,
    channel,
    doublebank,
    figure7,
    figure8,
    figure9,
    fpm_heritage,
    headline,
    l2_tradeoff,
    multi_client,
    policy_matrix,
    refresh_ablation,
    tables,
    timelines,
)
from repro.experiments.rendering import ExperimentTable
from repro.registry import Registry

#: What a registered builder returns: named tables ready to render.
Tables = List[Tuple[str, ExperimentTable]]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment.

    Attributes:
        name: Registry name (CLI argument).
        description: One-line summary of what it regenerates.
        build: Runs the experiment, returning (slug, table) pairs.
    """

    name: str
    description: str
    build: Callable[[], Tables]


#: Experiments by name, in registration (paper) order.
EXPERIMENTS: Registry[Experiment] = Registry("experiment")


def register(
    name: str, description: str
) -> Callable[[Callable[[], Tables]], Callable[[], Tables]]:
    """Decorator registering a builder in :data:`EXPERIMENTS`."""

    def decorator(build: Callable[[], Tables]) -> Callable[[], Tables]:
        EXPERIMENTS.register(Experiment(name, description, build))
        return build

    return decorator


@register("figure1", "DRAM family timing parameters (static table)")
def _figure1() -> Tables:
    return [("figure1", tables.figure1_table())]


@register("figure2", "Direct RDRAM -50/-800 timing parameters (static table)")
def _figure2() -> Tables:
    return [("figure2", tables.figure2_table())]


@register("timelines", "Figure 5/6 three-stream access timelines")
def _timelines() -> Tables:
    return [
        (f"timeline_{org}", timelines.three_stream_timeline(org).table)
        for org in ("cli", "pi")
    ]


@register("figure7", "Percent of peak vs FIFO depth, 16 panels")
def _figure7() -> Tables:
    return [
        (f"figure7_{p.kernel}_{p.organization}_{p.length}", p.table)
        for p in figure7.run()
    ]


@register("figure8", "Single-stream cacheline fill vs stride")
def _figure8() -> Tables:
    return [("figure8", figure8.run())]


@register("figure9", "vaxpy with non-unit strides (% of attainable)")
def _figure9() -> Tables:
    return [("figure9", figure9.run())]


@register("headline", "Section 6 / abstract quoted numbers, paper vs ours")
def _headline() -> Tables:
    return [
        (f"headline_{index}", table)
        for index, table in enumerate(headline.run())
    ]


@register("channel", "Channel efficiency vs device count (Crisp's 95%)")
def _channel() -> Tables:
    return [("channel", channel.run())]


@register("refresh", "Refresh ablation: the ignore-refresh assumption")
def _refresh() -> Tables:
    return [("refresh", refresh_ablation.run())]


@register("doublebank", "Double-bank cores vs independent banks")
def _doublebank() -> Tables:
    return [("doublebank", doublebank.run())]


@register("cache", "Natural-order controller with a real L2 in front")
def _cache() -> Tables:
    return [
        (f"cache_{index}", table)
        for index, table in enumerate(cache_reality.run())
    ]


@register("l2", "L2 capacity vs SMC FIFO tradeoff")
def _l2() -> Tables:
    return [
        (f"l2_{index}", table)
        for index, table in enumerate(l2_tradeoff.run())
    ]


@register("fpm", "Fast-page-mode heritage comparison")
def _fpm() -> Tables:
    return [("fpm", fpm_heritage.run())]


@register("multi_client", "Open-loop multi-client traffic over N channels")
def _multi_client() -> Tables:
    return [
        (f"multi_client_{name}", table)
        for name, table in zip(
            ("scaling", "attribution", "regulation", "scheduling"),
            multi_client.run(),
        )
    ]


@register("policy_matrix", "Address mapping x page policy cross product")
def _policy_matrix() -> Tables:
    return [
        (f"policy_matrix_{name}", table)
        for name, table in zip(
            ("smc", "natural"), policy_matrix.run()
        )
    ]


@register("policy_search", "Seeded evolve-and-evaluate search over the policy registries")
def _policy_search() -> Tables:
    # Imported lazily: repro.search depends on the traffic and exec
    # layers only, and the experiments package must stay importable
    # without pulling the search driver in at module-import time.
    from repro.search import SearchConfig, run_search

    result = run_search(SearchConfig(generations=3, population=6))
    table = ExperimentTable(
        title="Policy search: per-generation winners",
        headers=("generation", "best genome", "score", "% of peak", "p99 (cyc)"),
    )
    for report in result.generations:
        best = report.best
        table.add_row(
            report.index,
            best.genome.key(),
            best.score,
            best.percent_of_peak,
            best.p99_latency,
        )
    table.notes.append(
        f"winner: {result.winner.genome.key()} (seed 0; fitness = "
        "mean % of peak - p99/100 on the matched-load Zipf hot-set workload)"
    )
    return [("policy_search", table)]
