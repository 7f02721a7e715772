"""The evolve-and-evaluate policy search loop.

Each generation holds a population of :class:`~repro.search.genome.
PolicyGenome` candidates.  Every candidate is scored on two fronts:

* **Closed-loop bandwidth** — the paper's kernels through the SMC at
  the genome's mapping/page-policy point, evaluated as one
  :func:`~repro.exec.pool.run_specs` batch.  Specs flow through the
  ambient :func:`~repro.exec.context.execution` context, so a warm
  :class:`~repro.exec.cache.ResultCache` makes repeated points (the
  elites, and any mutation that only touched scheduling knobs) free —
  generation 2+ of a seeded search is mostly cache hits.
* **Open-loop tail latency** — the matched-load Zipf hot-set traffic
  workload under the genome's scheduler, memoized in-process by the
  genome's :meth:`~repro.search.genome.PolicyGenome.normalized` key.

The fitness is ``mean % of peak − p99/100``: reward effective
bandwidth, penalize tail latency (one p99 cycle per hundred trades
against one bandwidth point).  Ranking is deterministic — ties break
on the canonical genome key — so the same seed always produces the
same winners, generation by generation.  Survivors seed the next
generation: elites carry over verbatim, the rest are one-field
mutations of the elites.

Each generation is framed in the active run ledger with a
``generation`` event carrying the generation index, population and
the best genome/score, so ``repro-obs report`` timelines show the
search converging.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.exec.pool import run_specs
from repro.search.genome import PolicyGenome, mutate, random_genome
from repro.sim.runner import RunSpec
from repro.traffic import TrafficWorkload, run_traffic

#: The matched-load Zipf hot-set population every genome's scheduler
#: is judged on: arrival rate just under one channel's service
#: capacity, so queues form in bursts where reordering can act.
SEARCH_WORKLOAD = TrafficWorkload(
    clients=8,
    requests=512,
    mean_gap=32.0,
    zipf_s=2.0,
    hot_lines=4,
    hot_fraction=0.9,
    seed=5,
)


def _active_ledger():
    from repro.exec.context import active_ledger

    return active_ledger()


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one policy search.

    Attributes:
        generations: Evolve-and-evaluate rounds.
        population: Genomes per generation.
        elites: Top genomes carried verbatim into the next
            generation (the rest are mutations of them).
        seed: PRNG seed; the whole search is reproducible from it.
        kernels: Paper kernels for the closed-loop bandwidth score.
        length: Stream length of the closed-loop runs.
        fifo_depth: SMC FIFO depth of the closed-loop runs.
        workload: Traffic population for the tail-latency score.
    """

    generations: int = 3
    population: int = 8
    elites: int = 3
    seed: int = 0
    kernels: Tuple[str, ...] = ("daxpy", "vaxpy")
    length: int = 128
    fifo_depth: int = 32
    workload: TrafficWorkload = field(default_factory=lambda: SEARCH_WORKLOAD)

    def __post_init__(self) -> None:
        if self.generations < 1:
            raise ConfigurationError("need at least one generation")
        if self.population < 2:
            raise ConfigurationError("need a population of at least two")
        if not 1 <= self.elites < self.population:
            raise ConfigurationError(
                "elites must be at least 1 and below the population "
                f"size, got {self.elites} of {self.population}"
            )
        if not self.kernels:
            raise ConfigurationError("need at least one kernel")


@dataclass(frozen=True)
class EvaluatedGenome:
    """One genome with its generation scores.

    Attributes:
        genome: The candidate.
        score: Fitness (higher is better).
        percent_of_peak: Mean closed-loop % of peak over the kernels.
        p99_latency: Traffic p99 latency under the genome's
            scheduler, in cycles.
        spec_keys: Canonical cache keys of the closed-loop runs.
    """

    genome: PolicyGenome
    score: float
    percent_of_peak: float
    p99_latency: float
    spec_keys: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "genome": self.genome.key(),
            "score": round(self.score, 6),
            "percent_of_peak": round(self.percent_of_peak, 4),
            "p99_latency": round(self.p99_latency, 4),
            "spec_keys": list(self.spec_keys),
        }


@dataclass(frozen=True)
class GenerationReport:
    """One generation's deterministic ranking (best first)."""

    index: int
    ranking: Tuple[EvaluatedGenome, ...]

    @property
    def best(self) -> EvaluatedGenome:
        return self.ranking[0]

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "ranking": [entry.to_dict() for entry in self.ranking],
        }


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one :func:`run_search`."""

    generations: Tuple[GenerationReport, ...]
    winner: EvaluatedGenome

    def to_dict(self) -> Dict[str, object]:
        return {
            "winner": self.winner.to_dict(),
            "generations": [g.to_dict() for g in self.generations],
        }

    def summary(self) -> str:
        """Per-generation best genomes plus the final winner."""
        lines = []
        for report in self.generations:
            best = report.best
            lines.append(
                f"gen {report.index}: best {best.genome.key()} "
                f"score {best.score:.2f} "
                f"({best.percent_of_peak:.1f}% peak, "
                f"p99 {best.p99_latency:.0f} cyc)"
            )
        lines.append(f"winner: {self.winner.genome.key()}")
        return "\n".join(lines)


def _score(percent_of_peak: float, p99_latency: float) -> float:
    """Fitness: bandwidth points minus one per hundred p99 cycles."""
    return percent_of_peak - p99_latency / 100.0


def _evaluate(
    population: List[PolicyGenome],
    config: SearchConfig,
    traffic_memo: Dict[str, float],
) -> List[EvaluatedGenome]:
    """Score every genome (one run_specs batch + memoized traffic)."""
    specs = [
        RunSpec(
            kernel=kernel,
            organization=genome.memory_config(),
            length=config.length,
            fifo_depth=config.fifo_depth,
        )
        for genome in population
        for kernel in config.kernels
    ]
    results = iter(run_specs(specs))
    spec_iter = iter(specs)
    evaluated = []
    for genome in population:
        peaks = [next(results).percent_of_peak for _ in config.kernels]
        keys = tuple(
            next(spec_iter).canonical_key() for _ in config.kernels
        )
        memo_key = genome.normalized().key()
        if memo_key not in traffic_memo:
            traffic_memo[memo_key] = run_traffic(
                genome.memory_config(),
                config.workload,
                scheduler=genome.build_scheduler(),
            ).p99_latency
        p99 = traffic_memo[memo_key]
        mean_peak = sum(peaks) / len(peaks)
        evaluated.append(
            EvaluatedGenome(
                genome=genome,
                score=_score(mean_peak, p99),
                percent_of_peak=mean_peak,
                p99_latency=p99,
                spec_keys=keys,
            )
        )
    return evaluated


def run_search(config: Optional[SearchConfig] = None) -> SearchResult:
    """Evolve policy genomes over seeded workloads; return the winner.

    Runs inside the ambient :func:`~repro.exec.context.execution`
    context: its result cache makes repeated design points free
    across generations (and across whole searches), its ledger
    receives one ``generation`` frame per round plus the usual
    per-spec lifecycle events.
    """
    config = config or SearchConfig()
    rng = random.Random(config.seed)
    # Generation 0: the paper's default policies plus random draws.
    population = [PolicyGenome()] + [
        random_genome(rng) for _ in range(config.population - 1)
    ]
    traffic_memo: Dict[str, float] = {}
    ledger = _active_ledger()
    reports: List[GenerationReport] = []
    for index in range(config.generations):
        evaluated = _evaluate(population, config, traffic_memo)
        evaluated.sort(key=lambda entry: (-entry.score, entry.genome.key()))
        best = evaluated[0]
        if ledger is not None:
            ledger.record(
                "generation",
                index=index,
                key=f"search/gen{index}",
                population=len(evaluated),
                best_genome=best.genome.key(),
                best_score=round(best.score, 6),
            )
        reports.append(
            GenerationReport(index=index, ranking=tuple(evaluated))
        )
        if index + 1 < config.generations:
            elites = [entry.genome for entry in evaluated[: config.elites]]
            population = list(elites)
            parent = 0
            while len(population) < config.population:
                population.append(
                    mutate(elites[parent % len(elites)], rng)
                )
                parent += 1
    return SearchResult(
        generations=tuple(reports), winner=reports[-1].best
    )
