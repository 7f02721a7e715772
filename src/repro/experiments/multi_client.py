"""Multi-client open-loop traffic across channel topologies.

The paper (and Crisp's 95 % figure it reconciles with in Section 6)
evaluates closed-loop streams against one channel.  This experiment
runs the other operating point production parts face: thousands of
independent clients with Zipf hot sets offering load open-loop.
Three tables come out of it:

* **Topology scaling** — the same offered load against 1, 2 and 4
  channels: request-latency percentiles fall and per-channel bandwidth
  shares stay balanced because the channel-striping selector spreads
  consecutive cachelines round-robin.
* **Latency attribution** — the same runs decomposed into the
  per-request latency components (queue wait, bank busy, bus
  contention, transfer, ...), showing *where* the added channels
  recover cycles.
* **Bank-budget regulation** — a deliberately abusive population
  (few clients, maximally skewed hot sets) with and without the
  per-client bank-budget regulator, showing the regulator trading a
  longer run for a bounded worst-client bank share.
* **Request scheduling** — the Zipf hot-set population offered at
  matched load (arrival rate near service capacity) under each
  registered scheduler: FR-FCFS and MARS batching turn the hot rows'
  requests into back-to-back page hits, cutting tail latency vs FCFS
  at identical offered load.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.experiments.rendering import ExperimentTable
from repro.memsys.config import MemorySystemConfig
from repro.traffic import (
    COMPONENTS,
    SCHEDULERS,
    BankBudgetRegulator,
    TrafficWorkload,
    run_traffic,
)

CHANNEL_COUNTS: Tuple[int, ...] = (1, 2, 4)

#: Baseline population: many clients, mild skew, open-loop Poisson.
SCALING_WORKLOAD = TrafficWorkload(
    clients=1024, requests=2048, mean_gap=2.0, seed=11
)

#: Abusive population for the regulator table: a handful of clients
#: hammering two-line hot sets as fast as they can.
HOT_WORKLOAD = TrafficWorkload(
    clients=8,
    requests=1024,
    mean_gap=1.0,
    zipf_s=2.5,
    hot_lines=2,
    hot_fraction=1.0,
    seed=5,
)

REGULATOR_WINDOW = 512
REGULATOR_BUDGET = 32

#: Zipf hot-set population at *matched* offered load for the
#: scheduling table: the aggregate arrival rate sits just under the
#: channel's service capacity, so queues form in bursts (where
#: reordering can act) without the unbounded backlog of the abusive
#: population (where the MARS starvation cap correctly forces FCFS).
SCHED_WORKLOAD = TrafficWorkload(
    clients=8,
    requests=2048,
    mean_gap=32.0,
    zipf_s=2.0,
    hot_lines=4,
    hot_fraction=0.9,
    seed=5,
)

#: The scheduling table runs open-page so batched same-row requests
#: actually land as page hits.
SCHED_CONFIG = MemorySystemConfig.cli(page_policy="open")


def run(
    channel_counts: Sequence[int] = CHANNEL_COUNTS,
) -> List[ExperimentTable]:
    """Build the topology-scaling and regulation tables."""
    scaling = ExperimentTable(
        title="Open-loop multi-client traffic vs channel count",
        headers=(
            "channels",
            "p50 lat (cyc)",
            "p90 lat (cyc)",
            "p99 lat (cyc)",
            "cycles",
            "channel shares",
        ),
    )
    scaling_results = []
    for channels in channel_counts:
        result = run_traffic(workload=SCALING_WORKLOAD, channels=channels)
        scaling_results.append((channels, result))
        scaling.add_row(
            channels,
            round(result.p50_latency),
            round(result.p90_latency),
            round(result.p99_latency),
            result.cycles,
            "/".join(f"{s:.0%}" for s in result.channel_shares),
        )
    scaling.notes.append(
        f"{SCALING_WORKLOAD.clients} clients, "
        f"{SCALING_WORKLOAD.requests} requests, mean gap "
        f"{SCALING_WORKLOAD.mean_gap} cycles; channel striping keeps "
        "per-channel shares balanced while added channels cut queueing "
        "delay."
    )

    attribution = ExperimentTable(
        title="Mean request-latency attribution (cycles per request)",
        headers=("channels",) + COMPONENTS,
    )
    for channels, result in scaling_results:
        means = result.mean_component_cycles()
        attribution.add_row(
            channels,
            *(round(means[name], 1) for name in COMPONENTS),
        )
    attribution.notes.append(
        "Components sum to mean request latency exactly (closure is "
        "checked per request); added channels shrink queue_wait and "
        "bus_contention while transfer time stays fixed."
    )

    regulation = ExperimentTable(
        title="Per-client bank-budget regulation under a hot workload",
        headers=(
            "regulator",
            "p50 lat (cyc)",
            "p99 lat (cyc)",
            "cycles",
            "worst client-bank B/cyc",
            "deferrals",
        ),
    )
    for label, regulator in (
        ("off", None),
        (
            f"{REGULATOR_BUDGET} B / {REGULATOR_WINDOW} cyc",
            BankBudgetRegulator(
                window_cycles=REGULATOR_WINDOW,
                budget_bytes=REGULATOR_BUDGET,
            ),
        ),
    ):
        result = run_traffic(workload=HOT_WORKLOAD, regulator=regulator)
        regulation.add_row(
            label,
            round(result.p50_latency),
            round(result.p99_latency),
            result.cycles,
            f"{result.max_client_bank_rate:.3f}",
            result.deferrals,
        )
    regulation.notes.append(
        "All requests are eventually served either way; the regulator "
        "defers over-budget clients to the next window, capping any one "
        "client's sustained rate through any one bank at "
        f"{REGULATOR_BUDGET / REGULATOR_WINDOW:.3f} B/cyc."
    )

    scheduling = ExperimentTable(
        title=(
            "Request scheduling under the matched-load Zipf hot-set "
            "workload"
        ),
        headers=(
            "scheduler",
            "p50 lat (cyc)",
            "p90 lat (cyc)",
            "p99 lat (cyc)",
            "cycles",
        ),
    )
    for name in SCHEDULERS.names():
        result = run_traffic(
            SCHED_CONFIG, workload=SCHED_WORKLOAD, scheduler=name
        )
        scheduling.add_row(
            name,
            round(result.p50_latency),
            round(result.p90_latency),
            round(result.p99_latency),
            result.cycles,
        )
    scheduling.notes.append(
        f"{SCHED_WORKLOAD.clients} clients, {SCHED_WORKLOAD.requests} "
        f"requests at matched load (mean gap {SCHED_WORKLOAD.mean_gap} "
        "cycles) over an open-page system; identical offered load per "
        "row.  FR-FCFS and MARS serve hot-row batches back to back, "
        "cutting p99 vs FCFS; under unbounded backlog the MARS "
        "starvation age cap deliberately reverts to FCFS."
    )
    return [scaling, attribution, regulation, scheduling]
