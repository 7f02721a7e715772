"""Open-loop multi-client traffic layer.

The paper drives the memory system with a handful of compute-kernel
streams; production memory systems serve thousands of concurrent
request sources.  This package generates that load — synthetic
clients with Zipf-distributed hot sets and seeded Poisson arrivals —
and drives it through the channel fabric as kernel components,
reporting latency percentiles, per-bank/per-channel bandwidth shares,
and (optionally) the effect of per-client bank-budget regulation.
Request-scheduling policy is pluggable through the
:data:`~repro.traffic.scheduling.SCHEDULERS` registry (FCFS,
first-ready FCFS, and MARS-style batch reordering built in).
"""

from repro.traffic.workload import Request, TrafficWorkload, generate_requests
from repro.traffic.driver import (
    COMPONENTS,
    BankBudgetRegulator,
    TrafficResult,
    run_traffic,
)
from repro.traffic.scheduling import SCHEDULERS, Scheduler, make_scheduler

__all__ = [
    "BankBudgetRegulator",
    "COMPONENTS",
    "Request",
    "SCHEDULERS",
    "Scheduler",
    "TrafficResult",
    "TrafficWorkload",
    "generate_requests",
    "make_scheduler",
    "run_traffic",
]
