"""Simulation kernel, engine wiring, runner API, and result records."""

from repro.sim.batch import (
    ENGINES,
    batch_unsupported_reason,
    lean_run,
    list_engines,
    run_smc_batch,
)
from repro.sim.engine import run_smc
from repro.sim.kernel import (
    BackgroundComponent,
    Component,
    EventScheduler,
    ResultBuilder,
    SimClock,
    Simulation,
    TimedEvent,
    TransactionPump,
)
from repro.sim.metrics import BankStats, TraceMetrics, bank_imbalance, measure_trace
from repro.sim.results import SimulationResult
from repro.sim.runner import (
    ORGANIZATIONS,
    RunSpec,
    default_engine,
    resolve_config,
    resolve_policy,
    set_default_engine,
    simulate,
)
from repro.sim.sweep import Sweep, pivot, sweep

__all__ = [
    "ENGINES",
    "batch_unsupported_reason",
    "lean_run",
    "list_engines",
    "run_smc_batch",
    "run_smc",
    "default_engine",
    "set_default_engine",
    "BackgroundComponent",
    "Component",
    "EventScheduler",
    "ResultBuilder",
    "SimClock",
    "Simulation",
    "TimedEvent",
    "TransactionPump",
    "BankStats",
    "TraceMetrics",
    "bank_imbalance",
    "measure_trace",
    "SimulationResult",
    "ORGANIZATIONS",
    "RunSpec",
    "resolve_config",
    "resolve_policy",
    "simulate",
    "Sweep",
    "pivot",
    "sweep",
]
