"""Simulation kernel, SMC wiring, runner API, and result records."""

from repro.sim.batch import batch_unsupported_reason, run_smc_batch
from repro.sim.engine import run_smc
from repro.sim.kernel import (
    BackgroundComponent,
    Component,
    ResultBuilder,
    Simulation,
    TransactionPump,
)
from repro.sim.metrics import BankStats, TraceMetrics, bank_imbalance, measure_trace
from repro.sim.results import SimulationResult
from repro.sim.runner import (
    ORGANIZATIONS,
    RunSpec,
    resolve_config,
    resolve_policy,
    simulate,
)
from repro.sim.sweep import Sweep, pivot, sweep

__all__ = [
    "batch_unsupported_reason",
    "run_smc_batch",
    "run_smc",
    "BackgroundComponent",
    "Component",
    "ResultBuilder",
    "Simulation",
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
