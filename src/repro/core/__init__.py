"""The paper's contribution: the Stream Memory Controller (SMC)."""

from repro.core.fifo import AccessUnit, StreamFifo, build_plan
from repro.core.gather import (
    IndexedStreamDescriptor,
    build_gather_system,
    simulate_gather,
)
from repro.core.l2stream import L2StreamingController
from repro.core.msu import MemorySchedulingUnit
from repro.core.policies import (
    POLICIES,
    BankAwarePolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
    SpeculativePrechargePolicy,
)
from repro.core.sbu import StreamBufferUnit
from repro.core.smc import SmcSystem, build_smc_system

__all__ = [
    "AccessUnit",
    "StreamFifo",
    "build_plan",
    "IndexedStreamDescriptor",
    "build_gather_system",
    "simulate_gather",
    "L2StreamingController",
    "MemorySchedulingUnit",
    "POLICIES",
    "BankAwarePolicy",
    "RoundRobinPolicy",
    "SchedulingPolicy",
    "SpeculativePrechargePolicy",
    "StreamBufferUnit",
    "SmcSystem",
    "build_smc_system",
]
