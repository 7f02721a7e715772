"""SMC wiring over the shared discrete-event simulation kernel.

The engine assembles the Figure 3 component graph — MSU, SBU,
processor, optional refresh engine — into :class:`Component` adapters
and hands them to :class:`repro.sim.kernel.Simulation`, which owns the
cycle loop: at each visited cycle it (1) lands read DATA packets that
completed into their FIFOs, (2) lets the MSU make a scheduling
decision, and (3) lets the processor retire one element access.
Between interesting cycles the kernel skips ahead; components that are
blocked are re-woken by the state changes that can unblock them.

The simulation ends when the processor has retired every access, all
FIFOs have drained, and no data is in flight.  The kernel's watchdog
raises :class:`~repro.errors.SchedulingError` if the system stops
making progress (which would indicate a controller bug, not a slow
run).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.msu import ArrivalEvent, IDLE, MemorySchedulingUnit
from repro.core.sbu import StreamBufferUnit
from repro.core.smc import SmcSystem
from repro.cpu.processor import StreamProcessor
from repro.memsys.config import ELEMENT_BYTES
from repro.obs.core import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import finalize_telemetry
from repro.rdram.audit import audit_memory
from repro.sim.kernel import (
    BackgroundComponent,
    Component,
    ResultBuilder,
    Simulation,
)
from repro.sim.results import SimulationResult


class _WakeFlag:
    """Arrival/refresh activity that must re-arm an idle MSU."""

    __slots__ = ("fired",)

    def __init__(self) -> None:
        self.fired = False


class _MsuComponent:
    """The MSU's decision step, plus its wake protocol.

    A data arrival or a refresh perturbation earlier in the same cycle
    re-arms an idle MSU (its next access may need to re-activate a
    bank the refresh closed, or a pop may have freed FIFO space).
    """

    def __init__(self, system: SmcSystem, wake: _WakeFlag) -> None:
        self.system = system
        self.msu = system.msu
        self._wake = wake

    def tick(self, cycle: int) -> Tuple[ArrivalEvent, ...]:
        if self._wake.fired:
            self._wake.fired = False
            self.msu.wake(cycle)
        return self.msu.tick(cycle)

    @property
    def next_action_cycle(self) -> Optional[int]:
        decision = self.msu.next_decision
        return decision if decision < IDLE else None

    def attach_obs(self, obs: Instrumentation) -> None:
        self.system.device.obs = obs
        self.system.device.gap_log = obs.gaps
        self.msu.obs = obs
        self.system.sbu.attach_obs(obs)

    def finish_observation(self, end_cycle: int) -> None:
        self.msu.finish_observation(end_cycle)
        self.system.device.finish_observation(end_cycle)

    def sample_telemetry(self, cycle: int, metrics: MetricsRegistry) -> None:
        """Record FIFO depths and the open-bank count at ``cycle``."""
        for fifo in self.system.sbu:
            metrics.series(
                "telemetry.fifo_occupancy",
                help="FIFO occupancy in elements at window boundaries",
                stream=fifo.descriptor.name,
            ).sample(cycle, float(fifo.occupancy))
        device = self.system.device
        open_banks = sum(
            1
            for index in range(device.geometry.num_banks)
            if device.bank(index).is_open
        )
        metrics.series(
            "telemetry.banks_open",
            help="banks holding an open row at window boundaries",
        ).sample(cycle, float(open_banks))


class _CpuComponent:
    """The processor's retire step.

    A pop frees read-FIFO space and a push feeds a write FIFO, either
    of which can make an idle MSU's FIFOs serviceable again, so a
    retire wakes the MSU for the following cycle.
    """

    def __init__(
        self,
        processor: StreamProcessor,
        sbu: StreamBufferUnit,
        msu: MemorySchedulingUnit,
    ) -> None:
        self.processor = processor
        self.sbu = sbu
        self.msu = msu

    def tick(self, cycle: int) -> Tuple[ArrivalEvent, ...]:
        if self.processor.tick(cycle, self.sbu):
            self.msu.wake(cycle + 1)
        return ()

    @property
    def next_action_cycle(self) -> Optional[int]:
        return self.processor.next_attempt_cycle

    def attach_obs(self, obs: Instrumentation) -> None:
        self.processor.obs = obs


def run_smc(
    system: SmcSystem,
    max_cycles: Optional[int] = None,
    audit: bool = False,
    dense: bool = False,
    obs: Optional[Instrumentation] = None,
) -> SimulationResult:
    """Simulate an SMC system to completion.

    Args:
        system: A wired system from
            :func:`repro.core.smc.build_smc_system`.
        max_cycles: Watchdog limit; defaults to a generous bound
            derived from the total traffic.
        audit: After completion, replay each channel's packet trace
            through the independent protocol auditor (requires the
            system to have been built with ``record_trace=True``).
        dense: Visit every cycle instead of skipping to the next
            interesting one.  Slower but trivially correct; the
            property tests assert both modes produce identical
            results, validating the skip logic.
        obs: Optional instrumentation to attach to every component for
            this run.  Events are recorded only at state-change cycles,
            which both the dense and skip engines visit, so the two
            modes produce identical event streams.

    Returns:
        The simulation result.

    Raises:
        SchedulingError: On deadlock or watchdog expiry.
    """
    processor = system.processor
    msu = system.msu
    sbu = system.sbu
    total_units = sum(len(fifo.units) for fifo in sbu)
    if max_cycles is None:
        max_cycles = 10_000 + 100 * total_units

    wake = _WakeFlag()

    def _refresh_fired() -> None:
        wake.fired = True

    components: List[Component] = [
        BackgroundComponent(engine, on_fire=_refresh_fired)
        for engine in system.refresh
    ]
    components.append(_MsuComponent(system, wake))
    components.append(_CpuComponent(processor, sbu, msu))

    def deliver(event: ArrivalEvent) -> None:
        sbu[event.fifo_index].note_arrival(event.elements)
        wake.fired = True

    simulation = Simulation(
        components,
        done=lambda sim: (
            processor.done and sbu.all_drained and sim.scheduler.empty
        ),
        deliver=deliver,
        label=(
            f"kernel={system.kernel.name}, "
            f"org={system.config.describe()}"
        ),
        max_cycles=max_cycles,
        dense=dense,
        obs=obs,
    )
    simulation.run()

    end_cycle = max(msu.last_data_end, (processor.last_retire_cycle or 0))
    if obs is not None:
        simulation.finish(end_cycle)
        _record_meta(system, obs, end_cycle)
        finalize_telemetry(obs)
    if audit:
        audit_memory(system.device)
    useful = sum(fifo.descriptor.length for fifo in sbu) * ELEMENT_BYTES
    builder = ResultBuilder(
        kernel=system.kernel.name,
        organization=system.config.describe(),
        length=system.descriptors[0].length,
        stride=system.descriptors[0].stride,
        fifo_depth=sbu[0].depth,
        alignment=_alignment_name(system),
        policy=msu.policy.name,
        first_data=processor.first_element_cycle,
        last_data_end=msu.last_data_end,
        packets_issued=msu.packets_issued,
        activations=msu.activations,
        bank_conflicts=msu.bank_conflicts,
        page_hits=msu.page_hits,
        page_misses=msu.page_misses,
    )
    builder.note_channel_bytes(system.device)
    return builder.build(
        cycles=end_cycle,
        useful_bytes=useful,
        transferred_bytes=system.device.bytes_transferred,
        cpu_stall_cycles=processor.stall_cycles,
        fifo_switches=msu.fifo_switches,
        speculative_activations=msu.speculative_activations,
        refreshes=sum(engine.refreshes_issued for engine in system.refresh),
    )


def _record_meta(
    system: SmcSystem, obs: Instrumentation, end_cycle: int
) -> None:
    """Record the run metadata stall attribution needs."""
    timing = system.config.timing
    useful = sum(
        fifo.descriptor.length for fifo in system.sbu
    ) * ELEMENT_BYTES
    obs.meta.update(
        kernel=system.kernel.name,
        organization=system.config.describe(),
        policy=system.msu.policy.name,
        cycles=end_cycle,
        last_data_end=system.msu.last_data_end,
        t_pack=timing.t_pack,
        t_rw=timing.t_rw,
        useful_bytes=useful,
        transferred_bytes=system.device.bytes_transferred,
    )


def _alignment_name(system: SmcSystem) -> str:
    """Classify the actual placement by inspecting base banks.

    Uses the address mapping attached to the system's memory (which may
    be a registry override like ``swizzle``), not a freshly derived
    one, so the classification reflects the banks the run actually
    touched.
    """
    mapping = system.device.mapping
    banks = {mapping.bank_of(d.base) for d in system.descriptors}
    return "aligned" if len(banks) == 1 else "staggered"
