"""SMC wiring over the shared discrete-event simulation kernel.

The Figure 3 component graph is the kernel's component list: the
models themselves — refresh engines, MSU, processor — go to
:class:`repro.sim.kernel.Simulation`, which owns the cycle loop.  At
each visited cycle (1) each refresh engine may refresh a row, (2) the
MSU lands the read DATA packets that have completed into their FIFOs
and makes a scheduling decision, and (3) the processor retires at
most one element access.  Read data is the only work in flight: the
MSU keeps it in its own heap and reports the earliest arrival as one
of its next action cycles.  Between interesting cycles the kernel
skips ahead; a blocked component is re-woken by the state changes
that can unblock it (a refresh or a landing re-arms an idle MSU in the
same cycle, a retire for the next one).  An instrumented run points
the refresh engines, the MSU and the processor at its ``obs``; with a
``telemetry_window`` it also gets a
:class:`~repro.obs.telemetry.TelemetryProbe`, wired last, that samples
the MSU.

The simulation ends when the processor has retired every access, all
FIFOs have drained, and no data is in flight.  The kernel's watchdog
raises :class:`~repro.errors.SchedulingError` if the system stops
making progress (which would indicate a controller bug, not a slow
run).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.smc import SmcSystem
from repro.memsys.config import ELEMENT_BYTES
from repro.obs.core import Instrumentation
from repro.obs.telemetry import TelemetryProbe, finalize_telemetry
from repro.rdram.audit import audit_memory
from repro.sim.kernel import Component, ResultBuilder, Simulation
from repro.sim.results import SimulationResult


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
        obs: Optional instrumentation for the refresh engines, the
            MSU (and its device) and the processor.  Each records only
            at state-change cycles, with the cycle of its tick, and
            both the dense and skip engines visit those cycles, so the
            two modes produce identical event streams.

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

    components: List[Component] = [*system.refresh, msu, processor]
    probe: Optional[TelemetryProbe] = None
    if obs is not None:
        for engine in system.refresh:
            engine.obs = obs
        msu.attach_obs(obs)
        processor.obs = obs
        if obs.telemetry_window:
            # The probe is passive (it cannot mask a deadlock) and only
            # forces window-boundary visits, which the dense/skip
            # equivalence contract proves cannot change results.
            probe = TelemetryProbe(
                obs.telemetry_window, obs.metrics, (msu.sample_telemetry,)
            )
            components.append(probe)

    Simulation(
        components,
        done=lambda: processor.done and sbu.all_drained and not msu.arrivals,
        label=(
            f"kernel={system.kernel.name}, "
            f"org={system.config.describe()}"
        ),
        max_cycles=max_cycles,
        dense=dense,
    ).run()

    end_cycle = max(msu.last_data_end, (processor.last_retire_cycle or 0))
    if obs is not None:
        msu.finish_observation(end_cycle)
        if probe is not None:
            probe.finish_observation(end_cycle)
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
