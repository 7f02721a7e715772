"""Shared base of the whole-cacheline controllers.

The natural-order baseline, its cache-realistic variant, the random
cacheline driver and the L2 streamer differ in *which* lines they move
and when, but not in how: each moves whole cachelines through one
memory from :func:`~repro.rdram.channel.make_memory`, which carries
the configured page manager and address mapping, next to an optional
background refresh engine, on one kernel run.
:class:`LineController` owns those three pieces so each controller
keeps only its own transaction order and tallies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.memsys.config import MemorySystemConfig
from repro.rdram.channel import make_memory
from repro.rdram.packets import BusDirection
from repro.rdram.refresh import RefreshEngine

if TYPE_CHECKING:
    from repro.obs.core import Instrumentation
    from repro.sim.kernel import Component


class LineController:
    """Whole-cacheline transactions on one RDRAM device or channel.

    Args:
        config: Memory organization (geometry, or the topology's
            ``devices_per_channel``, may make it a channel).
        record_trace: Record the device packet trace for auditing.
        refresh: Run a background :class:`RefreshEngine` alongside the
            controller's run.

    Raises:
        ConfigurationError: If the topology has several channels; a
            line controller drives one channel's buses.
    """

    def __init__(
        self,
        config: MemorySystemConfig,
        record_trace: bool = False,
        refresh: bool = False,
    ) -> None:
        if config.topology.channels > 1:
            raise ConfigurationError(
                f"{type(self).__name__} drives one channel's buses, not "
                f"a {config.topology.describe()} fabric; run "
                "multi-channel topologies through simulate() or "
                "run_traffic()"
            )
        self.config = config
        self.device = make_memory(config, record_trace=record_trace)
        self.refresh = refresh
        self.refreshes_issued = 0

    def issue_line(
        self, line_address: int, direction: BusDirection, start_at: int
    ) -> Tuple[int, int, int, int, int, int]:
        """Issue one full-cacheline transaction, no earlier than ``start_at``.

        Each DATA packet of the line routes through the device's shared
        access path (:meth:`repro.rdram.device.RdramDevice.issue_access`),
        which owns the open/conflict decision and consults the page
        manager; the plan-time precharge flag goes on the last packet of
        the line when the manager plants precharges (the closed-page
        policy).

        Returns:
            (first command start, first DATA packet start, last DATA
            packet end, precharges forced by bank conflicts, page hits,
            page misses).
        """
        decompose = self.device.mapping.decompose
        issue_access = self.device.issue_access
        last = self.config.packets_per_cacheline - 1
        plans_precharge = self.device.page_manager.plans_precharge
        forced = 0
        hits = 0
        for offset in range(last + 1):
            location = decompose(line_address + offset * 16)
            cmd, _, data_start, data_end, conflicts, page_hit = issue_access(
                location.bank,
                location.row,
                location.column,
                start_at,
                direction,
                precharge=plans_precharge and offset == last,
            )
            forced += conflicts
            if page_hit:
                hits += 1
            if offset == 0:
                first_cmd = cmd
                first_data = data_start
        return first_cmd, first_data, data_end, forced, hits, last + 1 - hits

    def _drive(
        self,
        component: Component,
        *,
        max_cycles: int,
        label: str,
        dense: bool,
        obs: Optional[Instrumentation] = None,
    ) -> int:
        """Run ``component`` until its ``done`` property holds.

        One kernel run per controller run: the optional background
        refresh engine plus ``component``, on
        :class:`~repro.sim.kernel.Simulation`.

        Returns:
            The final visited cycle.
        """
        # Imported here, not at module scope: repro.sim's package pulls
        # in repro.core for plan building, and repro.core's package
        # imports the L2 streamer, a subclass of this class.
        from repro.sim.kernel import BackgroundComponent, Simulation

        self.refreshes_issued = 0
        components: List[Component] = []
        if self.refresh:
            refresh_engine = RefreshEngine(self.device)
            components.append(BackgroundComponent(refresh_engine))
        components.append(component)
        final_cycle = Simulation(
            components,
            done=lambda: component.done,
            max_cycles=max_cycles,
            label=label,
            dense=dense,
            obs=obs,
        ).run()
        if self.refresh:
            self.refreshes_issued = refresh_engine.refreshes_issued
        return final_cycle
