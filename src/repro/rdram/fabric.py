"""A fabric of independent Rambus channels behind one device interface.

One :class:`~repro.rdram.channel.RambusChannel` shares a single ROW
bus, COL bus and dual-edge DATA bus among its devices; ganging
*channels* multiplies all three.  :class:`MemoryFabric` holds N fully
independent per-channel memories — each with private bus state, bank
state, write buffer and page manager — and routes global bank indices
to them: channel ``c``'s local bank ``b`` is global index
``c * banks_per_channel + b``, the same globalization scheme
:class:`~repro.rdram.channel.ChannelGeometry` uses for device banks.
Every controller in the library therefore runs unmodified against a
fabric, and accesses routed to different channels overlap in time
because nothing below the controller is shared.

Page managers hold per-bank state keyed by channel-local indices, so
the fabric owns one manager per channel (built by the
``page_manager_factory`` given to it); likewise refresh walks each
channel's devices independently through one
:class:`~repro.rdram.refresh.RefreshEngine` per channel, aggregated by
:class:`FabricRefreshEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.obs.core import DataBusGap, Instrumentation
from repro.rdram.bank import Bank
from repro.rdram.channel import ChannelGeometry, make_memory
from repro.rdram.device import AccessIssue, RdramDevice, RdramGeometry
from repro.rdram.packets import BusDirection, RowPacket
from repro.rdram.refresh import DEFAULT_INTERVAL_CYCLES, RefreshEngine
from repro.rdram.timing import RdramTiming


@dataclass(frozen=True)
class FabricGeometry:
    """Geometry of a channel fabric, in global bank indices.

    Duck-compatible with :class:`~repro.rdram.device.RdramGeometry`
    wherever the library needs ``num_banks`` / ``page_bytes`` /
    ``rows_per_bank`` / ``capacity_bytes`` / ``packets_per_page`` /
    ``neighbors``; adjacency never crosses a channel boundary.

    Attributes:
        channels: Independent channels in the fabric.
        channel: Per-channel geometry (a single device's, or a
            :class:`~repro.rdram.channel.ChannelGeometry` for
            multi-device channels).
    """

    channels: int
    channel: object

    def __post_init__(self) -> None:
        if isinstance(self.channels, bool) or not isinstance(
            self.channels, int
        ):
            raise ConfigurationError(
                f"channels must be an integer, got {self.channels!r}"
            )
        if self.channels < 1:
            raise ConfigurationError(
                f"a fabric needs at least one channel, got {self.channels}"
            )
        if not isinstance(self.channel, (RdramGeometry, ChannelGeometry)):
            raise ConfigurationError(
                "per-channel geometry must be an RdramGeometry or "
                f"ChannelGeometry, got {type(self.channel).__name__}"
            )

    @property
    def banks_per_channel(self) -> int:
        return self.channel.num_banks

    @property
    def num_banks(self) -> int:
        """Global bank count across all channels."""
        return self.channels * self.channel.num_banks

    @property
    def page_bytes(self) -> int:
        return self.channel.page_bytes

    @property
    def rows_per_bank(self) -> int:
        return self.channel.rows_per_bank

    @property
    def doubled_banks(self) -> bool:
        return self.channel.doubled_banks

    @property
    def capacity_bytes(self) -> int:
        return self.channels * self.channel.capacity_bytes

    @property
    def packets_per_page(self) -> int:
        return self.channel.packets_per_page

    def channel_of(self, global_bank: int) -> int:
        """Channel owning a global bank."""
        return global_bank // self.channel.num_banks

    def local_bank(self, global_bank: int) -> int:
        """Bank index within its channel."""
        return global_bank % self.channel.num_banks

    def neighbors(self, global_bank: int) -> Tuple[int, ...]:
        """Sense-amp-sharing neighbors, never crossing channels."""
        base = global_bank - self.local_bank(global_bank)
        return tuple(
            base + local
            for local in self.channel.neighbors(self.local_bank(global_bank))
        )


class MemoryFabric:
    """N independent channels behind the RdramDevice interface.

    Args:
        timing: Shared timing parameters (each channel runs its own
            copy of the bus-state machine under them).
        channels: Channel count.
        channel_geometry: Per-channel geometry.
        record_trace: Record packets on every channel for auditing.
        explicit_retire: Model write-buffer retires as COL RET packets.
        page_manager_factory: Called once per channel to build that
            channel's page manager (None leaves channels unmanaged).
    """

    def __init__(
        self,
        timing: Optional[RdramTiming] = None,
        channels: int = 2,
        channel_geometry=None,
        record_trace: bool = True,
        explicit_retire: bool = False,
        page_manager_factory: Optional[Callable[[], object]] = None,
    ) -> None:
        self.timing = timing or RdramTiming()
        self.geometry = FabricGeometry(
            channels=channels,
            channel=channel_geometry or RdramGeometry(),
        )
        self.record_trace = record_trace
        self.explicit_retire = explicit_retire
        self._obs: Optional[Instrumentation] = None
        self._gap_log: Optional[List[DataBusGap]] = None
        self._mapping = None
        self.channel_memories: List[RdramDevice] = [
            make_memory(
                timing=self.timing,
                geometry=self.geometry.channel,
                record_trace=record_trace,
                explicit_retire=explicit_retire,
                page_manager_factory=page_manager_factory,
            )
            for _ in range(channels)
        ]
        #: Flat global-bank view across channels (telemetry samples it).
        self.banks: List[Bank] = [
            bank for memory in self.channel_memories for bank in memory.banks
        ]

    # ------------------------------------------------------------------
    # routing

    def _route(self, global_bank: int) -> Tuple[object, int]:
        if not 0 <= global_bank < self.geometry.num_banks:
            raise ProtocolError(
                f"global bank {global_bank} out of range "
                f"0..{self.geometry.num_banks - 1}"
            )
        return (
            self.channel_memories[self.geometry.channel_of(global_bank)],
            self.geometry.local_bank(global_bank),
        )

    # ------------------------------------------------------------------
    # queries (RdramDevice interface)

    @property
    def obs(self) -> Optional[Instrumentation]:
        """Shared instrumentation, propagated to every channel."""
        return self._obs

    @obs.setter
    def obs(self, obs: Optional[Instrumentation]) -> None:
        self._obs = obs
        for memory in self.channel_memories:
            memory.obs = obs

    @property
    def gap_log(self) -> Optional[List[DataBusGap]]:
        """Shared DATA-bus gap hook, propagated to every channel.

        The channels append to one list in issue order, so gaps of
        different channels interleave.
        """
        return self._gap_log

    @gap_log.setter
    def gap_log(self, gap_log: Optional[List[DataBusGap]]) -> None:
        self._gap_log = gap_log
        for memory in self.channel_memories:
            memory.gap_log = gap_log

    @property
    def page_manager(self):
        """Per-channel managers; the fabric itself holds none."""
        return None

    @page_manager.setter
    def page_manager(self, manager) -> None:
        if manager is not None:
            raise ConfigurationError(
                "a MemoryFabric holds one page manager per channel "
                "(pass page_manager_factory when building it); a single "
                "shared manager would collide on local bank indices"
            )

    @property
    def mapping(self):
        """Shared address mapping, propagated to every channel.

        Channel memories issue channel-local bank indices, so the
        attached mapping must accept local banks in
        ``observe_access`` — :class:`~repro.memsys.address.ChannelStriping`
        delegates to its per-channel base mapping, which is exactly
        that bank space.
        """
        return self._mapping

    @mapping.setter
    def mapping(self, mapping) -> None:
        self._mapping = mapping
        for memory in self.channel_memories:
            memory.mapping = mapping

    @property
    def bytes_transferred(self) -> int:
        """Total bytes moved across all channels' DATA buses."""
        return sum(m.bytes_transferred for m in self.channel_memories)

    def channel_bytes(self) -> Tuple[int, ...]:
        """Bytes moved on each channel's DATA bus, in channel order."""
        return tuple(m.bytes_transferred for m in self.channel_memories)

    @property
    def trace(self) -> List[object]:
        """All channels' packets, interleaved by start cycle.

        Per-channel traces are authoritative for auditing (the shared
        auditor assumes one set of buses); this merged view exists for
        inspection only.
        """
        merged = [
            packet for m in self.channel_memories for packet in m.trace
        ]
        merged.sort(key=lambda packet: packet.start)
        return merged

    def bank(self, index: int) -> Bank:
        """Global bank ``index`` (bounds-checked)."""
        memory, local = self._route(index)
        return memory.bank(local)

    def earliest_act(self, bank: int, now: int) -> int:
        memory, local = self._route(bank)
        return memory.earliest_act(local, now)

    def earliest_prer(self, bank: int, now: int) -> int:
        memory, local = self._route(bank)
        return memory.earliest_prer(local, now)

    def earliest_col(
        self, bank: int, row: int, now: int, direction: BusDirection
    ) -> int:
        memory, local = self._route(bank)
        return memory.earliest_col(local, row, now, direction)

    # ------------------------------------------------------------------
    # issue operations (RdramDevice interface)

    def issue_act(self, bank: int, row: int, now: int) -> RowPacket:
        memory, local = self._route(bank)
        return memory.issue_act(local, row, now)

    def issue_prer(self, bank: int, now: int) -> RowPacket:
        memory, local = self._route(bank)
        return memory.issue_prer(local, now)

    def issue_col(
        self,
        bank: int,
        row: int,
        column: int,
        now: int,
        direction: BusDirection,
        precharge: bool = False,
    ):
        memory, local = self._route(bank)
        return memory.issue_col(local, row, column, now, direction, precharge)

    def issue_access(
        self,
        bank: int,
        row: int,
        column: int,
        now: int,
        direction: BusDirection,
        precharge: bool = False,
    ) -> AccessIssue:
        """Issue one full stream access on the owning channel."""
        memory, local = self._route(bank)
        return memory.issue_access(
            local, row, column, now, direction, precharge=precharge
        )

    def sync_bank(self, index: int, now: int) -> None:
        """Materialize page-manager actions due on a global bank."""
        memory, local = self._route(index)
        memory.sync_bank(local, now)

    def autoclose(self, bank: int, due: int) -> None:
        memory, local = self._route(bank)
        memory.autoclose(local, due)

    def finish_observation(self, end_cycle: int) -> None:
        for memory in self.channel_memories:
            memory.finish_observation(end_cycle)

    def reset(self) -> None:
        """Return every channel to the power-on state."""
        for memory in self.channel_memories:
            memory.reset()


class FabricRefreshEngine:
    """Per-channel refresh, aggregated behind the background protocol.

    Each channel gets its own :class:`~repro.rdram.refresh.RefreshEngine`
    walking that channel's devices on the standard retention cadence;
    because the channels' buses are independent, the engines refresh in
    parallel exactly as independent memory controllers would.  The
    aggregate satisfies the kernel's
    :class:`~repro.sim.kernel.BackgroundEngine` protocol so one
    :class:`~repro.sim.kernel.BackgroundComponent` drives all channels.
    """

    def __init__(
        self,
        fabric: MemoryFabric,
        interval: int = DEFAULT_INTERVAL_CYCLES,
        force_after: int = 8,
    ) -> None:
        self.fabric = fabric
        self.engines = [
            RefreshEngine(memory, interval=interval, force_after=force_after)
            for memory in fabric.channel_memories
        ]
        self._obs: Optional[Instrumentation] = None

    @property
    def obs(self) -> Optional[Instrumentation]:
        return self._obs

    @obs.setter
    def obs(self, obs: Optional[Instrumentation]) -> None:
        self._obs = obs
        for engine in self.engines:
            engine.obs = obs

    @property
    def refreshes_issued(self) -> int:
        return sum(engine.refreshes_issued for engine in self.engines)

    @property
    def deferrals(self) -> int:
        return sum(engine.deferrals for engine in self.engines)

    @property
    def forced_precharges(self) -> int:
        return sum(engine.forced_precharges for engine in self.engines)

    @property
    def next_action_cycle(self) -> int:
        return min(engine.next_action_cycle for engine in self.engines)

    def tick(self, cycle: int) -> bool:
        fired = False
        for engine in self.engines:
            fired = engine.tick(cycle) or fired
        return fired
