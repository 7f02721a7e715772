"""A Rambus channel holding multiple Direct RDRAM devices.

The paper evaluates "a memory system composed of a single Direct
RDRAM device" and notes that Crisp's reported 95 % efficiency came
from "a system with many devices" under more random access patterns
(Section 6).  This module models that fuller system: up to 32 devices
share one channel — one ROW bus, one COL bus, one dual-edge DATA bus —
while each device keeps its own banks, sense amps, write buffer and
per-device t_RR constraint.

:class:`RambusChannel` exposes the same interface as
:class:`~repro.rdram.device.RdramDevice` with *global* bank indices
(device d's bank b is global index ``d * banks_per_device + b``), so
every controller in the library — the SMC and the natural-order
baseline — runs unmodified against a channel; pair it with a
:class:`ChannelGeometry` in the memory-system configuration and the
address map spreads interleave units across all devices' banks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.obs.core import DataBusGap, Instrumentation
from repro.rdram.bank import NEVER, Bank
from repro.rdram.device import (
    AccessIssue,
    RdramGeometry,
    ScheduledAccess,
    flush_bank_observation,
    perform_access,
    record_bank_close,
    record_data_gap,
)
from repro.rdram.packets import (
    BusDirection,
    ColCommand,
    ColPacket,
    DataPacket,
    RowCommand,
    RowPacket,
)
from repro.rdram.timing import DATA_PACKET_BYTES, RdramTiming


@dataclass(frozen=True)
class ChannelGeometry:
    """Geometry of a multi-device channel, in global bank indices.

    Duck-compatible with :class:`~repro.rdram.device.RdramGeometry`
    wherever the library needs ``num_banks`` / ``page_bytes`` /
    ``rows_per_bank`` / ``capacity_bytes`` / ``packets_per_page`` /
    ``neighbors``; the double-bank adjacency never crosses a device
    boundary.

    Attributes:
        num_devices: RDRAM devices on the channel (a Direct Rambus
            channel supports up to 32).
        device: Per-device geometry.
    """

    num_devices: int = 4
    device: RdramGeometry = field(default_factory=RdramGeometry)

    def __post_init__(self) -> None:
        if isinstance(self.num_devices, bool) or not isinstance(
            self.num_devices, int
        ):
            raise ConfigurationError(
                f"num_devices must be an integer, got {self.num_devices!r}"
            )
        if not 1 <= self.num_devices <= 32:
            raise ConfigurationError(
                "a Rambus channel holds 1 to 32 devices, got "
                f"{self.num_devices}"
            )
        if not isinstance(self.device, RdramGeometry):
            # A nested ChannelGeometry (or any other duck) would expose
            # a plausible num_banks yet mis-map neighbors() and the
            # per-device t_RR bookkeeping; reject it outright.
            raise ConfigurationError(
                "ChannelGeometry.device must be an RdramGeometry "
                "(channels do not nest); got "
                f"{type(self.device).__name__}"
            )
        if self.device.num_banks < 1 or self.device.rows_per_bank < 1:
            raise ConfigurationError(
                "channel device geometry must hold at least one bank "
                f"and one row, got {self.device.num_banks} banks x "
                f"{self.device.rows_per_bank} rows"
            )

    @property
    def num_banks(self) -> int:
        """Global bank count across all devices."""
        return self.num_devices * self.device.num_banks

    @property
    def page_bytes(self) -> int:
        return self.device.page_bytes

    @property
    def rows_per_bank(self) -> int:
        return self.device.rows_per_bank

    @property
    def doubled_banks(self) -> bool:
        return self.device.doubled_banks

    @property
    def capacity_bytes(self) -> int:
        return self.num_devices * self.device.capacity_bytes

    @property
    def packets_per_page(self) -> int:
        return self.device.packets_per_page

    def device_of(self, global_bank: int) -> int:
        """Device index owning a global bank."""
        return global_bank // self.device.num_banks

    def local_bank(self, global_bank: int) -> int:
        """Bank index within its device."""
        return global_bank % self.device.num_banks

    def neighbors(self, global_bank: int) -> Tuple[int, ...]:
        """Sense-amp-sharing neighbors, never crossing devices."""
        base = global_bank - self.local_bank(global_bank)
        return tuple(
            base + local
            for local in self.device.neighbors(self.local_bank(global_bank))
        )


def make_memory(
    timing: Optional[RdramTiming] = None,
    geometry=None,
    record_trace: bool = True,
    explicit_retire: bool = False,
    page_manager=None,
    topology=None,
    page_manager_factory=None,
):
    """Build the right memory model for a geometry and topology.

    A :class:`ChannelGeometry` yields a :class:`RambusChannel`; an
    :class:`~repro.rdram.device.RdramGeometry` (or None) yields a
    single :class:`~repro.rdram.device.RdramDevice`.  Controllers are
    agnostic — both expose the same interface.  An optional
    :class:`~repro.memsys.pagemanager.PageManager` is attached for the
    ``issue_access`` path to consult.

    A :class:`~repro.memsys.config.MemoryTopology` widens the build:
    ``devices_per_channel > 1`` wraps the per-device geometry in a
    :class:`ChannelGeometry`, and ``channels > 1`` yields a
    :class:`~repro.rdram.fabric.MemoryFabric` of independent channels.
    Page managers hold per-bank state keyed by channel-local bank
    index, so a fabric needs one manager *per channel*: pass
    ``page_manager_factory`` (called once per channel) instead of a
    shared ``page_manager``.
    """
    from repro.rdram.device import RdramDevice

    if topology is not None and not topology.single:
        if isinstance(geometry, ChannelGeometry):
            raise ConfigurationError(
                "pass the per-device geometry alongside a topology; a "
                "ChannelGeometry already encodes device multiplicity"
            )
        if topology.channels > 1:
            from repro.rdram.fabric import MemoryFabric

            if page_manager is not None and page_manager_factory is None:
                raise ConfigurationError(
                    "a multi-channel fabric needs a page_manager_factory "
                    "(one manager per channel); a shared page_manager "
                    "would collide on channel-local bank indices"
                )
            return MemoryFabric(
                timing=timing,
                channels=topology.channels,
                channel_geometry=(
                    ChannelGeometry(
                        num_devices=topology.devices_per_channel,
                        device=geometry or RdramGeometry(),
                    )
                    if topology.devices_per_channel > 1
                    else geometry or RdramGeometry()
                ),
                record_trace=record_trace,
                explicit_retire=explicit_retire,
                page_manager_factory=page_manager_factory,
            )
        geometry = ChannelGeometry(
            num_devices=topology.devices_per_channel,
            device=geometry or RdramGeometry(),
        )

    if isinstance(geometry, ChannelGeometry):
        memory = RambusChannel(
            timing=timing,
            geometry=geometry,
            record_trace=record_trace,
            explicit_retire=explicit_retire,
        )
    else:
        memory = RdramDevice(
            timing=timing,
            geometry=geometry,
            record_trace=record_trace,
            explicit_retire=explicit_retire,
        )
    if page_manager is None and page_manager_factory is not None:
        page_manager = page_manager_factory()
    memory.page_manager = page_manager
    return memory


class RambusChannel:
    """Multiple RDRAM devices behind the RdramDevice interface.

    All bus-level state (packet bus exclusivity, data-bus turnaround,
    write-buffer retire) is channel-global; bank state and the t_RR
    row-packet spacing are per device, which is exactly what lets a
    many-device channel hide single-device dead time under random
    loads.

    Args:
        timing: Channel/device timing parameters.
        geometry: Channel geometry (device count x per-device layout).
        record_trace: Record all packets for auditing.
        explicit_retire: Model write-buffer retires as COL RET packets.
    """

    def __init__(
        self,
        timing: Optional[RdramTiming] = None,
        geometry: Optional[ChannelGeometry] = None,
        record_trace: bool = True,
        explicit_retire: bool = False,
    ) -> None:
        self.timing = timing or RdramTiming()
        self.geometry = geometry or ChannelGeometry()
        self.record_trace = record_trace
        self.explicit_retire = explicit_retire
        #: Optional instrumentation (see RdramDevice.obs).
        self.obs: Optional[Instrumentation] = None
        #: Optional DATA-bus gap hook (see RdramDevice.gap_log).
        self.gap_log: Optional[List[DataBusGap]] = None
        #: Optional page-management strategy (see RdramDevice.page_manager).
        self.page_manager = None
        #: Optional attached address mapping (see RdramDevice.mapping).
        self.mapping = None
        self.banks: List[Bank] = [
            Bank(index=i, timing=self.timing)
            for i in range(self.geometry.num_banks)
        ]
        self.trace: List[object] = []
        # COL-to-DATA delay per direction; the timing is frozen.
        self._data_delay = {
            BusDirection.READ: self.timing.read_data_delay(),
            BusDirection.WRITE: self.timing.write_data_delay(),
        }
        self._row_bus_free = 0
        self._col_bus_free = 0
        self._data_bus_free = 0
        self._last_act_by_device = [NEVER] * self.geometry.num_devices
        self._last_write_data_end = NEVER
        self._last_data_dir: Optional[BusDirection] = None
        self._data_packets_moved = 0
        self._retire_pending = False

    # ------------------------------------------------------------------
    # queries (RdramDevice interface)

    @property
    def bytes_transferred(self) -> int:
        """Total bytes moved on the shared DATA bus."""
        return self._data_packets_moved * DATA_PACKET_BYTES

    def bank(self, index: int) -> Bank:
        """Global bank ``index`` (bounds-checked)."""
        if not 0 <= index < self.geometry.num_banks:
            raise ProtocolError(
                f"global bank {index} out of range "
                f"0..{self.geometry.num_banks - 1}"
            )
        return self.banks[index]

    def earliest_act(self, bank: int, now: int) -> int:
        """First legal ACT start: bank rules, t_RR within the owning
        device, shared ROW bus, and double-bank adjacency."""
        device = self.geometry.device_of(bank)
        earliest = max(
            self.bank(bank).earliest_act(now),
            self._row_bus_free,
            self._last_act_by_device[device] + self.timing.t_rr,
        )
        for neighbor in self.geometry.neighbors(bank):
            neighbor_bank = self.banks[neighbor]
            if neighbor_bank.is_open:
                raise ProtocolError(
                    f"bank {bank}: ACT while adjacent bank {neighbor} is "
                    "open (shared sense amps on a double-bank core)"
                )
            earliest = max(
                earliest, neighbor_bank.last_prer_start + self.timing.t_rp
            )
        return earliest

    def earliest_prer(self, bank: int, now: int) -> int:
        """First legal PRER start (bank rules, shared ROW bus)."""
        return max(self.bank(bank).earliest_prer(now), self._row_bus_free)

    def earliest_col(
        self, bank: int, row: int, now: int, direction: BusDirection
    ) -> int:
        """First legal COL start (bank rules, shared COL/DATA buses,
        channel-global turnaround and retire slot)."""
        delay = self._data_delay[direction]
        col_bus_free = self._col_bus_free
        if (
            direction is BusDirection.READ
            and self.explicit_retire
            and self._retire_pending
        ):
            col_bus_free += self.timing.t_pack
        start = max(self.bank(bank).earliest_col(now, row), col_bus_free)
        data_start = max(start + delay, self._data_bus_free)
        if direction is BusDirection.READ and self._last_data_dir is BusDirection.WRITE:
            data_start = max(
                data_start, self._last_write_data_end + self.timing.t_rw
            )
        return data_start - delay

    # ------------------------------------------------------------------
    # issue operations (RdramDevice interface)

    def issue_act(self, bank: int, row: int, now: int) -> RowPacket:
        """Issue a ROW ACT on the shared row bus."""
        if not 0 <= row < self.geometry.rows_per_bank:
            raise ProtocolError(
                f"row {row} out of range 0..{self.geometry.rows_per_bank - 1}"
            )
        start = self.earliest_act(bank, now)
        if self.obs is not None:
            self.obs.counters.incr("device.row_act")
        self.bank(bank).apply_act(start, row)
        self._row_bus_free = start + self.timing.t_pack
        self._last_act_by_device[self.geometry.device_of(bank)] = start
        packet = RowPacket(command=RowCommand.ACT, bank=bank, row=row, start=start)
        if self.record_trace:
            self.trace.append(packet)
        return packet

    def issue_prer(self, bank: int, now: int) -> RowPacket:
        """Issue a ROW PRER on the shared row bus."""
        start = self.earliest_prer(bank, now)
        if self.obs is not None:
            self.obs.counters.incr("device.row_prer")
            record_bank_close(self.obs, self.bank(bank), bank, start)
        self.bank(bank).apply_prer(start)
        self._row_bus_free = start + self.timing.t_pack
        packet = RowPacket(command=RowCommand.PRER, bank=bank, row=None, start=start)
        if self.record_trace:
            self.trace.append(packet)
        return packet

    def issue_col(
        self,
        bank: int,
        row: int,
        column: int,
        now: int,
        direction: BusDirection,
        precharge: bool = False,
    ) -> ScheduledAccess:
        """Issue a COL RD/WR moving one DATA packet on the shared bus."""
        if not 0 <= column < self.geometry.packets_per_page:
            raise ProtocolError(
                f"column {column} out of range "
                f"0..{self.geometry.packets_per_page - 1}"
            )
        start = self.earliest_col(bank, row, now, direction)
        # earliest_col bounds-checked the bank.
        bank_obj = self.banks[bank]
        delay = self._data_delay[direction]
        if self.obs is not None:
            self.obs.counters.incr("device.data_packets")
        if self.gap_log is not None:
            record_data_gap(
                self.gap_log,
                self,
                bank_obj,
                bank,
                row,
                now,
                direction,
                start,
                delay,
            )
        if (
            direction is BusDirection.READ
            and self.explicit_retire
            and self._retire_pending
        ):
            retire = ColPacket(
                command=ColCommand.RET,
                bank=bank,
                row=row,
                column=0,
                start=start - self.timing.t_pack,
            )
            if self.record_trace:
                self.trace.append(retire)
            self._retire_pending = False
        bank_obj.apply_col(start, row)
        self._col_bus_free = start + self.timing.t_pack
        data_start = start + delay
        data = DataPacket(
            direction=direction, bank=bank, start=data_start, source_col_start=start
        )
        self._data_bus_free = data_start + self.timing.t_pack
        self._last_data_dir = direction
        if direction is BusDirection.WRITE:
            self._last_write_data_end = data_start + self.timing.t_pack
            self._retire_pending = True
        self._data_packets_moved += 1
        cmd = ColCommand.RD if direction is BusDirection.READ else ColCommand.WR
        col = ColPacket(command=cmd, bank=bank, row=row, column=column, start=start)
        if self.record_trace:
            self.trace.append(col)
            self.trace.append(data)
        if precharge:
            prer_start = bank_obj.earliest_prer(start)
            if self.obs is not None:
                record_bank_close(
                    self.obs, bank_obj, bank, prer_start, via_col=True
                )
            bank_obj.apply_prer(prer_start)
            if self.record_trace:
                self.trace.append(
                    RowPacket(
                        command=RowCommand.PRER,
                        bank=bank,
                        row=None,
                        start=prer_start,
                        via_col=True,
                    )
                )
        return ScheduledAccess(col=col, data=data, precharged=precharge)

    def issue_access(
        self,
        bank: int,
        row: int,
        column: int,
        now: int,
        direction: BusDirection,
        precharge: bool = False,
    ) -> AccessIssue:
        """Issue one full stream access (see
        :func:`repro.rdram.device.perform_access`)."""
        return perform_access(
            self, bank, row, column, now, direction, precharge=precharge
        )

    def sync_bank(self, index: int, now: int) -> None:
        """Materialize any page-manager action due on a global bank."""
        if self.page_manager is not None and self.page_manager.runtime:
            self.page_manager.sync(self, index, now)

    def autoclose(self, bank: int, due: int) -> None:
        """Close a bank from a page-manager timeout (no ROW-bus cost)."""
        bank_obj = self.bank(bank)
        start = bank_obj.earliest_prer(due)
        if self.obs is not None:
            self.obs.counters.incr("device.autoclose")
            record_bank_close(self.obs, bank_obj, bank, start, via_col=True)
        bank_obj.apply_prer(start)
        if self.record_trace:
            self.trace.append(
                RowPacket(
                    command=RowCommand.PRER,
                    bank=bank,
                    row=None,
                    start=start,
                    via_col=True,
                )
            )

    def finish_observation(self, end_cycle: int) -> None:
        """Close any still-open "row open" spans at the end of a run."""
        if self.obs is not None:
            flush_bank_observation(self.obs, self.banks, end_cycle)

    def reset(self) -> None:
        """Return the channel and all devices to the power-on state."""
        for bank in self.banks:
            bank.reset()
        if self.page_manager is not None:
            self.page_manager.reset()
        self.trace.clear()
        self._row_bus_free = 0
        self._col_bus_free = 0
        self._data_bus_free = 0
        self._last_act_by_device = [NEVER] * self.geometry.num_devices
        self._last_write_data_end = NEVER
        self._last_data_dir = None
        self._data_packets_moved = 0
        self._retire_pending = False
