"""Cycle-level model of the Direct RDRAM devices on one Rambus channel.

The model owns three channel resources — the ROW command bus, the COL
command bus, and the dual-edge DATA bus — plus every device's banks of
sense amplifiers (eight on the paper's single device).  Controllers
drive it through an *earliest-legal-issue* interface: for each command
the model computes the first cycle at or after the requested cycle at
which every datasheet constraint is satisfied, reserves the buses,
updates bank state, and returns the scheduled packet.

Constraints enforced here (bank-local rules live in
:mod:`repro.rdram.bank`):

* each sub-bus carries one packet per t_PACK window,
* t_RR between consecutive ROW ACT packets to the same device,
* read DATA follows its COL RD by t_CAC + t_RDLY; write DATA follows
  its COL WR by t_CAC (no round-trip delay for writes),
* cycling the DATA bus from write back to read inserts the t_RW
  turnaround, which folds in the write-buffer retire packet
  (Section 5 of the paper: "we combine these two latencies into t_RW"),
* a COL packet may carry a precharge flag, modeling the Direct RDRAM's
  ability to initiate a precharge from a COL packet ("COL packets may
  also initiate a precharge operation") so that closed-page policies do
  not consume ROW-bus bandwidth for every PRER.

The paper's modeling simplifications are honored: no refresh engine,
and write-buffer retires appear only through t_RW.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.obs.core import DataBusGap, Instrumentation
from repro.rdram.bank import NEVER, Bank
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
class RdramGeometry:
    """Physical geometry of one RDRAM device.

    Defaults model the paper's 64 Mbit part: eight independent banks
    with 1 Kbyte pages (128 64-bit words per page).

    Some RDRAM cores use a "double bank" architecture (Section 2.2):
    sixteen banks whose adjacent pairs share sense-amplifier strips, so
    "two adjacent banks cannot be accessed simultaneously, making the
    total number of independent banks effectively eight".  Set
    ``doubled_banks=True`` (typically with ``num_banks=16``) to model
    that: activating a bank then requires both neighbors to be
    precharged, and the activate additionally honors t_RP measured
    from a neighbor's precharge (the shared strip must settle).

    Attributes:
        num_banks: Banks on the device.
        page_bytes: Sense-amp (page) size per bank, in bytes.
        rows_per_bank: Number of rows (pages) per bank.
        doubled_banks: Adjacent banks share sense amps.
    """

    num_banks: int = 8
    page_bytes: int = 1024
    rows_per_bank: int = 1024
    doubled_banks: bool = False

    def __post_init__(self) -> None:
        for name in ("num_banks", "page_bytes", "rows_per_bank"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
        if not isinstance(self.doubled_banks, bool):
            raise ConfigurationError(
                f"doubled_banks must be a bool, got {self.doubled_banks!r}"
            )
        if self.num_banks <= 0 or self.page_bytes <= 0 or self.rows_per_bank <= 0:
            raise ConfigurationError("geometry fields must be positive")
        if self.page_bytes % DATA_PACKET_BYTES:
            raise ConfigurationError(
                "page size must be a whole number of DATA packets: "
                f"{self.page_bytes} % {DATA_PACKET_BYTES} != 0"
            )
        if self.doubled_banks and self.num_banks < 2:
            raise ConfigurationError(
                "a double-bank core needs at least two banks"
            )

    def neighbors(self, bank: int) -> Tuple[int, ...]:
        """Banks sharing sense amps with ``bank`` (double-bank cores).

        Adjacent pairs share a strip, so bank k neighbors k-1 and k+1
        within the device (no wraparound: the outermost strips are
        dedicated).
        """
        if not self.doubled_banks:
            return ()
        candidates = (bank - 1, bank + 1)
        return tuple(b for b in candidates if 0 <= b < self.num_banks)

    @property
    def capacity_bytes(self) -> int:
        """Total device capacity."""
        return self.num_banks * self.page_bytes * self.rows_per_bank

    @property
    def packets_per_page(self) -> int:
        """DATA packets held by one page."""
        return self.page_bytes // DATA_PACKET_BYTES


def record_data_gap(
    gap_log: List[DataBusGap],
    memory,
    bank_obj: Bank,
    bank_index: int,
    row: int,
    now: int,
    direction: BusDirection,
    col_start: int,
    delay: int,
) -> None:
    """Append a :class:`~repro.obs.core.DataBusGap` to ``gap_log`` for
    an access whose DATA packet leaves the bus idle before it.

    Must be called after the access's COL start is computed but before
    any bus/bank state is updated.  ``memory`` is the
    :class:`RdramDevice` issuing the access.
    """
    data_start = col_start + delay
    idle_from = memory._data_bus_free
    if data_start <= idle_from:
        return
    if (
        direction is BusDirection.READ
        and memory._last_data_dir is BusDirection.WRITE
    ):
        turnaround_until = memory._last_write_data_end + memory.timing.t_rw
    else:
        turnaround_until = idle_from
    col_bus_free = memory._col_bus_free
    if (
        direction is BusDirection.READ
        and memory.explicit_retire
        and memory._retire_pending
    ):
        col_bus_free += memory.timing.t_pack
    # Positional: keyword arguments double the tuple's build cost.
    gap_log.append(
        DataBusGap(
            idle_from,
            data_start,
            bank_index,
            direction.value,
            turnaround_until,
            bank_obj.earliest_col(0, row) + delay,
            col_bus_free + delay,
            now + delay,
        )
    )


def record_bank_close(
    obs: Instrumentation,
    bank_obj: Bank,
    bank_index: int,
    prer_start: int,
    via_col: bool = False,
) -> None:
    """Emit the "row open" span ended by a precharge.

    Must be called before the precharge is applied (the open row and
    its activate timestamp are read off the bank).
    """
    obs.tracer.add_span(
        f"bank{bank_index}",
        f"row {bank_obj.open_row}",
        bank_obj.last_act_start,
        prer_start,
        via_col=via_col,
    )


@dataclass
class ScheduledAccess:
    """Result of issuing a column access.

    Attributes:
        col: The COL command packet as scheduled.
        data: The DATA packet the access produces or consumes.
        precharged: True if the COL packet carried a precharge flag.
    """

    col: ColPacket
    data: DataPacket
    precharged: bool


@dataclass
class AccessIssue:
    """Result of one full stream access through :func:`perform_access`.

    Attributes:
        access: The scheduled COL/DATA packets.
        first_cmd: Start cycle of the first command the access needed
            (a forced PRER, the ACT, or the COL packet on a page hit).
        activated: True if the access issued a ROW ACT.
        conflicts: Precharges forced by open banks holding other rows
            (the target bank and, on double-bank cores, neighbors).
        page_hit: True if the needed row was already open.
    """

    access: ScheduledAccess
    first_cmd: int
    activated: bool
    conflicts: int
    page_hit: bool


def perform_access(
    memory,
    bank_index: int,
    row: int,
    column: int,
    now: int,
    direction: BusDirection,
    precharge: bool = False,
) -> AccessIssue:
    """Issue one stream access, opening the row as needed.

    This is the single place the open/conflict/precharge decision is
    made: every controller (MSU, natural-order, L2 streamer, random
    driver) routes its accesses through here via
    ``memory.issue_access``.  The sequence is the historical one —
    precharge the target bank if it holds the wrong row, precharge any
    open double-bank neighbors, activate, then the COL packet — so the
    paper's CLI+closed and PI+open pairings are bit-identical to the
    pre-registry code.

    The memory's attached :class:`~repro.memsys.pagemanager.PageManager`
    is consulted when it has runtime behavior: due timeouts are
    materialized before the bank is inspected, the access is fed to
    the predictor, and the manager may add a precharge flag to the COL
    packet.  ``precharge=True`` from the caller (a plan-time flag) is
    always honored.
    """
    manager = memory.page_manager
    runtime = manager is not None and manager.runtime
    if runtime:
        manager.sync(memory, bank_index, now)
        for neighbor in memory.geometry.neighbors(bank_index):
            manager.sync(memory, neighbor, now)
    bank_obj = memory.bank(bank_index)
    page_hit = bank_obj.open_row == row
    first_cmd: Optional[int] = None
    conflicts = 0
    activated = False
    if not page_hit:
        if bank_obj.is_open:
            conflicts += 1
            packet = memory.issue_prer(bank_index, now)
            first_cmd = packet.start
        for neighbor in memory.geometry.neighbors(bank_index):
            # Double-bank cores: an adjacent open bank shares the
            # sense amps and must be precharged first.
            if memory.bank(neighbor).is_open:
                conflicts += 1
                packet = memory.issue_prer(neighbor, now)
                if first_cmd is None:
                    first_cmd = packet.start
        packet = memory.issue_act(bank_index, row, now)
        if first_cmd is None:
            first_cmd = packet.start
        activated = True
    if runtime:
        manager.observe(memory, bank_index, row)
        if not precharge:
            precharge = manager.close_after(memory, bank_index, row)
    access = memory.issue_col(
        bank_index, row, column, now, direction, precharge=precharge
    )
    if first_cmd is None:
        first_cmd = access.col.start
    mapping = getattr(memory, "mapping", None)
    if mapping is not None and mapping.stateful:
        remaps = mapping.observe_access(bank_index, row, now)
        if remaps and memory.obs is not None:
            memory.obs.counters.incr("device.remap_events", remaps)
    if memory.obs is not None:
        memory.obs.counters.incr(
            "device.page_hits" if page_hit else "device.page_misses"
        )
        if conflicts:
            memory.obs.counters.incr("device.bank_conflicts", conflicts)
    return AccessIssue(
        access=access,
        first_cmd=first_cmd,
        activated=activated,
        conflicts=conflicts,
        page_hit=page_hit,
    )


class RdramDevice:
    """The Direct RDRAM devices on one Rambus channel.

    A plain :class:`RdramGeometry` is one device, the paper's system.
    A :class:`~repro.rdram.channel.ChannelGeometry` puts up to 32
    devices on the channel: they share the ROW, COL and DATA buses,
    the DATA-bus turnaround and the write-buffer retire slot, while
    each keeps its own banks and its own t_RR spacing between ACTs.
    Bank indices are global (device d's bank b is index
    ``d * banks_per_device + b``), so every controller runs unmodified
    on any device count.

    Args:
        timing: Datasheet timing parameters.
        geometry: Bank/page geometry, of one device or of a channel.
        record_trace: When True (default) every scheduled packet is
            appended to :attr:`trace` for auditing and timeline
            rendering.  Disable for long benchmark sweeps.
    """

    def __init__(
        self,
        timing: Optional[RdramTiming] = None,
        geometry: Optional[RdramGeometry] = None,
        record_trace: bool = True,
        explicit_retire: bool = False,
    ) -> None:
        self.timing = timing or RdramTiming()
        self.geometry = geometry or RdramGeometry()
        self.record_trace = record_trace
        #: When True, the write-buffer retire is modeled as an explicit
        #: COL RET packet occupying the COL bus between the last WR and
        #: the next RD, instead of being folded into t_RW alone.  Both
        #: models yield identical data timing (t_RW = t_PACK + t_RDLY);
        #: the explicit form additionally consumes a COL-bus slot, as
        #: the real protocol does.
        self.explicit_retire = explicit_retire
        self._retire_pending = False
        #: Optional instrumentation; attach one to record counters and
        #: bank-row spans.  None (the default) costs one branch per
        #: issue.
        self.obs: Optional[Instrumentation] = None
        #: Optional DATA-bus gap hook: every idle interval before a
        #: DATA packet is appended here as a
        #: :class:`~repro.obs.core.DataBusGap`.  Attaching an
        #: Instrumentation points it at ``obs.gaps``; the traffic layer
        #: points it at each channel server's own list.  None (the
        #: default) costs one branch per COL packet.
        self.gap_log: Optional[List[DataBusGap]] = None
        #: Optional page-management strategy consulted by
        #: :func:`perform_access`; None behaves like the open policy
        #: (callers decide precharge flags themselves).
        self.page_manager = None
        #: Optional attached address mapping; a *stateful* mapping
        #: (``mapping.stateful``) is fed every access by
        #: :func:`perform_access` so it can re-arrange at epoch
        #: boundaries.  None or a static mapping costs one branch.
        self.mapping = None
        self.banks: List[Bank] = [
            Bank(index=i, timing=self.timing) for i in range(self.geometry.num_banks)
        ]
        self.trace: List[object] = []
        # COL-to-DATA delay per direction; the timing is frozen.
        self._data_delay = {
            BusDirection.READ: self.timing.read_data_delay(),
            BusDirection.WRITE: self.timing.write_data_delay(),
        }
        # t_RR spaces ACTs per device; a plain RdramGeometry is one.
        self._banks_per_device = getattr(
            self.geometry, "device", self.geometry
        ).num_banks
        self._row_bus_free = 0
        self._col_bus_free = 0
        self._data_bus_free = 0
        self._last_act_by_device = [NEVER] * (
            self.geometry.num_banks // self._banks_per_device
        )
        self._last_write_data_end = NEVER
        self._last_data_dir: Optional[BusDirection] = None
        self._data_packets_moved = 0

    # ------------------------------------------------------------------
    # queries

    @property
    def bytes_transferred(self) -> int:
        """Total bytes moved on the DATA bus so far."""
        return self._data_packets_moved * DATA_PACKET_BYTES

    def bank(self, index: int) -> Bank:
        """The bank object at ``index`` (bounds-checked)."""
        if not 0 <= index < self.geometry.num_banks:
            raise ProtocolError(
                f"bank index {index} out of range 0..{self.geometry.num_banks - 1}"
            )
        return self.banks[index]

    def earliest_act(self, bank: int, now: int) -> int:
        """First cycle >= now at which ACT to ``bank`` could start.

        t_RR counts from the last ACT to the same device only.  On
        double-bank cores, the activate also waits out t_RP from
        any neighbor's precharge, and requires both neighbors closed
        (raising :class:`~repro.errors.ProtocolError` otherwise, since
        no amount of waiting legalizes it — the controller must
        precharge the neighbor first).
        """
        earliest = max(
            self.bank(bank).earliest_act(now),
            self._row_bus_free,
            self._last_act_by_device[bank // self._banks_per_device]
            + self.timing.t_rr,
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
        """First cycle >= now at which PRER to ``bank`` could start."""
        return max(self.bank(bank).earliest_prer(now), self._row_bus_free)

    def earliest_col(
        self, bank: int, row: int, now: int, direction: BusDirection
    ) -> int:
        """First cycle >= now at which a COL RD/WR could start.

        Accounts for bank readiness, COL-bus occupancy, DATA-bus
        occupancy at the derived transfer slot, and the write-to-read
        turnaround when ``direction`` is READ after write data.
        """
        delay = self._data_delay[direction]
        col_bus_free = self._col_bus_free
        if (
            direction is BusDirection.READ
            and self.explicit_retire
            and self._retire_pending
        ):
            # A COL RET packet must go out between the last WR and this
            # RD; leave it a COL-bus slot.
            col_bus_free += self.timing.t_pack
        start = max(self.bank(bank).earliest_col(now, row), col_bus_free)
        data_start = max(start + delay, self._data_bus_free)
        if direction is BusDirection.READ and self._last_data_dir is BusDirection.WRITE:
            data_start = max(
                data_start, self._last_write_data_end + self.timing.t_rw
            )
        return data_start - delay

    # ------------------------------------------------------------------
    # issue operations

    def issue_act(self, bank: int, row: int, now: int) -> RowPacket:
        """Issue a ROW ACT opening ``row`` in ``bank`` at the earliest
        legal cycle at or after ``now``.

        Returns:
            The scheduled ROW packet.
        """
        if not 0 <= row < self.geometry.rows_per_bank:
            raise ProtocolError(
                f"row {row} out of range 0..{self.geometry.rows_per_bank - 1}"
            )
        start = self.earliest_act(bank, now)
        if self.obs is not None:
            self.obs.counters.incr("device.row_act")
        self.bank(bank).apply_act(start, row)
        self._row_bus_free = start + self.timing.t_pack
        self._last_act_by_device[bank // self._banks_per_device] = start
        packet = RowPacket(command=RowCommand.ACT, bank=bank, row=row, start=start)
        if self.record_trace:
            self.trace.append(packet)
        return packet

    def issue_prer(self, bank: int, now: int) -> RowPacket:
        """Issue a ROW PRER closing ``bank`` at the earliest legal cycle."""
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
        """Issue a COL RD/WR moving one DATA packet.

        Args:
            bank: Target bank.
            row: Open row the access is served from.
            column: DATA-packet index within the row.
            now: Earliest cycle the controller wants the packet.
            direction: READ or WRITE.
            precharge: Carry a precharge flag, closing the bank once
                the bank-local precharge constraints allow.

        Returns:
            The scheduled COL and DATA packets.
        """
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
            # The precharge rides the COL packet: it takes effect at the
            # earliest bank-legal cycle at or after the COL packet, with
            # no ROW-bus occupancy and no t_RR interaction.
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
        """Issue one full stream access (see :func:`perform_access`)."""
        return perform_access(
            self, bank, row, column, now, direction, precharge=precharge
        )

    def sync_bank(self, index: int, now: int) -> None:
        """Materialize any page-manager action due on a bank.

        Call before inspecting a bank's open-row state from outside
        the access path (e.g. look-ahead scheduling policies); a no-op
        without a runtime page manager.
        """
        if self.page_manager is not None and self.page_manager.runtime:
            self.page_manager.sync(self, index, now)

    def autoclose(self, bank: int, due: int) -> None:
        """Close a bank from a page-manager timeout at cycle ``due``.

        Modeled like a COL-riding precharge: the PRER takes effect at
        the earliest bank-legal cycle at or after ``due``, with no
        ROW-bus occupancy.  ``due`` may be in the past relative to the
        current access — the bank was untouched since, so the late
        materialization is exact.
        """
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
        if self.obs is None:
            return
        for bank_obj in self.banks:
            if bank_obj.is_open:
                self.obs.tracer.add_span(
                    f"bank{bank_obj.index}",
                    f"row {bank_obj.open_row}",
                    bank_obj.last_act_start,
                    end_cycle,
                    open_at_end=True,
                )

    def reset(self) -> None:
        """Return the buses and all banks to the power-on state."""
        for bank in self.banks:
            bank.reset()
        if self.page_manager is not None:
            self.page_manager.reset()
        self.trace.clear()
        self._row_bus_free = 0
        self._col_bus_free = 0
        self._data_bus_free = 0
        self._last_act_by_device = [NEVER] * len(self._last_act_by_device)
        self._last_write_data_end = NEVER
        self._last_data_dir = None
        self._data_packets_moved = 0
        self._retire_pending = False
