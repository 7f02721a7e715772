"""Cycle-level model of the Direct RDRAM devices on one Rambus channel.

The model owns three channel resources — the ROW command bus, the COL
command bus, and the dual-edge DATA bus — plus every device's banks of
sense amplifiers (eight on the paper's single device).  Controllers
drive it through an *earliest-legal-issue* interface: for each command
the model computes the first cycle at or after the requested cycle at
which every datasheet constraint is satisfied, reserves the buses,
updates bank state, and returns the scheduled cycles as plain ints.
Packet records (:mod:`repro.rdram.packets`) are built only when the
device records a trace.

Bank state is four per-bank lists — open row (None when closed), last
ACT start, last PRER start and last COL end — on which the device
applies the bank-local rules:

* t_RC — minimum spacing of ACT packets to the same bank,
* t_RCD — ACT to first COL packet,
* t_RAS — ACT to PRER,
* t_RP — PRER to next ACT,
* t_CPOL — maximum overlap of the last COL packet with PRER,
* COL only to the open row, ACT only to a closed bank.

Code outside the device reads a bank through :meth:`RdramDevice.bank`
(an immutable :class:`BankState` snapshot) or, on hot paths,
:meth:`RdramDevice.open_row` (which builds nothing).

Bus-level constraints enforced here:

* each sub-bus carries one packet per t_PACK window, so a DATA packet
  starting at cycle s ends at s + t_PACK,
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

Refresh is off by default, as in the paper (Section 4.1 ignores it):
the device issues none of its own.  A run that attaches a
:class:`~repro.rdram.refresh.RefreshEngine` (``RunSpec(refresh=True)``,
``repro-simulate --refresh``, ``run_traffic(refresh=...)``) has it
refresh through :meth:`RdramDevice.issue_act` and
:meth:`RdramDevice.issue_prer`.  Write-buffer retires appear only
through t_RW.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolError, require_int
from repro.obs.core import DataBusGap, Instrumentation
from repro.rdram.packets import (
    BusDirection,
    ColCommand,
    ColPacket,
    DataPacket,
    RowCommand,
    RowPacket,
)
from repro.rdram.timing import DATA_PACKET_BYTES, RdramTiming

#: Timestamp value meaning "never happened"; far enough in the past
#: that no constraint measured from it can bind.
NEVER = -(10**9)

# Module-level aliases: the COL path reads them for every packet, and
# a global costs far less than an attribute lookup on the enum class.
_READ = BusDirection.READ
_WRITE = BusDirection.WRITE


class BankState(NamedTuple):
    """One bank's state when :meth:`RdramDevice.bank` was called.

    A snapshot: it does not follow later issues, so read it again after
    the device moves (a :meth:`RdramDevice.sync_bank` included).

    Attributes:
        open_row: Row held in the sense amps, or None if the bank is
            precharged (closed).
        last_act_start: Start cycle of the most recent ACT (NEVER if
            none).
        last_prer_start: Start cycle of the most recent PRER (NEVER if
            none).
        last_col_end: End cycle of the most recent COL packet (NEVER if
            none).
    """

    open_row: Optional[int]
    last_act_start: int
    last_prer_start: int
    last_col_end: int

    @property
    def is_open(self) -> bool:
        """True if a row is held in the sense amps."""
        return self.open_row is not None


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
            require_int(name, getattr(self, name))
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


def _bank_out_of_range(index: int, num_banks: int) -> ProtocolError:
    return ProtocolError(
        f"bank index {index} out of range 0..{num_banks - 1}"
    )


def record_data_gap(
    gap_log: List[DataBusGap],
    memory,
    bank: int,
    now: int,
    reading: bool,
    col_start: int,
    delay: int,
) -> None:
    """Append a :class:`~repro.obs.core.DataBusGap` to ``gap_log`` for
    an access whose DATA packet leaves the bus idle before it.

    Must be called after the access's COL start is computed but before
    any bus/bank state is updated, and only when the DATA packet
    starts after the bus frees (``col_start + delay`` beyond
    ``memory._data_bus_free``): :meth:`RdramDevice.issue_access` and
    :meth:`RdramDevice.issue_col` test that, so an access with no gap
    costs no call.  ``memory`` is the
    :class:`RdramDevice` issuing the access; ``reading`` is True for a
    COL RD.
    """
    data_start = col_start + delay
    idle_from = memory._data_bus_free
    if reading and memory._last_data_dir is _WRITE:
        turnaround_until = memory._last_write_data_end + memory._t_rw
    else:
        turnaround_until = idle_from
    bank_ready = memory._act_starts[bank] + memory._t_rcd
    # Positional: keyword arguments double the tuple's build cost.
    gap_log.append(
        DataBusGap(
            idle_from,
            data_start,
            bank,
            "read" if reading else "write",
            turnaround_until,
            (bank_ready if bank_ready > 0 else 0) + delay,
            memory._col_bus_free + delay,
            now + delay,
        )
    )


class RdramDevice:
    """The Direct RDRAM devices on one Rambus channel.

    A plain :class:`RdramGeometry` is one device, the paper's system.
    A :class:`~repro.rdram.channel.ChannelGeometry` puts up to 32
    devices on the channel: they share the ROW, COL and DATA buses
    and the DATA-bus turnaround (which folds in the write-buffer
    retire), while each keeps its own banks and its own t_RR spacing
    between ACTs.  Bank indices are global (device d's bank b is index
    ``d * banks_per_device + b``), so every controller runs unmodified
    on any device count.

    Args:
        timing: Datasheet timing parameters.
        geometry: Bank/page geometry, of one device or of a channel.
        record_trace: When True (default) every scheduled packet is
            appended to :attr:`trace` for auditing and timeline
            rendering.  Disable for long benchmark sweeps: an untraced
            device builds no packet objects at all.
    """

    def __init__(
        self,
        timing: Optional[RdramTiming] = None,
        geometry: Optional[RdramGeometry] = None,
        record_trace: bool = True,
    ) -> None:
        self.timing = timing or RdramTiming()
        self.geometry = geometry or RdramGeometry()
        self.record_trace = record_trace
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
        #: :meth:`issue_access`; None behaves like the open policy
        #: (callers decide precharge flags themselves).
        self.page_manager = None
        #: Optional attached address mapping; a *stateful* mapping
        #: (``mapping.stateful``) is fed every access by
        #: :meth:`issue_access` so it can re-arrange at epoch
        #: boundaries.  None or a static mapping costs one branch.
        self.mapping = None
        # The geometry is frozen: read its shape once, not per issue.
        geometry = self.geometry
        self._num_banks = geometry.num_banks
        self._rows_per_bank = geometry.rows_per_bank
        self._packets_per_page = geometry.packets_per_page
        self._neighbors = [geometry.neighbors(b) for b in range(self._num_banks)]
        # So is the timing: its constants, as plain ints.
        timing = self.timing
        self._t_pack = timing.t_pack
        self._t_rr = timing.t_rr
        self._t_rc = timing.t_rc
        self._t_rcd = timing.t_rcd
        self._t_ras = timing.t_ras
        self._t_rp = timing.t_rp
        self._t_cpol = timing.t_cpol
        self._t_rw = timing.t_rw
        # COL-to-DATA delay per direction.
        self._read_delay = timing.read_data_delay()
        self._write_delay = timing.write_data_delay()
        self.trace: List[object] = []
        # t_RR spaces ACTs per device; a plain RdramGeometry is one.
        self._banks_per_device = getattr(geometry, "device", geometry).num_banks
        self._reset_state()

    def _reset_state(self) -> None:
        """Put the buses and every bank in the power-on state."""
        banks = self._num_banks
        # Per-bank state, one list per field (see BankState).
        self._open_rows: List[Optional[int]] = [None] * banks
        self._act_starts = [NEVER] * banks
        self._prer_starts = [NEVER] * banks
        self._col_ends = [NEVER] * banks
        self._row_bus_free = 0
        self._col_bus_free = 0
        self._data_bus_free = 0
        self._last_act_by_device = [NEVER] * (
            banks // self._banks_per_device
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

    def bank(self, index: int) -> BankState:
        """A snapshot of bank ``index`` (bounds-checked)."""
        if not 0 <= index < self._num_banks:
            raise _bank_out_of_range(index, self._num_banks)
        return BankState(
            self._open_rows[index],
            self._act_starts[index],
            self._prer_starts[index],
            self._col_ends[index],
        )

    def open_row(self, index: int) -> Optional[int]:
        """The row open in bank ``index``, or None (bounds-checked).

        Builds nothing, unlike :meth:`bank`: the hot open-row reads
        (scheduler picks, refresh) use it.
        """
        if not 0 <= index < self._num_banks:
            raise _bank_out_of_range(index, self._num_banks)
        return self._open_rows[index]

    def open_rows(self) -> Tuple[Optional[int], ...]:
        """The row open in every bank (None when closed), by bank index.

        A snapshot: one call reads the whole channel, where a
        reordering scheduler would otherwise call :meth:`open_row`
        once per queue position.  It does not sync the page manager
        (see :meth:`sync_banks`).
        """
        return tuple(self._open_rows)

    def earliest_act(self, bank: int, now: int) -> int:
        """First cycle >= now at which ACT to ``bank`` could start.

        The bank must be closed; ACT follows its last PRER by t_RP and
        its last ACT by t_RC.  t_RR counts from the last ACT to the
        same device only.  On double-bank cores, the activate also
        waits out t_RP from any neighbor's precharge, and requires both
        neighbors closed (raising :class:`~repro.errors.ProtocolError`
        otherwise, since no amount of waiting legalizes it — the
        controller must precharge the neighbor first).
        """
        if not 0 <= bank < self._num_banks:
            raise _bank_out_of_range(bank, self._num_banks)
        open_rows = self._open_rows
        if open_rows[bank] is not None:
            raise ProtocolError(
                f"bank {bank}: ACT while row {open_rows[bank]} is open; "
                "precharge first"
            )
        # Compare-and-assign chains: cheaper than max() on this path.
        earliest = self._act_starts[bank] + self._t_rc
        bound = self._prer_starts[bank] + self._t_rp
        if earliest < bound:
            earliest = bound
        if earliest < now:
            earliest = now
        if earliest < self._row_bus_free:
            earliest = self._row_bus_free
        device = bank // self._banks_per_device
        bound = self._last_act_by_device[device] + self._t_rr
        if earliest < bound:
            earliest = bound
        for neighbor in self._neighbors[bank]:
            if open_rows[neighbor] is not None:
                raise ProtocolError(
                    f"bank {bank}: ACT while adjacent bank {neighbor} is "
                    "open (shared sense amps on a double-bank core)"
                )
            earliest = max(earliest, self._prer_starts[neighbor] + self._t_rp)
        return earliest

    def earliest_prer(self, bank: int, now: int) -> int:
        """First cycle >= now at which PRER to ``bank`` could start.

        The bank must be open; PRER follows its ACT by t_RAS and may
        overlap its last COL packet by at most t_CPOL cycles.
        """
        if not 0 <= bank < self._num_banks:
            raise _bank_out_of_range(bank, self._num_banks)
        if self._open_rows[bank] is None:
            raise ProtocolError(f"bank {bank}: PRER while closed")
        return max(
            now,
            self._act_starts[bank] + self._t_ras,
            self._col_ends[bank] - self._t_cpol,
            self._row_bus_free,
        )

    def earliest_col(
        self, bank: int, row: int, now: int, direction: BusDirection
    ) -> int:
        """First cycle >= now at which a COL RD/WR could start.

        ``row`` must be the bank's open row, and the COL packet follows
        its ACT by t_RCD.  Accounts for COL-bus occupancy, DATA-bus
        occupancy at the derived transfer slot, and the write-to-read
        turnaround when ``direction`` is READ after write data.
        """
        if not 0 <= bank < self._num_banks:
            raise _bank_out_of_range(bank, self._num_banks)
        if self._open_rows[bank] != row:
            raise ProtocolError(
                f"bank {bank}: COL to row {row} but open row is "
                f"{self._open_rows[bank]}"
            )
        reading = direction is _READ
        delay = self._read_delay if reading else self._write_delay
        start = self._act_starts[bank] + self._t_rcd
        if start < now:
            start = now
        if start < self._col_bus_free:
            start = self._col_bus_free
        data_start = start + delay
        if data_start < self._data_bus_free:
            data_start = self._data_bus_free
        if reading and self._last_data_dir is _WRITE:
            turnaround = self._last_write_data_end + self._t_rw
            if data_start < turnaround:
                data_start = turnaround
        return data_start - delay

    # ------------------------------------------------------------------
    # issue operations

    def issue_act(self, bank: int, row: int, now: int) -> int:
        """Issue a ROW ACT opening ``row`` in ``bank`` at the earliest
        legal cycle at or after ``now``.

        Returns:
            The ACT packet's start cycle.
        """
        if not 0 <= row < self._rows_per_bank:
            raise ProtocolError(
                f"row {row} out of range 0..{self._rows_per_bank - 1}"
            )
        start = self.earliest_act(bank, now)
        if self.obs is not None:
            self.obs.counters.incr("device.row_act")
        # earliest_act bounds-checked the bank and found it closed.
        legal = self._act_starts[bank] + self._t_rc
        bound = self._prer_starts[bank] + self._t_rp
        if legal < bound:
            legal = bound
        if start < legal:
            raise ProtocolError(
                f"bank {bank}: ACT at {start} before legal cycle {legal}"
            )
        self._open_rows[bank] = row
        self._act_starts[bank] = start
        self._row_bus_free = start + self._t_pack
        self._last_act_by_device[bank // self._banks_per_device] = start
        if self.record_trace:
            self.trace.append(RowPacket(RowCommand.ACT, bank, row, start))
        return start

    def issue_prer(self, bank: int, now: int) -> int:
        """Issue a ROW PRER closing ``bank`` at the earliest legal cycle.

        Returns:
            The PRER packet's start cycle.
        """
        start = self.earliest_prer(bank, now)
        if self.obs is not None:
            self.obs.counters.incr("device.row_prer")
        self._close(bank, start, False)
        self._row_bus_free = start + self._t_pack
        if self.record_trace:
            self.trace.append(RowPacket(RowCommand.PRER, bank, None, start))
        return start

    def _close(self, bank: int, start: int, via_col: bool) -> None:
        """Record a PRER to open ``bank`` starting at ``start``.

        Emits the "row open" span the precharge ends when observed, so
        it runs before the bank's state changes.
        """
        legal = self._act_starts[bank] + self._t_ras
        bound = self._col_ends[bank] - self._t_cpol
        if legal < bound:
            legal = bound
        if self.obs is not None:
            self.obs.tracer.add_span(
                f"bank{bank}",
                f"row {self._open_rows[bank]}",
                self._act_starts[bank],
                start,
                via_col=via_col,
            )
        if start < legal:
            raise ProtocolError(
                f"bank {bank}: PRER at {start} before legal cycle {legal}"
            )
        self._open_rows[bank] = None
        self._prer_starts[bank] = start

    def issue_col(
        self,
        bank: int,
        row: int,
        column: int,
        now: int,
        direction: BusDirection,
        precharge: bool = False,
    ) -> Tuple[int, int, int]:
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
            ``(col_start, data_start, data_end)``: the COL packet's
            start, and the DATA packet's start and end.  The DATA
            packet holds the bus until ``data_start + t_PACK``.
        """
        if not 0 <= column < self._packets_per_page:
            raise ProtocolError(
                f"column {column} out of range "
                f"0..{self._packets_per_page - 1}"
            )
        start = self.earliest_col(bank, row, now, direction)
        # earliest_col bounds-checked the bank and matched its open row.
        reading = direction is _READ
        delay = self._read_delay if reading else self._write_delay
        t_pack = self._t_pack
        if self.obs is not None:
            self.obs.counters.incr("device.data_packets")
        if self.gap_log is not None and start + delay > self._data_bus_free:
            record_data_gap(
                self.gap_log, self, bank, now, reading, start, delay
            )
        act_start = self._act_starts[bank]
        if start < act_start + self._t_rcd:
            raise ProtocolError(
                f"bank {bank}: COL at {start} before legal cycle "
                f"{act_start + self._t_rcd}"
            )
        col_end = start + t_pack
        self._col_ends[bank] = col_end
        self._col_bus_free = col_end
        data_start = start + delay
        data_end = data_start + t_pack
        self._data_bus_free = data_end
        self._last_data_dir = direction
        if not reading:
            self._last_write_data_end = data_end
        self._data_packets_moved += 1
        if self.record_trace:
            self.trace.append(
                ColPacket(
                    ColCommand.RD if reading else ColCommand.WR,
                    bank,
                    row,
                    column,
                    start,
                )
            )
            self.trace.append(DataPacket(direction, bank, data_start, start))
        if precharge:
            # The precharge rides the COL packet: it takes effect at the
            # earliest bank-legal cycle at or after the COL packet, with
            # no ROW-bus occupancy and no t_RR interaction.
            prer_start = act_start + self._t_ras
            if prer_start < start:
                prer_start = start
            if prer_start < col_end - self._t_cpol:
                prer_start = col_end - self._t_cpol
            self._close(bank, prer_start, True)
            if self.record_trace:
                self.trace.append(
                    RowPacket(RowCommand.PRER, bank, None, prer_start, True)
                )
        return start, data_start, data_end

    def issue_access(
        self,
        bank: int,
        row: int,
        column: int,
        now: int,
        direction: BusDirection,
        precharge: bool = False,
    ) -> Tuple[int, int, int, int, int, bool]:
        """Issue one stream access, opening the row as needed.

        This is the single place the open/conflict/precharge decision
        is made: every controller (MSU, natural-order, L2 streamer,
        random driver, traffic server) routes its accesses through
        here.  The sequence is the historical one — precharge the
        target bank if it holds the wrong row, precharge any open
        double-bank neighbors, activate, then the COL packet — so the
        paper's CLI+closed and PI+open pairings are bit-identical to
        the pre-registry code.

        The access commits in this one frame: the target bank's PRER,
        the ACT and the COL packet (with its via-COL precharge) are
        computed and committed here, with the same bounds, protocol
        checks, trace and gap records and obs counters and spans, in
        the same order, as :meth:`issue_prer`, :meth:`issue_act` and
        :meth:`issue_col` called in sequence; only an open double-bank
        neighbor is closed through :meth:`issue_prer`.
        ``tests/test_issue_contract.py`` keeps that chained sequence as
        the reference this path is checked against.

        The attached :class:`~repro.memsys.pagemanager.PageManager` is
        consulted when it has runtime behavior: due timeouts are
        materialized before the bank is inspected, the access is fed
        to the predictor, and the manager may add a precharge flag to
        the COL packet.  ``precharge=True`` from the caller (a
        plan-time flag) is always honored.  A stateful attached
        mapping is fed the access afterwards.

        Returns:
            ``(first_cmd, col_start, data_start, data_end, conflicts,
            page_hit)``: the start of the first command the access
            needed (a forced PRER, the ACT, or the COL packet on a page
            hit); the COL and DATA cycles of :meth:`issue_col`; the
            precharges forced by open banks holding other rows (the
            target bank and, on double-bank cores, neighbors); and
            whether the needed row was already open.  A miss issues
            exactly one ACT.
        """
        if not 0 <= bank < self._num_banks:
            raise _bank_out_of_range(bank, self._num_banks)
        neighbors = self._neighbors[bank]
        manager = self.page_manager
        runtime = manager is not None and manager.runtime
        if runtime:
            manager.sync(self, bank, now)
            for neighbor in neighbors:
                manager.sync(self, neighbor, now)
        obs = self.obs
        record = self.record_trace
        t_pack = self._t_pack
        # Read after the syncs: they may have closed the bank.
        open_rows = self._open_rows
        act_starts = self._act_starts
        open_row = open_rows[bank]
        page_hit = open_row == row
        first_cmd: Optional[int] = None
        conflicts = 0
        if not page_hit:
            if open_row is not None:
                # PRER to the bank, as issue_prer: after t_RAS from its
                # ACT, overlapping its last COL by at most t_CPOL.
                conflicts = 1
                legal = act_starts[bank] + self._t_ras
                bound = self._col_ends[bank] - self._t_cpol
                if legal < bound:
                    legal = bound
                start = legal
                if start < now:
                    start = now
                if start < self._row_bus_free:
                    start = self._row_bus_free
                if obs is not None:
                    obs.counters.incr("device.row_prer")
                    obs.tracer.add_span(
                        f"bank{bank}",
                        f"row {open_row}",
                        act_starts[bank],
                        start,
                        via_col=False,
                    )
                if start < legal:
                    raise ProtocolError(
                        f"bank {bank}: PRER at {start} before legal cycle "
                        f"{legal}"
                    )
                open_rows[bank] = None
                self._prer_starts[bank] = start
                self._row_bus_free = start + t_pack
                if record:
                    self.trace.append(
                        RowPacket(RowCommand.PRER, bank, None, start)
                    )
                first_cmd = start
            for neighbor in neighbors:
                # Double-bank cores: an adjacent open bank shares the
                # sense amps and must be precharged first.
                if open_rows[neighbor] is not None:
                    conflicts += 1
                    start = self.issue_prer(neighbor, now)
                    if first_cmd is None:
                        first_cmd = start
            # ACT, as issue_act: t_RC after the bank's last ACT, t_RP
            # after its last PRER, the ROW bus, t_RR per device, and
            # t_RP after a double-bank neighbor's PRER.
            if not 0 <= row < self._rows_per_bank:
                raise ProtocolError(
                    f"row {row} out of range 0..{self._rows_per_bank - 1}"
                )
            if open_rows[bank] is not None:
                raise ProtocolError(
                    f"bank {bank}: ACT while row {open_rows[bank]} is open; "
                    "precharge first"
                )
            prer_starts = self._prer_starts
            legal = act_starts[bank] + self._t_rc
            bound = prer_starts[bank] + self._t_rp
            if legal < bound:
                legal = bound
            start = legal
            if start < now:
                start = now
            if start < self._row_bus_free:
                start = self._row_bus_free
            device = bank // self._banks_per_device
            bound = self._last_act_by_device[device] + self._t_rr
            if start < bound:
                start = bound
            for neighbor in neighbors:
                if open_rows[neighbor] is not None:
                    raise ProtocolError(
                        f"bank {bank}: ACT while adjacent bank {neighbor} "
                        "is open (shared sense amps on a double-bank core)"
                    )
                bound = prer_starts[neighbor] + self._t_rp
                if start < bound:
                    start = bound
            if obs is not None:
                obs.counters.incr("device.row_act")
            if start < legal:
                raise ProtocolError(
                    f"bank {bank}: ACT at {start} before legal cycle {legal}"
                )
            open_rows[bank] = row
            act_starts[bank] = start
            self._row_bus_free = start + t_pack
            self._last_act_by_device[device] = start
            if record:
                self.trace.append(RowPacket(RowCommand.ACT, bank, row, start))
            if first_cmd is None:
                first_cmd = start
        if runtime:
            manager.observe(self, bank, row)
            if not precharge:
                precharge = manager.close_after(self, bank, row)
        # COL, as issue_col: t_RCD after the ACT, the COL bus, the DATA
        # bus and the write-to-read turnaround.
        if not 0 <= column < self._packets_per_page:
            raise ProtocolError(
                f"column {column} out of range "
                f"0..{self._packets_per_page - 1}"
            )
        if open_rows[bank] != row:
            raise ProtocolError(
                f"bank {bank}: COL to row {row} but open row is "
                f"{open_rows[bank]}"
            )
        reading = direction is _READ
        delay = self._read_delay if reading else self._write_delay
        act_start = act_starts[bank]
        col_start = act_start + self._t_rcd
        if col_start < now:
            col_start = now
        if col_start < self._col_bus_free:
            col_start = self._col_bus_free
        data_start = col_start + delay
        data_bus_free = self._data_bus_free
        if data_start < data_bus_free:
            data_start = data_bus_free
        if reading and self._last_data_dir is _WRITE:
            turnaround = self._last_write_data_end + self._t_rw
            if data_start < turnaround:
                data_start = turnaround
        col_start = data_start - delay
        if obs is not None:
            obs.counters.incr("device.data_packets")
        if self.gap_log is not None and data_start > data_bus_free:
            record_data_gap(
                self.gap_log, self, bank, now, reading, col_start, delay
            )
        if col_start < act_start + self._t_rcd:
            raise ProtocolError(
                f"bank {bank}: COL at {col_start} before legal cycle "
                f"{act_start + self._t_rcd}"
            )
        col_end = col_start + t_pack
        self._col_ends[bank] = col_end
        self._col_bus_free = col_end
        data_end = data_start + t_pack
        self._data_bus_free = data_end
        self._last_data_dir = direction
        if not reading:
            self._last_write_data_end = data_end
        self._data_packets_moved += 1
        if record:
            self.trace.append(
                ColPacket(
                    ColCommand.RD if reading else ColCommand.WR,
                    bank,
                    row,
                    column,
                    col_start,
                )
            )
            self.trace.append(DataPacket(direction, bank, data_start, col_start))
        if precharge:
            # The precharge rides the COL packet, as in issue_col.
            legal = act_start + self._t_ras
            bound = col_end - self._t_cpol
            if legal < bound:
                legal = bound
            start = legal if legal > col_start else col_start
            if obs is not None:
                obs.tracer.add_span(
                    f"bank{bank}",
                    f"row {open_rows[bank]}",
                    act_start,
                    start,
                    via_col=True,
                )
            if start < legal:
                raise ProtocolError(
                    f"bank {bank}: PRER at {start} before legal cycle {legal}"
                )
            open_rows[bank] = None
            self._prer_starts[bank] = start
            if record:
                self.trace.append(
                    RowPacket(RowCommand.PRER, bank, None, start, True)
                )
        if first_cmd is None:
            first_cmd = col_start
        mapping = self.mapping
        if mapping is not None and mapping.stateful:
            remaps = mapping.observe_access(bank, row, now)
            if remaps and obs is not None:
                obs.counters.incr("device.remap_events", remaps)
        if obs is not None:
            obs.counters.incr(
                "device.page_hits" if page_hit else "device.page_misses"
            )
            if conflicts:
                obs.counters.incr("device.bank_conflicts", conflicts)
        return first_cmd, col_start, data_start, data_end, conflicts, page_hit

    def sync_bank(self, index: int, now: int) -> None:
        """Materialize any page-manager action due on a bank.

        Call before inspecting a bank's open-row state from outside
        the access path (e.g. look-ahead scheduling policies); a no-op
        without a runtime page manager.
        """
        if self.page_manager is not None and self.page_manager.runtime:
            self.page_manager.sync(self, index, now)

    def sync_banks(self, indices: Iterable[int], now: int) -> None:
        """:meth:`sync_bank` each bank in ``indices``, in order.

        The runtime check is made once, so a lazy ``indices`` is not
        even consumed without a runtime page manager (e.g. a
        reordering scheduler syncing its whole window each pick).
        """
        manager = self.page_manager
        if manager is not None and manager.runtime:
            for index in indices:
                manager.sync(self, index, now)

    def autoclose(self, bank: int, due: int) -> None:
        """Close a bank from a page-manager timeout at cycle ``due``.

        Modeled like a COL-riding precharge: the PRER takes effect at
        the earliest bank-legal cycle at or after ``due``, with no
        ROW-bus occupancy.  ``due`` may be in the past relative to the
        current access — the bank was untouched since, so the late
        materialization is exact.
        """
        if not 0 <= bank < self._num_banks:
            raise _bank_out_of_range(bank, self._num_banks)
        if self._open_rows[bank] is None:
            raise ProtocolError(f"bank {bank}: PRER while closed")
        start = max(
            due,
            self._act_starts[bank] + self._t_ras,
            self._col_ends[bank] - self._t_cpol,
        )
        if self.obs is not None:
            self.obs.counters.incr("device.autoclose")
        self._close(bank, start, True)
        if self.record_trace:
            self.trace.append(RowPacket(RowCommand.PRER, bank, None, start, True))

    def finish_observation(self, end_cycle: int) -> None:
        """Close any still-open "row open" spans at the end of a run."""
        if self.obs is None:
            return
        for bank, row in enumerate(self._open_rows):
            if row is not None:
                self.obs.tracer.add_span(
                    f"bank{bank}",
                    f"row {row}",
                    self._act_starts[bank],
                    end_cycle,
                    open_at_end=True,
                )

    def reset(self) -> None:
        """Return the buses, all banks, the page manager and the
        attached mapping's monitor state to the power-on state."""
        self._reset_state()
        if self.page_manager is not None:
            self.page_manager.reset()
        if self.mapping is not None:
            self.mapping.reset()
        self.trace.clear()
