"""Independent protocol auditor for Direct RDRAM packet traces.

The auditor re-derives every timing constraint from the raw packet
trace a device recorded, *without* reusing the device's scheduling
logic.  Any run of the simulator can therefore be checked end-to-end:
if the device or a controller ever schedules an illegal packet, the
audit raises :class:`~repro.errors.ProtocolError` naming the violated
rule.  Tests, the ``audit=True`` debug switch of the simulation
runner and ``repro-simulate --audit`` use this; :func:`audit_memory`
audits each channel of a memory against that channel's own geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ProtocolError
from repro.rdram.device import NEVER
from repro.rdram.packets import (
    BusDirection,
    ColPacket,
    DataPacket,
    RowCommand,
    RowPacket,
)
from repro.rdram.timing import RdramTiming


@dataclass
class _BankReplay:
    """Replayed state of one bank during an audit pass."""

    open_row: Optional[int] = None
    last_act: int = NEVER
    last_prer: int = NEVER
    last_col_end: int = NEVER


@dataclass
class AuditReport:
    """Summary statistics gathered while auditing a trace.

    Attributes:
        row_packets: ROW packets that occupied the row bus.
        col_packets: COL packets audited.
        data_packets: DATA packets audited.
        turnarounds: Write-to-read bus direction changes observed.
        banks_touched: Distinct banks referenced by the trace.
    """

    row_packets: int = 0
    col_packets: int = 0
    data_packets: int = 0
    turnarounds: int = 0
    banks_touched: int = 0


def _sort_key(packet: object) -> tuple:
    # Replay in start order; at equal start cycles, apply ROW ACT
    # before COL (t_RCD makes same-cycle pairs impossible on one bank,
    # but different banks may legitimately tie) and PRER last so a
    # same-cycle COL still sees the open row.
    if isinstance(packet, RowPacket):
        priority = 2 if packet.command is RowCommand.PRER else 0
    elif isinstance(packet, ColPacket):
        priority = 1
    else:
        priority = 3
    return (packet.start, priority)


def audit_trace(
    trace: Sequence[object],
    timing: Optional[RdramTiming] = None,
    num_banks: int = 8,
    doubled_banks: bool = False,
    banks_per_device: Optional[int] = None,
) -> AuditReport:
    """Verify a packet trace against the RDRAM protocol.

    Args:
        trace: Packets recorded by :class:`~repro.rdram.device.RdramDevice`
            or :class:`~repro.rdram.channel.RambusChannel` (ROW, COL,
            and DATA packets in any order; channels use global bank
            indices).
        timing: Timing parameters the trace should obey.
        num_banks: Banks on the device (global count for a channel).
        doubled_banks: Enforce the double-bank core's shared-sense-amp
            rules (neighbors of an activating bank must be closed, and
            the activate honors t_RP from a neighbor's precharge).
        banks_per_device: For multi-device channels: t_RR applies
            between ROW ACT packets to the *same device*, and
            double-bank adjacency never crosses a device boundary.
            None means a single device.

    Returns:
        An :class:`AuditReport` with trace statistics.

    Raises:
        ProtocolError: If any datasheet constraint is violated.
    """
    timing = timing or RdramTiming()
    report = AuditReport()
    banks: Dict[int, _BankReplay] = {i: _BankReplay() for i in range(num_banks)}
    per_device = banks_per_device or num_banks
    row_bus_free = NEVER
    col_bus_free = NEVER
    data_bus_free = NEVER
    last_act_by_device: Dict[int, int] = {}
    last_write_data_end = NEVER
    last_data_dir: Optional[BusDirection] = None
    touched = set()

    for packet in sorted(trace, key=_sort_key):
        if isinstance(packet, RowPacket):
            bank = _get_bank(banks, packet.bank)
            touched.add(packet.bank)
            if not packet.via_col:
                if packet.start < row_bus_free:
                    raise ProtocolError(
                        f"row bus collision at cycle {packet.start}"
                    )
                row_bus_free = packet.start + timing.t_pack
                report.row_packets += 1
            if packet.command is RowCommand.ACT:
                device = packet.bank // per_device
                previous_act = last_act_by_device.get(device, NEVER)
                _check(
                    packet.start - previous_act >= timing.t_rr,
                    f"t_RR violated on device {device}: ACTs at "
                    f"{previous_act} and {packet.start}",
                )
                _check(
                    bank.open_row is None,
                    f"ACT to open bank {packet.bank} at {packet.start}",
                )
                _check(
                    packet.start - bank.last_act >= timing.t_rc,
                    f"t_RC violated on bank {packet.bank}: ACTs at "
                    f"{bank.last_act} and {packet.start}",
                )
                _check(
                    packet.start - bank.last_prer >= timing.t_rp,
                    f"t_RP violated on bank {packet.bank}: PRER at "
                    f"{bank.last_prer}, ACT at {packet.start}",
                )
                if doubled_banks:
                    for neighbor_index in (packet.bank - 1, packet.bank + 1):
                        if neighbor_index not in banks:
                            continue
                        if neighbor_index // per_device != device:
                            continue  # adjacency never crosses devices
                        neighbor = banks[neighbor_index]
                        _check(
                            neighbor.open_row is None,
                            f"double-bank: ACT to bank {packet.bank} while "
                            f"adjacent bank {neighbor_index} open at "
                            f"{packet.start}",
                        )
                        _check(
                            packet.start - neighbor.last_prer >= timing.t_rp,
                            f"double-bank: t_RP from neighbor "
                            f"{neighbor_index} violated at {packet.start}",
                        )
                bank.open_row = packet.row
                bank.last_act = packet.start
                last_act_by_device[device] = packet.start
            else:  # PRER
                _check(
                    bank.open_row is not None,
                    f"PRER to closed bank {packet.bank} at {packet.start}",
                )
                _check(
                    packet.start - bank.last_act >= timing.t_ras,
                    f"t_RAS violated on bank {packet.bank}: ACT at "
                    f"{bank.last_act}, PRER at {packet.start}",
                )
                _check(
                    packet.start >= bank.last_col_end - timing.t_cpol,
                    f"t_CPOL violated on bank {packet.bank}: COL ends "
                    f"{bank.last_col_end}, PRER at {packet.start}",
                )
                bank.open_row = None
                bank.last_prer = packet.start
        elif isinstance(packet, ColPacket):
            bank = _get_bank(banks, packet.bank)
            touched.add(packet.bank)
            _check(
                packet.start >= col_bus_free,
                f"col bus collision at cycle {packet.start}",
            )
            col_bus_free = packet.start + timing.t_pack
            _check(
                bank.open_row == packet.row,
                f"COL to bank {packet.bank} row {packet.row} but open row "
                f"is {bank.open_row} at cycle {packet.start}",
            )
            _check(
                packet.start - bank.last_act >= timing.t_rcd,
                f"t_RCD violated on bank {packet.bank}: ACT at "
                f"{bank.last_act}, COL at {packet.start}",
            )
            bank.last_col_end = packet.start + timing.t_pack
            report.col_packets += 1
        elif isinstance(packet, DataPacket):
            _check(
                packet.start >= data_bus_free,
                f"data bus collision at cycle {packet.start}",
            )
            data_bus_free = packet.start + timing.t_pack
            expected_delay = (
                timing.read_data_delay()
                if packet.direction is BusDirection.READ
                else timing.write_data_delay()
            )
            _check(
                packet.start - packet.source_col_start == expected_delay,
                f"data packet at {packet.start} does not follow its COL "
                f"packet at {packet.source_col_start} by {expected_delay}",
            )
            if (
                packet.direction is BusDirection.READ
                and last_data_dir is BusDirection.WRITE
            ):
                _check(
                    packet.start - last_write_data_end >= timing.t_rw,
                    f"t_RW violated: write data ends {last_write_data_end}, "
                    f"read data at {packet.start}",
                )
                report.turnarounds += 1
            if packet.direction is BusDirection.WRITE:
                last_write_data_end = packet.start + timing.t_pack
            last_data_dir = packet.direction
            report.data_packets += 1
        else:
            raise ProtocolError(f"unknown trace record {packet!r}")

    report.banks_touched = len(touched)
    return report


def audit_memory(memory) -> List[AuditReport]:
    """Audit each channel's packet trace against its own geometry.

    Args:
        memory: A memory built with ``record_trace=True`` (see
            :func:`~repro.rdram.channel.make_memory`): a device, a
            multi-device channel, or a fabric, whose channels have
            independent buses and so are audited one by one.

    Returns:
        One :class:`AuditReport` per channel, in channel order.

    Raises:
        ProtocolError: If any channel's trace breaks the protocol.
    """
    from repro.rdram.fabric import channel_memories

    return [
        audit_trace(
            channel.trace,
            timing=channel.timing,
            num_banks=channel.geometry.num_banks,
            doubled_banks=channel.geometry.doubled_banks,
            banks_per_device=getattr(
                channel.geometry, "device", channel.geometry
            ).num_banks,
        )
        for channel in channel_memories(memory)
    ]


def _get_bank(banks: Dict[int, _BankReplay], index: int) -> _BankReplay:
    if index not in banks:
        raise ProtocolError(f"bank index {index} outside the device")
    return banks[index]


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)
