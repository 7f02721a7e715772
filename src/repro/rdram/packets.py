"""Command and data packet types for the Direct RDRAM channel.

All communication with a Direct RDRAM happens in t_PACK-cycle packets
on three sub-buses: a ROW command bus (ACT / PRER packets), a COL
command bus (RD / WR packets, plus retires folded into the turnaround
model), and the 16-bit dual-edge DATA bus.  This module defines the
command vocabulary and the trace records a device emits when it
records a trace, which the protocol auditor and the experiment
timelines consume.

The records are named tuples: cheap to build, immutable and hashable.
Each one's first field is of its own enum type (:class:`RowCommand`,
:class:`ColCommand`, :class:`BusDirection`), so packets of different
kinds never compare equal.  A packet occupies its bus from ``start``
for the device timing's t_PACK cycles.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional


class RowCommand(enum.Enum):
    """Commands carried by ROW packets."""

    ACT = "ACT"
    PRER = "PRER"


class ColCommand(enum.Enum):
    """Commands carried by COL packets.

    The write-buffer retire has no packet of its own: as in the paper
    (Section 5), its latency is folded into the t_RW turnaround.
    """

    RD = "RD"
    WR = "WR"


class BusDirection(enum.Enum):
    """Direction of a DATA packet on the channel.

    READ data travels from the RDRAM to the controller; WRITE data
    travels with the commands.  Cycling the bus from WRITE back to READ
    costs the turnaround time t_RW.
    """

    READ = "read"
    WRITE = "write"


class RowPacket(NamedTuple):
    """A ROW command packet occupying the row bus for t_PACK cycles.

    Attributes:
        command: ACT or PRER.
        bank: Target bank index on the device.
        row: Target row for ACT; ignored (None) for PRER.
        start: Interface-clock cycle at which the packet starts.
        via_col: True for a precharge carried by a COL packet's
            precharge flag; such a precharge affects bank state but
            does not occupy the ROW command bus.
    """

    command: RowCommand
    bank: int
    row: Optional[int]
    start: int
    via_col: bool = False


class ColPacket(NamedTuple):
    """A COL command packet occupying the col bus for t_PACK cycles.

    Attributes:
        command: RD or WR.
        bank: Target bank index.
        row: Row the access is served from (the open row).
        column: Column address, in DATA-packet units within the row.
        start: Interface-clock cycle at which the packet starts.
    """

    command: ColCommand
    bank: int
    row: int
    column: int
    start: int


class DataPacket(NamedTuple):
    """A 16-byte DATA packet occupying the data bus for t_PACK cycles.

    Attributes:
        direction: READ or WRITE.
        bank: Bank the data belongs to.
        start: First cycle of the transfer.
        source_col_start: Start cycle of the COL packet that initiated
            this transfer, for latency accounting.
    """

    direction: BusDirection
    bank: int
    start: int
    source_col_start: int
