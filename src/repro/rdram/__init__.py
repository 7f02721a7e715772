"""Direct RDRAM device substrate.

Everything needed to model a single Direct Rambus DRAM at the level the
paper analyzes it: datasheet timing parameters (Figures 1 and 2), the
packetized channel model with an earliest-legal-issue interface (it
keeps each bank's sense-amp state and hands out immutable
:class:`BankState` snapshots of it), and an independent protocol
auditor.
"""

from repro.rdram.audit import AuditReport, audit_memory, audit_trace
from repro.rdram.channel import ChannelGeometry, RambusChannel, make_memory
from repro.rdram.device import BankState, RdramDevice, RdramGeometry
from repro.rdram.refresh import DEFAULT_INTERVAL_CYCLES, RefreshEngine
from repro.rdram.tracefmt import render_trace, render_trace_wrapped
from repro.rdram.packets import (
    BusDirection,
    ColCommand,
    ColPacket,
    DataPacket,
    RowCommand,
    RowPacket,
)
from repro.rdram.timing import (
    BYTES_PER_CYCLE_PEAK,
    DATA_PACKET_BYTES,
    DEFAULT_TIMING,
    DRAM_FAMILIES,
    INTERFACE_CLOCK_MHZ,
    PEAK_BANDWIDTH_BYTES_PER_SEC,
    ClassicDramTiming,
    RdramTiming,
    figure2_rows,
)

__all__ = [
    "AuditReport",
    "audit_memory",
    "audit_trace",
    "BankState",
    "ChannelGeometry",
    "RambusChannel",
    "make_memory",
    "RdramDevice",
    "RdramGeometry",
    "DEFAULT_INTERVAL_CYCLES",
    "RefreshEngine",
    "render_trace",
    "render_trace_wrapped",
    "BusDirection",
    "ColCommand",
    "ColPacket",
    "DataPacket",
    "RowCommand",
    "RowPacket",
    "BYTES_PER_CYCLE_PEAK",
    "DATA_PACKET_BYTES",
    "DEFAULT_TIMING",
    "DRAM_FAMILIES",
    "INTERFACE_CLOCK_MHZ",
    "PEAK_BANDWIDTH_BYTES_PER_SEC",
    "ClassicDramTiming",
    "RdramTiming",
    "figure2_rows",
]
