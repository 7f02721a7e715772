"""Gantt-style text rendering of RDRAM packet traces.

Turns a recorded trace into the kind of three-lane timing diagram the
paper draws in Figures 5 and 6: one lane per channel sub-bus (ROW
commands, COL commands, DATA), one column per interface-clock cycle,
each four-cycle packet drawn as a labeled box.

    cycle 0         1         2         3         4         5
    row   [A0.....] [A1.....]           [A2.....]
    col             [R0.....] [R0.....] [R1.....]
    data                      <r0><r0><r1>

Used by the timeline experiment and handy for debugging controllers:

    >>> from repro.rdram.tracefmt import render_trace
    >>> print(render_trace(device.trace, until=120))   # doctest: +SKIP
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.rdram.packets import (
    BusDirection,
    ColCommand,
    ColPacket,
    DataPacket,
    RowCommand,
    RowPacket,
)

#: Width of one four-cycle packet slot in the rendering.
SLOT = 4

_ROW_LABEL = {RowCommand.ACT: "A", RowCommand.PRER: "P"}
_COL_LABEL = {ColCommand.RD: "R", ColCommand.WR: "W"}


def render_trace(
    trace: Sequence[object],
    start: int = 0,
    until: Optional[int] = None,
    ruler_step: int = 20,
) -> str:
    """Render a packet trace as a three-lane text timing diagram.

    Args:
        trace: Packets recorded by a device or channel.
        start: First cycle to draw.
        until: One past the last cycle to draw (defaults to the end of
            the last packet).
        ruler_step: Cycle-number tick spacing on the ruler line.

    Returns:
        A multi-line string: a cycle ruler plus row/col/data lanes.
        Col-carried precharges render on the row lane in parentheses
        since they consume no row-bus bandwidth.
    """
    packets = sorted(trace, key=lambda p: p.start)
    if until is None:
        until = max((p.start + SLOT for p in packets), default=start)
    width = max(0, until - start)
    lanes = {name: [" "] * width for name in ("row", "col", "data")}

    for packet in packets:
        if packet.start + SLOT <= start or packet.start >= until:
            continue
        if isinstance(packet, RowPacket):
            label = _ROW_LABEL[packet.command] + str(packet.bank)
            if packet.via_col:
                cell = f"({label})".ljust(SLOT, ".")[:SLOT]
            else:
                cell = f"[{label}".ljust(SLOT, ".")[:SLOT]
            _paint(lanes["row"], packet.start - start, cell, width)
        elif isinstance(packet, ColPacket):
            label = _COL_LABEL[packet.command] + str(packet.bank)
            cell = f"[{label}".ljust(SLOT, ".")[:SLOT]
            _paint(lanes["col"], packet.start - start, cell, width)
        elif isinstance(packet, DataPacket):
            mark = "r" if packet.direction is BusDirection.READ else "w"
            cell = f"<{mark}{packet.bank}".ljust(SLOT, ".")[:SLOT]
            _paint(lanes["data"], packet.start - start, cell, width)

    ruler = [" "] * width
    for tick in range(start, until, ruler_step):
        text = str(tick)
        _paint(ruler, tick - start, text, width)
    lines = ["cycle " + "".join(ruler)]
    for name in ("row", "col", "data"):
        lines.append(f"{name:5s} " + "".join(lanes[name]))
    return "\n".join(lines)


def _paint(lane: List[str], position: int, text: str, width: int) -> None:
    for offset, char in enumerate(text):
        index = position + offset
        if 0 <= index < width:
            lane[index] = char


def render_trace_wrapped(
    trace: Sequence[object],
    line_cycles: int = 100,
    until: Optional[int] = None,
) -> str:
    """Render a long trace as successive ``line_cycles``-wide bands."""
    packets = list(trace)
    if until is None:
        until = max((p.start + SLOT for p in packets), default=0)
    bands = []
    for band_start in range(0, until, line_cycles):
        band_end = min(band_start + line_cycles, until)
        bands.append(render_trace(packets, start=band_start, until=band_end))
    return "\n\n".join(bands)
