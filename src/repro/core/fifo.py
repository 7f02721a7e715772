"""Stream FIFOs and the per-stream memory access plan.

Each stream is mapped to exactly one FIFO (Section 3).  From the
processor's side the FIFO head is a memory-mapped register: reads pop
elements that the MSU prefetched, writes push elements the MSU will
later drain to memory.  From the memory side, the MSU works through
the stream's *access plan* — one unit per DATA packet the stream
touches — which :func:`build_plan` computes from the stream
descriptor and the configuration before the clock starts.  Both SMC
loops (the event kernel's FIFOs here and
:func:`repro.sim.batch.run_smc_batch`) read that one plan.

Two 64-bit elements share a DATA packet only at stride one (byte
stride 8); at any larger stride every element occupies its own packet,
which is why non-unit strides can exploit at most half of the Direct
RDRAM's bandwidth (Section 6, Figure 9).
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import List, Sequence, Tuple

from repro.errors import (
    ConfigurationError,
    SchedulingError,
    StreamError,
    require_int,
)
from repro.cpu.streams import Direction, StreamDescriptor
from repro.memsys.address import get_address_mapping
from repro.memsys.config import ELEMENT_BYTES, MemorySystemConfig
from repro.memsys.pagemanager import PAGE_POLICIES
from repro.obs.core import Instrumentation
from repro.rdram.timing import DATA_PACKET_BYTES

try:  # numpy is optional; without it every stream plans element by element.
    import numpy as _np
except ImportError:
    _np = None  # type: ignore[assignment]

#: One DATA packet's worth of stream traffic, as a plain tuple
#: ``(bank, row, column, elements, precharge)``: the packet's global
#: bank, row and column; the useful 64-bit elements it carries (2 at
#: stride one, otherwise 1); and, under a page policy that plans its
#: precharges (closed), True on the last packet of each consecutive
#: same-(bank, row) run, carrying the precharge flag on its COL packet.
AccessUnit = Tuple[int, int, int, int, bool]


def build_plan(
    descriptor: StreamDescriptor, config: MemorySystemConfig
) -> List[AccessUnit]:
    """Compute the ordered DATA-packet plan for one stream.

    Consecutive elements landing in the same packet are merged into a
    single unit.  When the configuration's page policy plans its
    precharges (``plans_precharge``, the closed policy), the last unit
    of each consecutive same-(bank, row) run carries the precharge, so
    it rides that run's last COL packet at no ROW-bus cost.

    The plan is computed with numpy array expressions when numpy
    imports, the descriptor is an affine
    :class:`~repro.cpu.streams.StreamDescriptor`, the mapping is cli,
    pi or swizzle and the core has no doubled banks; every other
    stream (indexed streams, registered and stateful mappings,
    doubled banks, or no numpy) walks its elements one by one and
    decomposes each run of elements in one DATA packet once, through
    :func:`~repro.memsys.address.get_address_mapping`.  Both give the
    same units.  A stateful mapping is planned at epoch 0.

    Raises:
        ConfigurationError: If the stream leaves the memory, or no page
            policy is registered under the configuration's name.
    """
    closed = PAGE_POLICIES.resolve(config.page_policy_name).plans_precharge
    if (
        _np is not None
        and isinstance(descriptor, StreamDescriptor)
        and config.interleaving_name in ("cli", "pi", "swizzle")
        and not config.geometry.doubled_banks
    ):
        return _vector_plan(descriptor, config, closed)
    decompose = get_address_mapping(config).decompose
    # Runs of consecutive elements in one DATA packet, each packet
    # decomposed once: the map is a bijection at packet granularity,
    # so same packet means same location.
    runs = [
        (decompose(packet), sum(1 for _ in elements))
        for packet, elements in groupby(
            address - address % DATA_PACKET_BYTES
            for address in map(descriptor.element_address, range(descriptor.length))
        )
    ]
    row_ends = [
        here[:2] != after[:2] for (here, _), (after, _) in zip(runs, runs[1:])
    ] + [True]
    return [
        (bank, row, column, count, closed and row_end)
        for ((bank, row, column), count), row_end in zip(runs, row_ends)
    ]


def _vector_plan(
    descriptor: StreamDescriptor, config: MemorySystemConfig, closed: bool
) -> List[AccessUnit]:
    """:func:`build_plan` as numpy array expressions.

    The address decomposition is affine in the element index, so the
    whole plan — packet addresses, (bank, row, column) coordinates,
    run-length merge of same-packet elements, and the closed-policy
    precharge flags — reduces to array expressions.  On several
    channels it first applies
    :class:`~repro.memsys.address.ChannelStriping`: line ``l`` goes to
    channel ``l % channels`` as that channel's line ``l // channels``,
    placed by the base mapping over one channel's geometry, and the
    channel's local bank ``b`` becomes global bank
    ``channel * banks_per_channel + b``.
    """
    geometry = config.channel_geometry
    channels = config.topology.channels
    stride_bytes = descriptor.stride * ELEMENT_BYTES
    addr = descriptor.base + _np.arange(
        descriptor.length, dtype=_np.int64
    ) * stride_bytes
    last_addr = int(addr[-1])
    capacity = channels * geometry.capacity_bytes
    if last_addr >= capacity:
        raise ConfigurationError(
            f"address {last_addr:#x} outside device capacity "
            f"{capacity:#x}"
        )
    pkt = addr - addr % DATA_PACKET_BYTES
    line_bytes = config.cacheline_bytes
    if channels > 1:
        line = pkt // line_bytes
        channel = line % channels
        pkt = (line // channels) * line_bytes + pkt % line_bytes
    num_banks = geometry.num_banks
    page_bytes = geometry.page_bytes
    name = config.interleaving_name
    if name == "cli":
        lines_per_page = page_bytes // line_bytes
        packets_per_line = line_bytes // DATA_PACKET_BYTES
        line = pkt // line_bytes
        bank = line % num_banks
        line_in_bank = line // num_banks
        row = line_in_bank // lines_per_page
        column = (line_in_bank % lines_per_page) * packets_per_line + (
            pkt % line_bytes
        ) // DATA_PACKET_BYTES
    elif name == "pi":
        page = pkt // page_bytes
        bank = page % num_banks
        row = page // num_banks
        column = (pkt % page_bytes) // DATA_PACKET_BYTES
    else:  # swizzle
        page = pkt // page_bytes
        row = page // num_banks
        rank = page % num_banks
        if num_banks & (num_banks - 1) == 0:
            bank = rank ^ (row % num_banks)
        else:
            bank = (rank + row) % num_banks
        column = (pkt % page_bytes) // DATA_PACKET_BYTES
    if channels > 1:
        bank = channel * num_banks + bank
    # Merge consecutive elements that land in the same DATA packet
    # (same location <=> same packet address, mappings being bijective
    # at packet granularity).
    fresh = _np.empty(descriptor.length, dtype=bool)
    fresh[0] = True
    fresh[1:] = (
        (bank[1:] != bank[:-1]) | (row[1:] != row[:-1]) | (column[1:] != column[:-1])
    )
    starts = _np.flatnonzero(fresh)
    elements = _np.diff(_np.append(starts, descriptor.length))
    bank = bank[starts]
    row = row[starts]
    column = column[starts]
    precharge = _np.zeros(len(starts), dtype=bool)
    if closed:
        # The last unit of each same-(bank, row) run, the stream's
        # final unit included.
        precharge[:-1] = (bank[1:] != bank[:-1]) | (row[1:] != row[:-1])
        precharge[-1] = True
    return list(
        zip(
            bank.tolist(),
            row.tolist(),
            column.tolist(),
            elements.tolist(),
            precharge.tolist(),
        )
    )


def check_fifo_depth(
    descriptor: StreamDescriptor, depth: int, units: Sequence[AccessUnit]
) -> None:
    """Raise a :class:`StreamError` naming the stream unless ``depth``
    is an int that holds the largest unit of its plan ``units``."""
    require_int(f"stream {descriptor.name}: FIFO depth", depth, StreamError)
    # A unit's fourth field is the elements it carries.
    largest = max(map(itemgetter(3), units))
    if depth < largest:
        raise StreamError(
            f"stream {descriptor.name}: FIFO depth {depth} smaller than "
            f"a {largest}-element DATA packet"
        )


class StreamFifo:
    """One FIFO of the Stream Buffer Unit.

    For a read stream the MSU fills the FIFO from memory and the CPU
    pops the head; *in-flight* elements (requested but not yet arrived)
    count against the depth so the MSU never over-fetches.  For a write
    stream the CPU pushes elements and the MSU drains whole packets.

    Args:
        descriptor: The placed stream this FIFO buffers.
        depth: FIFO capacity in 64-bit elements (the paper's f).
        units: The stream's access plan from :func:`build_plan`.
    """

    def __init__(
        self,
        descriptor: StreamDescriptor,
        depth: int,
        units: List[AccessUnit],
    ) -> None:
        check_fifo_depth(descriptor, depth, units)
        self.descriptor = descriptor
        self.depth = depth
        self.units = units
        #: True for a read stream (the MSU fills it, the CPU pops it).
        self.is_read = descriptor.direction is Direction.READ
        self._unit_count = len(units)
        self.occupancy = 0
        self.inflight = 0
        self._cursor = 0
        self.elements_consumed = 0
        self.elements_produced = 0

    def sample_occupancy(self, obs: Instrumentation, cycle: int) -> None:
        """Record the occupancy gauge at ``cycle``, the cycle of the
        tick whose transition changed it: the MSU samples after each
        arrival and write issue, the processor after each pop and
        push."""
        obs.counters.sample_gauge(
            f"fifo.{self.descriptor.name}.occupancy", cycle, self.occupancy
        )

    # ------------------------------------------------------------------
    # shared

    @property
    def direction(self) -> Direction:
        return self.descriptor.direction

    @property
    def exhausted(self) -> bool:
        """True once every access unit has been issued to memory."""
        return self._cursor >= self._unit_count

    def next_unit(self) -> AccessUnit:
        """The next access unit to issue.

        Raises:
            SchedulingError: If the stream is exhausted.
        """
        if self.exhausted:
            raise SchedulingError(
                f"stream {self.descriptor.name}: no units left to issue"
            )
        return self.units[self._cursor]

    def upcoming_units(self, count: int) -> List[AccessUnit]:
        """The next ``count`` unissued units (fewer near stream end).

        Used by look-ahead scheduling policies such as speculative
        precharge.
        """
        return self.units[self._cursor : self._cursor + count]

    @property
    def serviceable(self) -> bool:
        """True if the MSU could issue this FIFO's next access now."""
        cursor = self._cursor
        if cursor >= self._unit_count:
            return False
        _, _, _, elements, _ = self.units[cursor]
        if self.is_read:
            return self.occupancy + self.inflight + elements <= self.depth
        return self.occupancy >= elements

    @property
    def fully_drained(self) -> bool:
        """True once nothing remains buffered or in flight."""
        if self.is_read:
            return self.exhausted and self.inflight == 0 and self.occupancy == 0
        return self.exhausted

    # ------------------------------------------------------------------
    # memory (MSU) side

    def note_issue(self) -> AccessUnit:
        """Commit the next unit: reads gain in-flight elements, writes
        surrender buffered elements to the device's write buffer.

        Raises:
            SchedulingError: If the FIFO is not serviceable.
        """
        if not self.serviceable:
            raise SchedulingError(
                f"stream {self.descriptor.name}: issue on unserviceable FIFO"
            )
        unit = self.units[self._cursor]
        _, _, _, elements, _ = unit
        self._cursor += 1
        if self.is_read:
            self.inflight += elements
        else:
            self.occupancy -= elements
        return unit

    def note_arrival(self, elements: int) -> None:
        """Read data returned from memory lands in the FIFO."""
        if not self.is_read:
            raise SchedulingError(
                f"stream {self.descriptor.name}: arrival on a write FIFO"
            )
        if elements > self.inflight:
            raise SchedulingError(
                f"stream {self.descriptor.name}: {elements} arrivals but only "
                f"{self.inflight} in flight"
            )
        self.inflight -= elements
        self.occupancy += elements
        if self.occupancy > self.depth:
            raise SchedulingError(
                f"stream {self.descriptor.name}: FIFO overflow "
                f"({self.occupancy}/{self.depth})"
            )

    # ------------------------------------------------------------------
    # processor side

    def cpu_can_pop(self) -> bool:
        """True if the head register holds a valid element."""
        return self.is_read and self.occupancy > 0

    def cpu_pop(self) -> None:
        """Dequeue the head element (a processor load retires)."""
        if not self.cpu_can_pop():
            raise SchedulingError(
                f"stream {self.descriptor.name}: pop from empty FIFO"
            )
        self.occupancy -= 1
        self.elements_consumed += 1

    def cpu_can_push(self) -> bool:
        """True if a processor store could enqueue an element."""
        return not self.is_read and self.occupancy < self.depth

    def cpu_push(self) -> None:
        """Enqueue one element (a processor store retires)."""
        if not self.cpu_can_push():
            raise SchedulingError(
                f"stream {self.descriptor.name}: push to full FIFO"
            )
        self.occupancy += 1
        self.elements_produced += 1
