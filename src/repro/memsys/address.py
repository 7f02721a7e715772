"""Address decomposition strategies (the address-mapping registry).

A physical byte address is decomposed into a device location: (bank,
row, column), where *column* counts DATA packets within the open row.
Each decomposition is a registered, named strategy — a subclass of
:class:`AddressMapping` — and configurations select one by registry
name through the ``interleaving`` field.  Built-in mappings:

* **cli** — cacheline interleaving: successive cachelines map to
  successive banks, so a unit-stride stream cycles through all banks
  and a bank holds every eighth line of the stream.
* **pi** — page interleaving: a whole RDRAM page maps to one bank;
  successive pages map to successive banks, so a unit-stride stream
  stays in one bank for a full page and crossing a page boundary means
  switching banks.
* **swizzle** — page interleaving with the bank XOR-permuted by the
  row, so vertically aligned pages of different vectors (the aligned
  placement the paper identifies as pathological) spread across banks
  instead of all colliding in one.
* **dream** — DReAM-style *stateful* swizzle whose permutation evolves
  online: per-bank hit counters accumulate and the bank permutation
  re-arranges at epoch boundaries when traffic concentrates (see
  :class:`DreamInterleaving`).

Every mapping is an exact bijection between byte addresses and
(bank, row, column, byte-offset) tuples; the property-based tests
round-trip all registered mappings over random geometries.  To add a
mapping, subclass :class:`AddressMapping`, implement
``_decompose``/``_compose``, and decorate with
:func:`register_mapping` — consumers pick it up by name with no
further wiring (see ``docs/architecture.md``).

The line controllers and the traffic server place a cacheline's DATA
packets with :meth:`AddressMapping.line_locations`, which decomposes a
line once under a mapping that declares ``line_in_row`` (cli, pi,
swizzle, and :class:`ChannelStriping` over them) and each packet
otherwise; ``tests/test_line_locations.py`` checks every declaration.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, List, NamedTuple, Tuple, Type

from repro.errors import ConfigurationError
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.rdram.timing import DATA_PACKET_BYTES
from repro.registry import Registry


class Location(NamedTuple):
    """A DATA-packet-granularity location on the RDRAM device.

    A named tuple: cheap to build on every :meth:`AddressMapping.decompose`
    call, immutable, and ordered by (bank, row, column).

    Attributes:
        bank: Bank index.
        row: Row (page) index within the bank.
        column: DATA-packet index within the row.
    """

    bank: int
    row: int
    column: int


class AddressMapping:
    """Base class: bidirectional byte-address <-> device-location map.

    Subclasses implement :meth:`_decompose` and :meth:`_compose` on
    pre-validated values; range checks and the doubled-bank even/odd
    permutation live here so every registered mapping shares them.

    Args:
        config: The memory-system configuration (geometry and line
            size; the ``interleaving`` field is what *selected* this
            mapping but is not re-read here).
    """

    #: Registry name; also the ``interleaving`` spelling selecting it.
    name = "base"

    #: True when the mapping carries online monitoring state: the
    #: device model feeds it every issued access through
    #: :meth:`observe_access` and it may re-arrange its bijection at
    #: epoch boundaries.  Stateful mappings are routed to the event
    #: kernel (the batch engine precomputes access plans, which a
    #: mid-run re-arrangement would invalidate).
    stateful = False

    #: True when the DATA packets of every line-aligned cacheline lie
    #: in one bank and row at consecutive columns, so
    #: :meth:`line_locations` decomposes a line once and counts up its
    #: columns.  Only a static mapping may declare it.
    line_in_row = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A new _decompose may move a line's packets apart, so the
        # flag is not inherited past it: the class declares it again.
        if "_decompose" in cls.__dict__ and "line_in_row" not in cls.__dict__:
            cls.line_in_row = False

    def __init__(self, config: MemorySystemConfig) -> None:
        self.config = config
        self.remap_events = 0
        geometry = config.geometry
        self._num_banks = geometry.num_banks
        self._page_bytes = geometry.page_bytes
        self._rows = geometry.rows_per_bank
        self._line_bytes = config.cacheline_bytes
        self._packets_per_page = geometry.packets_per_page
        self._packets_per_line = config.packets_per_cacheline
        self._lines_per_page = geometry.page_bytes // config.cacheline_bytes
        self._capacity = geometry.capacity_bytes
        # On double-bank cores, adjacent banks share sense amps, so a
        # naive interleave (bank = index mod n) would make every pair
        # of consecutive lines/pages collide.  Permute the bank order
        # to visit all even banks first, then all odd banks, so
        # consecutive interleave units land two banks apart.
        if geometry.doubled_banks:
            evens = list(range(0, self._num_banks, 2))
            odds = list(range(1, self._num_banks, 2))
            self._bank_order = evens + odds
        else:
            self._bank_order = list(range(self._num_banks))
        self._bank_rank = [0] * self._num_banks
        for rank, bank in enumerate(self._bank_order):
            self._bank_rank[bank] = rank

    @property
    def capacity_bytes(self) -> int:
        """Total mappable bytes."""
        return self._capacity

    def decompose(self, address: int) -> Location:
        """Map a byte address to its device location.

        Raises:
            ConfigurationError: If the address is outside the device.
        """
        if not 0 <= address < self._capacity:
            raise ConfigurationError(
                f"address {address:#x} outside device capacity "
                f"{self._capacity:#x}"
            )
        return self._decompose(address)

    def compose(self, location: Location, byte_offset: int = 0) -> int:
        """Map a device location (plus a byte offset within its DATA
        packet) back to the byte address.

        Raises:
            ConfigurationError: If any coordinate is out of range.
        """
        if not 0 <= location.bank < self._num_banks:
            raise ConfigurationError(f"bank {location.bank} out of range")
        if not 0 <= location.row < self._rows:
            raise ConfigurationError(f"row {location.row} out of range")
        if not 0 <= location.column < self._packets_per_page:
            raise ConfigurationError(f"column {location.column} out of range")
        if not 0 <= byte_offset < DATA_PACKET_BYTES:
            raise ConfigurationError(f"byte offset {byte_offset} out of range")
        return self._compose(location, byte_offset)

    def line_locations(self, address: int) -> Iterable[Tuple[int, int, int]]:
        """The (bank, row, column) of each DATA packet of the cacheline
        at ``address``, in issue order.

        A :attr:`line_in_row` mapping decomposes the line once.  Any
        other mapping yields each packet lazily, decomposed only when
        the caller reaches it: after the previous packet has issued, a
        stateful map may have moved.  So iterate the result once, in
        order.

        Raises:
            ConfigurationError: If ``address`` is not line-aligned, or
                the line is outside the device.
        """
        if address % self._line_bytes:
            raise ConfigurationError(
                f"line address {address:#x} is not aligned to the "
                f"{self._line_bytes}-byte cacheline"
            )
        if not self.line_in_row:
            return self._packet_locations(address)
        bank, row, column = self.decompose(address)
        return [
            (bank, row, packet)
            for packet in range(column, column + self._packets_per_line)
        ]

    def _packet_locations(self, address: int) -> Iterator[Location]:
        for offset in range(0, self._line_bytes, DATA_PACKET_BYTES):
            yield self.decompose(address + offset)

    def bank_of(self, address: int) -> int:
        """Bank holding ``address`` (convenience for placement logic)."""
        return self.decompose(address).bank

    # -- topology hooks -------------------------------------------------
    # Single-channel mappings put everything on channel 0; the
    # channel-striping composition overrides these.

    @property
    def channels(self) -> int:
        """Independent channels this mapping spreads addresses over."""
        return 1

    def channel_of(self, address: int) -> int:
        """Channel holding ``address``."""
        return 0

    def channel_of_bank(self, bank: int) -> int:
        """Channel owning a global bank index."""
        return 0

    # -- online-monitoring hooks ----------------------------------------
    # Static mappings ignore these; a mapping with ``stateful = True``
    # receives every access the device model issues and may re-arrange
    # its (still bijective) address map at epoch boundaries.

    def observe_access(self, bank: int, row: int, now: int) -> int:
        """Feed one issued access to the mapping's monitor state.

        Called from :meth:`repro.rdram.device.RdramDevice.issue_access`
        when the mapping is attached to the memory model and
        ``stateful``.

        Returns:
            Number of re-arrangement (remap) events this observation
            triggered; static mappings return 0.
        """
        return 0

    def reset(self) -> None:
        """Return the monitor state to its power-on value.

        Called from :meth:`repro.rdram.device.RdramDevice.reset`, so a
        controller that resets its memory at the start of each run
        starts every run from the same map.  Static mappings hold no
        state.
        """

    # -- strategy hooks -------------------------------------------------

    def _decompose(self, address: int) -> Location:
        raise NotImplementedError

    def _compose(self, location: Location, byte_offset: int) -> int:
        raise NotImplementedError


#: Registry of mapping strategies by name (see :mod:`repro.registry`).
MAPPINGS: Registry[Type[AddressMapping]] = Registry(
    "address mapping",
    class_label="mapping class",
    unknown_template=(
        "unknown address mapping {name!r}; registered mappings: {names}"
    ),
)


def register_mapping(cls: Type[AddressMapping]) -> Type[AddressMapping]:
    """Class decorator adding a mapping to the registry by its name."""
    return MAPPINGS.register(cls)


def list_mappings() -> List[str]:
    """Registered mapping names, sorted."""
    return MAPPINGS.names()


class ChannelStriping(AddressMapping):
    """A channel-selector stage composed over a per-channel mapping.

    Successive cachelines rotate round-robin across channels; within
    its channel, each line is placed by the wrapped per-channel
    mapping (cli, pi, swizzle, or any registered strategy), unchanged.
    Locations use *global* bank indices — channel ``c``'s local bank
    ``b`` is global index ``c * banks_per_channel + b`` — mirroring
    how :class:`~repro.rdram.channel.RambusChannel` globalizes device
    banks, so controllers stay topology-agnostic.

    The composition is an exact bijection whenever the wrapped mapping
    is one: the (channel, local-line) split is a pure divmod of the
    line index, inverted in :meth:`_compose`.
    """

    name = "channel-striping"

    def __init__(self, config: MemorySystemConfig, base: AddressMapping) -> None:
        channels = config.topology.channels
        self.config = config
        self.base = base
        self._channels = channels
        self.banks_per_channel = base._num_banks
        self._num_banks = channels * base._num_banks
        self._page_bytes = base._page_bytes
        self._rows = base._rows
        self._line_bytes = base._line_bytes
        self._packets_per_page = base._packets_per_page
        self._packets_per_line = base._packets_per_line
        self._lines_per_page = base._lines_per_page
        self._capacity = channels * base._capacity
        self._bank_order = list(range(self._num_banks))
        self._bank_rank = list(range(self._num_banks))
        self.remap_events = 0
        # Statefulness, and whether a line stays in its row, are
        # inherited from the wrapped mapping: the selector stage is a
        # pure divmod that moves whole lines.
        self.stateful = base.stateful
        self.line_in_row = base.line_in_row

    @property
    def channels(self) -> int:
        return self._channels

    def observe_access(self, bank: int, row: int, now: int) -> int:
        # Channel memories issue local bank indices, which are exactly
        # the wrapped mapping's bank space.
        events = self.base.observe_access(bank, row, now)
        self.remap_events = self.base.remap_events
        return events

    def reset(self) -> None:
        self.base.reset()
        self.remap_events = self.base.remap_events

    def channel_of(self, address: int) -> int:
        if not 0 <= address < self._capacity:
            raise ConfigurationError(
                f"address {address:#x} outside capacity {self._capacity:#x}"
            )
        return (address // self._line_bytes) % self._channels

    def channel_of_bank(self, bank: int) -> int:
        if not 0 <= bank < self._num_banks:
            raise ConfigurationError(f"bank {bank} out of range")
        return bank // self.banks_per_channel

    def _decompose(self, address: int) -> Location:
        line, offset = divmod(address, self._line_bytes)
        channel = line % self._channels
        local = self.base._decompose(
            (line // self._channels) * self._line_bytes + offset
        )
        return Location(
            bank=channel * self.banks_per_channel + local.bank,
            row=local.row,
            column=local.column,
        )

    def _compose(self, location: Location, byte_offset: int) -> int:
        channel, local_bank = divmod(location.bank, self.banks_per_channel)
        local_address = self.base._compose(
            Location(bank=local_bank, row=location.row, column=location.column),
            byte_offset,
        )
        line, offset = divmod(local_address, self._line_bytes)
        return (line * self._channels + channel) * self._line_bytes + offset


def get_address_mapping(config: MemorySystemConfig) -> AddressMapping:
    """Instantiate the mapping the configuration names.

    With a non-default :class:`~repro.memsys.config.MemoryTopology`,
    the named per-channel mapping is built over one channel's geometry
    (all its devices' banks) and, for multiple channels, composed with
    the :class:`ChannelStriping` selector stage.  The single-channel,
    single-device case constructs the bare mapping exactly as before.

    Raises:
        ConfigurationError: If no mapping is registered under the
            configuration's ``interleaving`` name (the message lists
            the registered names).
    """
    name = config.interleaving_name
    cls = MAPPINGS.resolve(name)
    if config.topology.single:
        return cls(config)
    per_channel = dataclasses.replace(
        config, geometry=config.channel_geometry, topology=MemoryTopology()
    )
    base = cls(per_channel)
    if config.topology.channels == 1:
        return base
    return ChannelStriping(config, base)


@register_mapping
class CachelineInterleaving(AddressMapping):
    """The paper's CLI map: successive cachelines in successive banks."""

    name = "cli"
    line_in_row = True

    def _decompose(self, address: int) -> Location:
        line = address // self._line_bytes
        bank = self._bank_order[line % self._num_banks]
        line_in_bank = line // self._num_banks
        row = line_in_bank // self._lines_per_page
        line_in_row = line_in_bank % self._lines_per_page
        packet_in_line = (address % self._line_bytes) // DATA_PACKET_BYTES
        column = line_in_row * self._packets_per_line + packet_in_line
        return Location(bank=bank, row=row, column=column)

    def _compose(self, location: Location, byte_offset: int) -> int:
        rank = self._bank_rank[location.bank]
        line_in_row = location.column // self._packets_per_line
        packet_in_line = location.column % self._packets_per_line
        line_in_bank = location.row * self._lines_per_page + line_in_row
        line = line_in_bank * self._num_banks + rank
        return (
            line * self._line_bytes
            + packet_in_line * DATA_PACKET_BYTES
            + byte_offset
        )


@register_mapping
class PageInterleaving(AddressMapping):
    """The paper's PI map: successive pages in successive banks."""

    name = "pi"
    line_in_row = True

    def _decompose(self, address: int) -> Location:
        page = address // self._page_bytes
        bank = self._bank_order[page % self._num_banks]
        row = page // self._num_banks
        column = (address % self._page_bytes) // DATA_PACKET_BYTES
        return Location(bank=bank, row=row, column=column)

    def _compose(self, location: Location, byte_offset: int) -> int:
        rank = self._bank_rank[location.bank]
        page = location.row * self._num_banks + rank
        return (
            page * self._page_bytes
            + location.column * DATA_PACKET_BYTES
            + byte_offset
        )


@register_mapping
class SwizzleInterleaving(AddressMapping):
    """Page interleaving with a row-dependent bank permutation.

    Like PI, address bits split into (page, offset) and the page into
    (row, rank); but the rank is then permuted by the row before the
    doubled-bank ordering is applied.  With a power-of-two bank count
    the permutation is the XOR ``rank ^ (row % num_banks)`` (its own
    inverse); otherwise the additive rotation
    ``(rank + row) % num_banks`` is used.  Either way each row sees a
    distinct bank permutation, so vectors whose bases are exactly a
    bank-stripe apart — which under PI would hammer a single bank —
    spread across all banks.
    """

    name = "swizzle"
    line_in_row = True

    #: Added to the row before it permutes the bank; DReAM moves it.
    _shift = 0

    def _twist(self, rank: int, row: int) -> int:
        if self._num_banks & (self._num_banks - 1) == 0:
            return rank ^ ((row + self._shift) % self._num_banks)
        return (rank + row + self._shift) % self._num_banks

    def _untwist(self, rank: int, row: int) -> int:
        if self._num_banks & (self._num_banks - 1) == 0:
            return rank ^ ((row + self._shift) % self._num_banks)
        return (rank - row - self._shift) % self._num_banks

    def _decompose(self, address: int) -> Location:
        page = address // self._page_bytes
        row = page // self._num_banks
        rank = self._twist(page % self._num_banks, row)
        bank = self._bank_order[rank]
        column = (address % self._page_bytes) // DATA_PACKET_BYTES
        return Location(bank=bank, row=row, column=column)

    def _compose(self, location: Location, byte_offset: int) -> int:
        rank = self._untwist(self._bank_rank[location.bank], location.row)
        page = location.row * self._num_banks + rank
        return (
            page * self._page_bytes
            + location.column * DATA_PACKET_BYTES
            + byte_offset
        )


@register_mapping
class DreamInterleaving(SwizzleInterleaving):
    """DReAM-style dynamic re-arrangement of the bank bits.

    A :class:`SwizzleInterleaving` whose *shift* is driven by online
    monitoring.  The device model feeds every issued access through
    :meth:`observe_access`; per-bank-slot hit counters accumulate and,
    every ``remap_epoch_accesses`` accesses, the mapping checks for
    imbalance.  When the hottest slot draws more than twice its fair
    share of the epoch's traffic, the shift rotates by that slot's
    index (plus one), re-spreading the hot pages over different banks
    for subsequent accesses and counting one remap event.

    At any instant the map is an exact bijection (the shift enters the
    per-row permutation the same way swizzle's row term does); only
    *which* bijection is active evolves.  Like the published DReAM
    scheme, data migration on re-arrangement is not modeled — this is
    a bandwidth/latency model, so a remap simply changes where future
    decompositions land.
    """

    name = "dream"
    stateful = True
    # A remap may fall between two packets of a line.
    line_in_row = False

    def __init__(self, config: MemorySystemConfig) -> None:
        super().__init__(config)
        self.epoch_accesses = config.remap_epoch_accesses
        self.reset()

    def reset(self) -> None:
        self._shift = 0
        self._observed = 0
        self._slot_hits = [0] * self._num_banks
        self.remap_events = 0

    def observe_access(self, bank: int, row: int, now: int) -> int:
        if 0 <= bank < self._num_banks:
            self._slot_hits[self._bank_rank[bank]] += 1
        self._observed += 1
        if self._observed % self.epoch_accesses:
            return 0
        hits = self._slot_hits
        self._slot_hits = [0] * self._num_banks
        total = sum(hits)
        peak = max(hits)
        # Re-arrange only on real imbalance: the hottest slot drawing
        # more than twice its fair share of the epoch's accesses.
        if total == 0 or peak * self._num_banks <= 2 * total:
            return 0
        hottest = hits.index(peak)
        self._shift = (self._shift + hottest + 1) % self._num_banks
        self.remap_events += 1
        return 1
