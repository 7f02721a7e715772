"""Tests for :meth:`~repro.memsys.address.AddressMapping.line_locations`.

Every cacheline mover places a line's DATA packets through this one
method: :meth:`~repro.naturalorder.line.LineController.issue_line`
(all four line controllers) and the traffic
:class:`~repro.traffic.driver.ChannelServer`.  A mapping that declares
``line_in_row`` decomposes a line once and counts up its columns; any
other mapping decomposes each packet just before the caller issues it.

* **Property.**  For every registered static mapping, over the
  default, doubled-bank, 6-bank and 2- and 4-device geometries, 1, 2
  and 4 channels, and 32-, 64- and 128-byte lines, ``line_locations``
  of a line-aligned address equals per-packet ``decompose``.  This is
  the check behind each mapping's ``line_in_row`` declaration.  An
  unregistered mapping that splits a line over two banks, and does not
  declare ``line_in_row``, gets per-packet locations, also when it
  subclasses a mapping that declares it.
* **Errors.**  A misaligned line address, and a line outside the
  memory, raise a :class:`~repro.errors.ConfigurationError` naming the
  address the caller gave, through ``issue_line`` and
  ``ChannelServer.plan``, before anything issues.
* **Work counts.**  A line controller makes one ``decompose`` per
  line on cli, pi and a 4-device channel, and one per DATA packet on
  ``dream``; the traffic server's count is pinned in
  ``tests/test_traffic_plans.py``.  ``build_plan``'s element path makes
  one ``decompose`` per run of elements in one DATA packet, which for
  an affine stream is one per distinct packet.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import KERNELS
from repro.cache.controller import CachedNaturalOrderController
from repro.core.fifo import build_plan
from repro.core.gather import IndexedStreamDescriptor
from repro.core.l2stream import L2StreamingController
from repro.cpu.streams import Direction, StreamDescriptor
from repro.errors import ConfigurationError
from repro.memsys.address import (
    MAPPINGS,
    AddressMapping,
    ChannelStriping,
    Location,
    PageInterleaving,
    get_address_mapping,
    list_mappings,
)
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.naturalorder.controller import NaturalOrderController
from repro.naturalorder.line import LineController
from repro.naturalorder.random_driver import RandomAccessDriver
from repro.rdram.channel import ChannelGeometry, make_memory
from repro.rdram.device import RdramGeometry
from repro.rdram.packets import BusDirection
from repro.rdram.timing import DATA_PACKET_BYTES
from repro.traffic.driver import ChannelServer

#: Mappings without monitor state, the only ones that may declare
#: ``line_in_row``.
STATIC_MAPPINGS = [
    name for name in list_mappings() if not MAPPINGS.resolve(name).stateful
]

#: Name -> (per-device geometry, devices per channel).
GEOMETRIES = {
    "default": (RdramGeometry(), 1),
    "doubled": (RdramGeometry(num_banks=16, doubled_banks=True), 1),
    # 6 banks: swizzle rotates its banks instead of XOR-ing them.
    "6-bank": (
        RdramGeometry(num_banks=6, page_bytes=1024, rows_per_bank=1000),
        1,
    ),
    "2-device": (RdramGeometry(), 2),
    "4-device": (RdramGeometry(), 4),
}


def _config(
    name: str, geometry: str, channels: int, line_bytes: int
) -> MemorySystemConfig:
    """One channel of several devices is spelled as a
    :class:`ChannelGeometry`; several channels of several devices
    through the topology."""
    device, devices = GEOMETRIES[geometry]
    if channels == 1 and devices > 1:
        return MemorySystemConfig(
            geometry=ChannelGeometry(num_devices=devices, device=device),
            interleaving=name,
            page_policy="open",
            cacheline_bytes=line_bytes,
        )
    return MemorySystemConfig(
        geometry=device,
        interleaving=name,
        page_policy="open",
        cacheline_bytes=line_bytes,
        topology=MemoryTopology(
            channels=channels, devices_per_channel=devices
        ),
    )


def _per_packet(mapping: AddressMapping, address: int) -> List[tuple]:
    return [
        tuple(mapping.decompose(address + offset))
        for offset in range(0, mapping.config.cacheline_bytes, DATA_PACKET_BYTES)
    ]


class TestLineLocationsProperty:
    @settings(max_examples=400, deadline=None)
    @given(
        name=st.sampled_from(STATIC_MAPPINGS),
        geometry=st.sampled_from(sorted(GEOMETRIES)),
        channels=st.sampled_from((1, 2, 4)),
        line_bytes=st.sampled_from((32, 64, 128)),
        data=st.data(),
    )
    def test_equals_per_packet_decompose(
        self, name, geometry, channels, line_bytes, data
    ):
        mapping = get_address_mapping(
            _config(name, geometry, channels, line_bytes)
        )
        assert mapping.line_in_row
        lines = mapping.capacity_bytes // line_bytes
        line = data.draw(
            st.one_of(
                st.sampled_from((0, 1, lines - 1)), st.integers(0, lines - 1)
            )
        )
        address = line * line_bytes
        assert [
            tuple(location) for location in mapping.line_locations(address)
        ] == _per_packet(mapping, address)

    @pytest.mark.parametrize("channels", (1, 2))
    @pytest.mark.parametrize("line_bytes", (32, 64, 128))
    @pytest.mark.parametrize("name", STATIC_MAPPINGS)
    def test_every_line_of_a_small_memory(self, name, line_bytes, channels):
        mapping = get_address_mapping(
            MemorySystemConfig(
                geometry=RdramGeometry(
                    num_banks=3, page_bytes=256, rows_per_bank=4
                ),
                interleaving=name,
                page_policy="open",
                cacheline_bytes=line_bytes,
                topology=MemoryTopology(channels=channels),
            )
        )
        for address in range(0, mapping.capacity_bytes, line_bytes):
            assert [
                tuple(location)
                for location in mapping.line_locations(address)
            ] == _per_packet(mapping, address)

    def test_only_static_mappings_declare_line_in_row(self):
        for name in list_mappings():
            cls = MAPPINGS.resolve(name)
            assert not (cls.line_in_row and cls.stateful), name

    @pytest.mark.parametrize("name", list_mappings())
    def test_channel_striping_inherits_the_declaration(self, name):
        mapping = get_address_mapping(
            MemorySystemConfig(
                interleaving=name,
                page_policy="open",
                topology=MemoryTopology(channels=2),
            )
        )
        assert isinstance(mapping, ChannelStriping)
        assert mapping.line_in_row == mapping.base.line_in_row
        assert mapping.line_in_row == MAPPINGS.resolve(name).line_in_row


class SplitLines(AddressMapping):
    """Page interleaving that moves every odd DATA packet to the next
    bank, so a line's second packet leaves its first packet's bank.
    Unregistered, and it does not declare ``line_in_row``."""

    name = "split-lines"

    def _decompose(self, address: int) -> Location:
        page, offset = divmod(address, self._page_bytes)
        column = offset // DATA_PACKET_BYTES
        bank = (page + column % 2) % self._num_banks
        return Location(bank=bank, row=page // self._num_banks, column=column)


class SplitPages(PageInterleaving):
    """:class:`SplitLines` as a subclass of page interleaving, which
    declares ``line_in_row``: a new ``_decompose`` does not inherit
    the declaration."""

    _decompose = SplitLines._decompose


class RenamedPages(PageInterleaving):
    """Page interleaving under another name: the same ``_decompose``,
    so the declaration is inherited."""

    name = "renamed-pages"


class TestUndeclaredMapping:
    def test_a_new_decompose_does_not_inherit_the_declaration(self):
        config = MemorySystemConfig.pi()
        assert PageInterleaving.line_in_row
        assert not SplitPages.line_in_row
        assert RenamedPages.line_in_row
        mapping = SplitPages(config)
        assert [tuple(location) for location in mapping.line_locations(0)] == (
            _per_packet(mapping, 0)
        )

    def test_gets_per_packet_locations(self):
        mapping = SplitLines(MemorySystemConfig.pi(cacheline_bytes=64))
        assert not mapping.line_in_row
        for address in (0, 64, 1024, mapping.capacity_bytes - 64):
            locations = [
                tuple(location)
                for location in mapping.line_locations(address)
            ]
            assert locations == _per_packet(mapping, address)
            assert len({bank for bank, _, _ in locations}) == 2

    def test_traffic_plan_holds_per_packet_locations(self):
        config = MemorySystemConfig.pi()
        server = _server(config)
        server.mapping = mapping = SplitLines(config)
        plan = server.plan(1024)
        assert [tuple(location) for location in plan.packets] == (
            _per_packet(mapping, 1024)
        )
        assert (plan.bank, plan.row) == tuple(mapping.decompose(1024))[:2]

    def test_decomposes_each_packet_as_the_caller_reaches_it(
        self, monkeypatch
    ):
        calls = _counting_decompose(monkeypatch)
        mapping = SplitLines(MemorySystemConfig.pi())
        locations = iter(mapping.line_locations(1024))
        assert calls == []
        next(locations)
        assert calls == [1024]
        next(locations)
        assert calls == [1024, 1040]


# ---------------------------------------------------------------------------
# Misaligned and out-of-range line addresses


CLI = MemorySystemConfig.cli()
CAPACITY = CLI.geometry.capacity_bytes


def _server(config: MemorySystemConfig) -> ChannelServer:
    memory = make_memory(config)
    return ChannelServer(
        index=0,
        memory=memory,
        mapping=memory.mapping,
        config=config,
        bank_offset=0,
    )


class TestLineAddressErrors:
    @pytest.mark.parametrize(
        "config",
        (CLI, MemorySystemConfig.pi(interleaving="dream")),
        ids=("cli", "dream"),
    )
    @pytest.mark.parametrize("address", (16, 40, CAPACITY - 16))
    def test_issue_line_rejects_a_misaligned_address(self, config, address):
        controller = NaturalOrderController(config, record_trace=True)
        with pytest.raises(ConfigurationError) as error:
            controller.issue_line(address, BusDirection.READ, 0)
        message = str(error.value)
        assert f"{address:#x}" in message
        assert "32-byte" in message
        # Not the second packet's address, which is the capacity for
        # the last case.
        assert f"{address + 16:#x}" not in message
        # Nothing issued: no bank was opened or left open.
        device = controller.device
        assert device.trace == []
        assert all(
            device.open_row(bank) is None
            for bank in range(device.geometry.num_banks)
        )

    @pytest.mark.parametrize(
        "config",
        (CLI, MemorySystemConfig.pi(interleaving="dream")),
        ids=("cli", "dream"),
    )
    def test_issue_line_names_the_line_outside_the_memory(self, config):
        controller = NaturalOrderController(config, record_trace=True)
        with pytest.raises(ConfigurationError, match=f"{CAPACITY:#x} outside"):
            controller.issue_line(CAPACITY, BusDirection.READ, 0)
        assert controller.device.trace == []

    @pytest.mark.parametrize("address", (16, CAPACITY - 16))
    def test_plan_rejects_a_misaligned_address(self, address):
        server = _server(CLI)
        with pytest.raises(ConfigurationError) as error:
            server.plan(address)
        assert f"{address:#x}" in str(error.value)
        assert "32-byte" in str(error.value)

    def test_plan_names_the_line_outside_the_memory(self):
        server = _server(CLI)
        with pytest.raises(ConfigurationError, match=f"{CAPACITY:#x} outside"):
            server.plan(CAPACITY)


# ---------------------------------------------------------------------------
# Work counts


def _counting_decompose(monkeypatch) -> List[int]:
    """Count every ``AddressMapping.decompose`` call (all mappings and
    the channel-striping stage inherit it)."""
    calls: List[int] = []
    original = AddressMapping.decompose

    def counted(self, address):
        calls.append(address)
        return original(self, address)

    monkeypatch.setattr(AddressMapping, "decompose", counted)
    return calls


def _decomposes_per_line(monkeypatch) -> List[int]:
    """The ``decompose`` calls each ``issue_line`` call makes."""
    calls = _counting_decompose(monkeypatch)
    per_line: List[int] = []
    original = LineController.issue_line

    def counted(self, line_address, direction, start_at):
        before = len(calls)
        result = original(self, line_address, direction, start_at)
        per_line.append(len(calls) - before)
        return result

    monkeypatch.setattr(LineController, "issue_line", counted)
    return per_line


LENGTH = 128

CONTROLLERS: Dict[str, Callable[[MemorySystemConfig], object]] = {
    "natural-order": lambda config: NaturalOrderController(config).run(
        KERNELS["daxpy"], length=LENGTH
    ),
    "cached-natural-order": lambda config: CachedNaturalOrderController(
        config
    ).run(KERNELS["daxpy"], length=LENGTH),
    "l2-streaming": lambda config: L2StreamingController(config).run(
        KERNELS["daxpy"], length=LENGTH
    ),
    "random-access": lambda config: RandomAccessDriver(
        config, queue_depth=4
    ).run(LENGTH, write_fraction=0.4, seed=3),
}

ORGANIZATIONS: Dict[str, Callable[[], MemorySystemConfig]] = {
    "cli": MemorySystemConfig.cli,
    "pi": MemorySystemConfig.pi,
    "cli-4dev": lambda: MemorySystemConfig.cli(
        geometry=ChannelGeometry(num_devices=4)
    ),
    "pi-64B": lambda: MemorySystemConfig.pi(cacheline_bytes=64),
    "dream": lambda: MemorySystemConfig.pi(interleaving="dream"),
    "dream-64B": lambda: MemorySystemConfig.pi(
        interleaving="dream", cacheline_bytes=64
    ),
}


class TestDecomposeCounts:
    @pytest.mark.parametrize("organization", sorted(ORGANIZATIONS))
    @pytest.mark.parametrize("controller", sorted(CONTROLLERS))
    def test_line_controller_decomposes_once_per_line(
        self, monkeypatch, controller, organization
    ):
        config = ORGANIZATIONS[organization]()
        per_line = _decomposes_per_line(monkeypatch)
        CONTROLLERS[controller](config)
        assert per_line, "the run issued no line"
        want = (
            config.packets_per_cacheline
            if config.interleaving_name == "dream"
            else 1
        )
        assert set(per_line) == {want}

    @pytest.mark.parametrize(
        "config",
        (
            MemorySystemConfig.pi(interleaving="dream"),
            MemorySystemConfig.cli(
                geometry=RdramGeometry(num_banks=16, doubled_banks=True)
            ),
            MemorySystemConfig.cli(
                interleaving="dream", topology=MemoryTopology(channels=2)
            ),
        ),
        ids=("dream", "cli-doubled", "dream-2ch"),
    )
    @pytest.mark.parametrize("stride", (1, 3))
    def test_element_plan_decomposes_each_packet_once(
        self, monkeypatch, config, stride
    ):
        # These configurations take the element path even with numpy.
        stream = StreamDescriptor(
            "x", base=40, stride=stride, length=301, direction=Direction.READ
        )
        packets = {
            address - address % DATA_PACKET_BYTES
            for address in map(stream.element_address, range(stream.length))
        }
        calls = _counting_decompose(monkeypatch)
        plan = build_plan(stream, config)
        assert sorted(calls) == sorted(packets)
        assert len(plan) == len(packets)

    def test_indexed_plan_decomposes_each_run_once(self, monkeypatch):
        # Elements 0 and 1 share a packet; 4 revisits a packet after
        # another one, so it starts a new run (and a new unit).
        stream = IndexedStreamDescriptor(
            "g", base=0, indices=(0, 1, 4, 0, 0, 9), direction=Direction.READ
        )
        calls = _counting_decompose(monkeypatch)
        plan = build_plan(stream, MemorySystemConfig.cli())
        assert calls == [0, 32, 0, 64]
        assert [units for _, _, _, units, _ in plan] == [2, 1, 2, 1]
