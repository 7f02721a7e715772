"""Tests for stream FIFOs and access-unit planning."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError, StreamError
from repro.core.fifo import StreamFifo, build_access_units
from repro.cpu.streams import Direction, StreamDescriptor
from repro.memsys.address import get_address_mapping
from repro.memsys.config import MemorySystemConfig


def make_units(
    stride=1, length=64, org="cli", base=0, policy=None
):
    config = getattr(MemorySystemConfig, org)()
    descriptor = StreamDescriptor(
        "x", base=base, stride=stride, length=length, direction=Direction.READ
    )
    return build_access_units(
        descriptor,
        get_address_mapping(config),
        policy if policy is not None else config.page_policy,
    )


class TestAccessUnits:
    def test_unit_stride_pairs_elements_into_packets(self):
        units = make_units(stride=1, length=64)
        assert len(units) == 32
        assert all(unit.elements == 2 for unit in units)

    def test_stride_two_uses_one_element_per_packet(self):
        units = make_units(stride=2, length=64)
        assert len(units) == 64
        assert all(unit.elements == 1 for unit in units)

    def test_units_cover_every_element_exactly_once(self):
        for stride in (1, 2, 3, 4, 7, 16):
            units = make_units(stride=stride, length=50)
            assert sum(unit.elements for unit in units) == 50

    def test_closed_page_flags_last_unit_of_each_line(self):
        units = make_units(stride=1, length=16, org="cli")
        # 4-word lines, 2 packets per line: flags on every second unit.
        flags = [unit.precharge_after for unit in units]
        assert flags == [False, True] * 4

    def test_open_page_plants_no_flags(self):
        units = make_units(stride=1, length=64, org="pi")
        assert not any(unit.precharge_after for unit in units)

    def test_closed_page_run_spans_same_row(self):
        # At stride 8 on CLI, each element is its own line; every unit
        # is the last of its run.
        units = make_units(stride=8, length=16, org="cli")
        assert all(unit.precharge_after for unit in units)

    def test_pi_units_stay_in_bank_for_a_page(self):
        units = make_units(stride=1, length=256, org="pi")
        banks = [unit.location.bank for unit in units]
        assert banks[:64] == [0] * 64
        assert banks[64:128] == [1] * 64

    def test_cli_units_rotate_banks_each_line(self):
        units = make_units(stride=1, length=64, org="cli")
        banks = [unit.location.bank for unit in units]
        assert banks[:8] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_final_partial_flag_on_stream_end(self):
        units = make_units(stride=1, length=6, org="cli")
        assert units[-1].precharge_after


def make_fifo(depth=8, direction=Direction.READ, length=32, stride=1):
    config = MemorySystemConfig.cli()
    descriptor = StreamDescriptor(
        "s", base=0, stride=stride, length=length, direction=direction
    )
    units = build_access_units(
        descriptor, get_address_mapping(config), config.page_policy
    )
    return StreamFifo(descriptor, depth, units)


class TestReadFifo:
    def test_depth_must_hold_a_packet(self):
        with pytest.raises(StreamError, match="depth"):
            make_fifo(depth=1)

    def test_serviceable_until_full(self):
        fifo = make_fifo(depth=4)
        assert fifo.serviceable
        fifo.note_issue()
        fifo.note_issue()
        assert not fifo.serviceable  # 4 elements in flight == depth

    def test_arrival_moves_inflight_to_occupancy(self):
        fifo = make_fifo(depth=4)
        fifo.note_issue()
        fifo.note_arrival(2)
        assert fifo.inflight == 0
        assert fifo.occupancy == 2

    def test_cpu_pop_frees_space(self):
        fifo = make_fifo(depth=4)
        fifo.note_issue()
        fifo.note_issue()
        fifo.note_arrival(2)
        assert not fifo.serviceable
        fifo.cpu_pop()
        fifo.cpu_pop()
        assert fifo.serviceable

    def test_pop_empty_rejected(self):
        fifo = make_fifo()
        with pytest.raises(SchedulingError, match="empty"):
            fifo.cpu_pop()

    def test_arrival_overflow_rejected(self):
        fifo = make_fifo(depth=4)
        fifo.note_issue()
        with pytest.raises(SchedulingError, match="in flight"):
            fifo.note_arrival(4)

    def test_arrival_on_write_fifo_rejected(self):
        fifo = make_fifo(direction=Direction.WRITE)
        with pytest.raises(SchedulingError, match="write FIFO"):
            fifo.note_arrival(1)

    def test_exhaustion_and_drain(self):
        fifo = make_fifo(depth=64, length=8)
        while not fifo.exhausted:
            fifo.note_issue()
        assert not fifo.fully_drained
        fifo.note_arrival(8)
        for __ in range(8):
            fifo.cpu_pop()
        assert fifo.fully_drained

    def test_next_unit_after_exhaustion_rejected(self):
        fifo = make_fifo(depth=64, length=4)
        fifo.note_issue()
        fifo.note_issue()
        with pytest.raises(SchedulingError, match="no units"):
            fifo.next_unit()

    def test_upcoming_units_window(self):
        fifo = make_fifo(depth=64, length=32)
        assert len(fifo.upcoming_units(4)) == 4
        fifo.note_issue()
        assert fifo.upcoming_units(100)[0] is fifo.units[1]


class TestWriteFifo:
    def test_needs_full_packet_to_drain(self):
        fifo = make_fifo(direction=Direction.WRITE, depth=8)
        assert not fifo.serviceable
        fifo.cpu_push()
        assert not fifo.serviceable
        fifo.cpu_push()
        assert fifo.serviceable

    def test_drain_consumes_elements(self):
        fifo = make_fifo(direction=Direction.WRITE, depth=8)
        fifo.cpu_push()
        fifo.cpu_push()
        fifo.note_issue()
        assert fifo.occupancy == 0

    def test_push_to_full_rejected(self):
        fifo = make_fifo(direction=Direction.WRITE, depth=2)
        fifo.cpu_push()
        fifo.cpu_push()
        with pytest.raises(SchedulingError, match="full"):
            fifo.cpu_push()

    def test_cannot_pop_write_fifo(self):
        fifo = make_fifo(direction=Direction.WRITE)
        fifo.cpu_push()
        assert not fifo.cpu_can_pop()

    def test_issue_unserviceable_rejected(self):
        fifo = make_fifo(direction=Direction.WRITE)
        with pytest.raises(SchedulingError, match="unserviceable"):
            fifo.note_issue()

    def test_write_fully_drained_when_exhausted(self):
        fifo = make_fifo(direction=Direction.WRITE, depth=8, length=4)
        for __ in range(4):
            fifo.cpu_push()
        fifo.note_issue()
        fifo.note_issue()
        assert fifo.fully_drained


class TestFifoProperties:
    @given(
        ops=st.lists(st.sampled_from(["issue", "arrive", "pop"]), max_size=60),
        depth=st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=100)
    def test_read_fifo_invariants(self, ops, depth):
        """Occupancy + inflight never exceeds depth; counts never go
        negative; arrivals never exceed what was issued."""
        fifo = make_fifo(depth=depth, length=64)
        pending = []  # in-flight packet element counts, FIFO order
        for op in ops:
            if op == "issue" and fifo.serviceable:
                unit = fifo.next_unit()
                fifo.note_issue()
                pending.append(unit.elements)
            elif op == "arrive" and pending:
                fifo.note_arrival(pending.pop(0))
            elif op == "pop" and fifo.cpu_can_pop():
                fifo.cpu_pop()
            assert 0 <= fifo.occupancy
            assert 0 <= fifo.inflight
            assert fifo.occupancy + fifo.inflight <= depth
