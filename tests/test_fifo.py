"""Tests for stream FIFOs and access-unit planning."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError, StreamError
from repro.core import fifo as fifo_module
from repro.core.fifo import StreamFifo, build_plan
from repro.core.smc import build_smc_system
from repro.cpu.kernels import KERNELS
from repro.cpu.streams import Alignment, Direction, StreamDescriptor, place_streams
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.rdram.channel import ChannelGeometry
from repro.rdram.device import RdramGeometry
from repro.sim.batch import run_smc_batch
from repro.sim.runner import RunSpec, simulate


def make_units(stride=1, length=64, org="cli", base=0):
    config = getattr(MemorySystemConfig, org)()
    descriptor = StreamDescriptor(
        "x", base=base, stride=stride, length=length, direction=Direction.READ
    )
    return build_plan(descriptor, config)


class TestAccessUnits:
    def test_unit_stride_pairs_elements_into_packets(self):
        units = make_units(stride=1, length=64)
        assert len(units) == 32
        assert all(elements == 2 for _, _, _, elements, _ in units)

    def test_stride_two_uses_one_element_per_packet(self):
        units = make_units(stride=2, length=64)
        assert len(units) == 64
        assert all(elements == 1 for _, _, _, elements, _ in units)

    def test_units_cover_every_element_exactly_once(self):
        for stride in (1, 2, 3, 4, 7, 16):
            units = make_units(stride=stride, length=50)
            assert sum(elements for _, _, _, elements, _ in units) == 50

    def test_closed_page_flags_last_unit_of_each_line(self):
        units = make_units(stride=1, length=16, org="cli")
        # 4-word lines, 2 packets per line: flags on every second unit.
        flags = [precharge for *_, precharge in units]
        assert flags == [False, True] * 4

    def test_open_page_plants_no_flags(self):
        units = make_units(stride=1, length=64, org="pi")
        assert not any(precharge for *_, precharge in units)

    def test_closed_page_run_spans_same_row(self):
        # At stride 8 on CLI, each element is its own line; every unit
        # is the last of its run.
        units = make_units(stride=8, length=16, org="cli")
        assert all(precharge for *_, precharge in units)

    def test_pi_units_stay_in_bank_for_a_page(self):
        units = make_units(stride=1, length=256, org="pi")
        banks = [bank for bank, *_ in units]
        assert banks[:64] == [0] * 64
        assert banks[64:128] == [1] * 64

    def test_cli_units_rotate_banks_each_line(self):
        units = make_units(stride=1, length=64, org="cli")
        banks = [bank for bank, *_ in units]
        assert banks[:8] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_final_partial_flag_on_stream_end(self):
        units = make_units(stride=1, length=6, org="cli")
        *_, precharge = units[-1]
        assert precharge


#: Memories the plan must cover: channels x devices per channel, and
#: one channel given as a ChannelGeometry.
TOPOLOGIES = {
    "1x1": MemoryTopology(),
    "1x2": MemoryTopology(devices_per_channel=2),
    "2x1": MemoryTopology(channels=2),
    "2x2": MemoryTopology(channels=2, devices_per_channel=2),
    "channel-geometry": None,
}


@pytest.mark.skipif(fifo_module._np is None, reason="numpy is not installed")
class TestVectorPlan:
    """The numpy plan against the element-by-element one.

    Both SMC loops read :func:`build_plan`, so the event-vs-batch
    properties cannot check the numpy arithmetic against
    ``AddressMapping.decompose``; these do.
    """

    @given(
        kernel=st.sampled_from(sorted(KERNELS)),
        interleaving=st.sampled_from(["cli", "pi", "swizzle"]),
        num_banks=st.sampled_from([2, 3, 4, 5, 6, 8, 12, 16]),
        page_bytes=st.sampled_from([256, 512, 1024, 2048]),
        line_bytes=st.sampled_from([16, 32, 64, 128]),
        topology=st.sampled_from(sorted(TOPOLOGIES)),
        stride=st.integers(min_value=1, max_value=8),
        alignment=st.sampled_from([Alignment.ALIGNED, Alignment.STAGGERED]),
        length=st.integers(min_value=1, max_value=300),
        page_policy=st.sampled_from(["closed", "open", "timeout"]),
    )
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_numpy_plan_equals_element_plan(
        self, kernel, interleaving, num_banks, page_bytes, line_bytes,
        topology, stride, alignment, length, page_policy,
    ):
        device = RdramGeometry(num_banks=num_banks, page_bytes=page_bytes)
        if TOPOLOGIES[topology] is None:
            layout = {"geometry": ChannelGeometry(num_devices=2, device=device)}
        else:
            layout = {"geometry": device, "topology": TOPOLOGIES[topology]}
        config = MemorySystemConfig(
            interleaving=interleaving,
            page_policy=page_policy,
            cacheline_bytes=line_bytes,
            **layout,
        )
        descriptors = place_streams(
            KERNELS[kernel].streams, config, length=length, stride=stride,
            alignment=alignment,
        )
        for descriptor in descriptors:
            vector = build_plan(descriptor, config)
            with mock.patch.object(fifo_module, "_np", None):
                assert build_plan(descriptor, config) == vector

    @pytest.mark.parametrize(
        "spec",
        [
            RunSpec("daxpy", "cli", length=512, channels=2, devices=2),
            RunSpec("vaxpy", "pi", length=512, stride=3),
            RunSpec(
                "copy", "pi", length=512, interleaving="swizzle",
                page_policy="timeout",
            ),
        ],
        ids=["cli", "pi", "swizzle"],
    )
    def test_simulate_without_numpy_matches(self, spec):
        with mock.patch.object(fifo_module, "_np", None):
            element = simulate(spec)
        assert element == simulate(spec)


def make_fifo(depth=8, direction=Direction.READ, length=32, stride=1):
    config = MemorySystemConfig.cli()
    descriptor = StreamDescriptor(
        "s", base=0, stride=stride, length=length, direction=direction
    )
    return StreamFifo(descriptor, depth, build_plan(descriptor, config))


class TestReadFifo:
    def test_depth_must_hold_a_packet(self):
        with pytest.raises(StreamError, match="depth"):
            make_fifo(depth=1)
        config = MemorySystemConfig.cli()
        for depth, message in [
            (1, "FIFO depth 1 smaller than a 2-element DATA packet"),
            (7.5, "FIFO depth must be an integer, got 7.5"),
            ("64", "FIFO depth must be an integer, got '64'"),
            (True, "FIFO depth must be an integer, got True"),
        ]:
            # The event kernel's FIFOs, then the batch loop.
            with pytest.raises(StreamError, match=message):
                build_smc_system(
                    KERNELS["copy"], config, length=64, fifo_depth=depth
                )
            with pytest.raises(StreamError, match=message):
                run_smc_batch(
                    KERNELS["copy"], config, length=64, fifo_depth=depth
                )

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
                _, _, _, elements, _ = fifo.next_unit()
                fifo.note_issue()
                pending.append(elements)
            elif op == "arrive" and pending:
                fifo.note_arrival(pending.pop(0))
            elif op == "pop" and fifo.cpu_can_pop():
                fifo.cpu_pop()
            assert 0 <= fifo.occupancy
            assert 0 <= fifo.inflight
            assert fifo.occupancy + fifo.inflight <= depth
