"""The device's issue contract: plain tuples, packets only when traced.

``RdramDevice.issue_access`` returns ``(first_cmd, col_start,
data_start, data_end, conflicts, page_hit)`` and builds packet records
only when the device records a trace.  So the untraced path must do
exactly what the traced one does, every returned tuple must agree
with the packets the traced device recorded for that access, and the
bank state the device keeps must be the one its own trace replays to.

``issue_access`` commits an access's PRER, ACT and COL in its own
frame.  :func:`chained_access` is the same access as the single-command
sequence (``issue_prer``, ``issue_act``, ``issue_col``), the reference
the fused path must equal in every result, state, record and error.

A DATA packet starting at cycle s holds the bus until s + t_PACK.  The
last part checks that every consumer agrees with the trace on that
at a non-default t_PACK: run ends, the batch engine and the traffic
layer's latency attribution.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.smc import build_smc_system
from repro.cpu.kernels import KERNELS
from repro.errors import ProtocolError
from repro.memsys.address import get_address_mapping
from repro.memsys.config import MemorySystemConfig
from repro.memsys.pagemanager import PAGE_POLICIES, PageManager
from repro.naturalorder.controller import NaturalOrderController
from repro.naturalorder.random_driver import RandomAccessDriver
from repro.obs.core import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.rdram.audit import audit_memory, audit_trace
from repro.rdram.channel import ChannelGeometry, make_memory
from repro.rdram import device as device_module
from repro.rdram.device import NEVER, BankState, RdramDevice, RdramGeometry
from repro.rdram.packets import (
    BusDirection,
    ColPacket,
    DataPacket,
    RowCommand,
    RowPacket,
)
from repro.rdram.timing import RdramTiming
from repro.sim.batch import run_smc_batch
from repro.sim.engine import run_smc
from repro.traffic import driver as traffic_driver
from repro.traffic.driver import LATENCY_BUCKETS, run_traffic
from repro.traffic.workload import TrafficWorkload

GEOMETRIES = (
    RdramGeometry(),
    ChannelGeometry(num_devices=2),
    RdramGeometry(num_banks=16, doubled_banks=True),
)

#: One stream access: (bank draw, row, column, cycles since the previous
#: request, write?, precharge flag).  Few rows, so page conflicts are
#: common; gaps reach past the timeout policy's default of 64 cycles.
accesses = st.lists(
    st.tuples(
        st.integers(0, 63),
        st.integers(0, 3),
        st.integers(0, 63),
        st.integers(0, 96),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


def _device(geometry, policy, record_trace):
    device = RdramDevice(geometry=geometry, record_trace=record_trace)
    device.page_manager = PAGE_POLICIES[policy]()
    return device


def _state(device):
    """Every bank's and bus's state, plus the page manager's."""
    banks = [device.bank(index) for index in range(device.geometry.num_banks)]
    buses = {k: v for k, v in vars(device).items() if k.startswith("_")}
    return banks, buses, vars(device.page_manager)


def _replayed_banks(trace, num_banks, t_pack):
    """Every bank's state, replayed from a trace in issue order."""
    banks = [[None, NEVER, NEVER, NEVER] for _ in range(num_banks)]
    for packet in trace:
        if isinstance(packet, RowPacket):
            if packet.command is RowCommand.ACT:
                banks[packet.bank][:2] = [packet.row, packet.start]
            else:
                banks[packet.bank][0] = None
                banks[packet.bank][2] = packet.start
        elif isinstance(packet, ColPacket):
            banks[packet.bank][3] = packet.start + t_pack
    return [BankState(*bank) for bank in banks]


def _check_against_trace(issued, packets, t_pack):
    """One access's returned tuple agrees with the packets it appended."""
    first_cmd, col_start, data_start, data_end, conflicts, page_hit = issued
    row_bus = [
        p for p in packets if isinstance(p, RowPacket) and not p.via_col
    ]
    (col,) = [p for p in packets if isinstance(p, ColPacket)]
    (data,) = [p for p in packets if isinstance(p, DataPacket)]
    assert col_start == col.start == data.source_col_start
    assert data_start == data.start
    assert data_end - data_start == t_pack
    assert first_cmd == (row_bus[0].start if row_bus else col.start)
    assert conflicts == sum(p.command is RowCommand.PRER for p in row_bus)
    acts = [p for p in row_bus if p.command is RowCommand.ACT]
    assert page_hit == (not acts)
    assert len(acts) == (0 if page_hit else 1)


class TestTracedMatchesUntraced:
    @settings(max_examples=80, deadline=None)
    @given(
        geometry=st.sampled_from(GEOMETRIES),
        policy=st.sampled_from(("open", "closed", "timeout", "hybrid")),
        ops=accesses,
    )
    def test_same_tuples_state_and_trace(self, geometry, policy, ops):
        traced = _device(geometry, policy, True)
        untraced = _device(geometry, policy, False)
        t_pack = traced.timing.t_pack
        now = 0
        for bank, row, column, gap, write, precharge in ops:
            now += gap
            args = (
                bank % geometry.num_banks,
                row,
                column,
                now,
                BusDirection.WRITE if write else BusDirection.READ,
                precharge,
            )
            before = len(traced.trace)
            issued = traced.issue_access(*args)
            assert untraced.issue_access(*args) == issued
            _check_against_trace(issued, traced.trace[before:], t_pack)
        assert untraced.trace == []
        assert _state(untraced) == _state(traced)
        assert _state(traced)[0] == _replayed_banks(
            traced.trace, geometry.num_banks, t_pack
        )
        audit_trace(
            traced.trace,
            traced.timing,
            num_banks=geometry.num_banks,
            doubled_banks=geometry.doubled_banks,
            banks_per_device=getattr(geometry, "device", geometry).num_banks,
        )

    def test_untraced_device_builds_no_packets(self, monkeypatch):
        def no_object(*fields):
            raise AssertionError(f"untraced device built {fields}")

        def drive(policy):
            device = _device(GEOMETRIES[2], policy, False)
            read, write = BusDirection.READ, BusDirection.WRITE
            device.issue_access(0, 0, 0, 0, write)  # ACT
            device.issue_access(0, 1, 0, 10, read)  # PRER, ACT
            device.issue_access(1, 0, 0, 20, read, True)  # neighbor PRER, via-COL PRER
            device.issue_access(3, 0, 0, 30, read)
            device.issue_access(3, 0, 1, 2000, read)  # autoclose on timeout
            assert device.bytes_transferred == 5 * 16

        for name in ("RowPacket", "ColPacket", "DataPacket"):
            monkeypatch.setattr(device_module, name, no_object)
        drive("timeout")
        # Nor a bank snapshot.  The timeout manager reads bank() by
        # design (it needs the last ACT and COL), so this runs under a
        # runtime manager whose hooks read none.
        monkeypatch.setattr(device_module, "BankState", no_object)
        drive("hybrid")


def chained_access(device, bank, row, column, now, direction, precharge=False):
    """One access as the single-command sequence: the reference for
    ``RdramDevice.issue_access``.

    Syncs a runtime page manager on the bank and its neighbors,
    precharges the bank if it holds another row and every open
    double-bank neighbor, activates, consults the manager, issues the
    COL packet, then feeds a stateful mapping and counts the access.
    """
    device.open_row(bank)  # the bounds check comes first
    neighbors = device.geometry.neighbors(bank)
    manager = device.page_manager
    runtime = manager is not None and manager.runtime
    if runtime:
        manager.sync(device, bank, now)
        for neighbor in neighbors:
            manager.sync(device, neighbor, now)
    open_row = device.open_row(bank)
    page_hit = open_row == row
    first_cmd = None
    conflicts = 0
    if not page_hit:
        if open_row is not None:
            conflicts += 1
            first_cmd = device.issue_prer(bank, now)
        for neighbor in neighbors:
            if device.open_row(neighbor) is not None:
                conflicts += 1
                start = device.issue_prer(neighbor, now)
                if first_cmd is None:
                    first_cmd = start
        start = device.issue_act(bank, row, now)
        if first_cmd is None:
            first_cmd = start
    if runtime:
        manager.observe(device, bank, row)
        if not precharge:
            precharge = manager.close_after(device, bank, row)
    col_start, data_start, data_end = device.issue_col(
        bank, row, column, now, direction, precharge
    )
    if first_cmd is None:
        first_cmd = col_start
    obs = device.obs
    mapping = device.mapping
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


def _dream(geometry):
    """A ``dream`` mapping over ``geometry``'s banks that re-arranges
    every few accesses."""
    return get_address_mapping(
        MemorySystemConfig(
            geometry=RdramGeometry(num_banks=geometry.num_banks),
            interleaving="dream",
            remap_epoch_accesses=3,
        )
    )


def _records(device):
    """Everything an access leaves behind beyond the device's state:
    its trace, gap log, obs counters (in first-count order), gauges
    and spans, and the attached mapping's monitor."""
    obs = device.obs
    counters = obs and list(obs.counters.counters.items())
    return (
        list(device.trace),
        list(device.gap_log),
        counters,
        obs and obs.tracer.spans,
        obs and obs.counters.gauges,
        device.mapping and vars(device.mapping),
    )


class TestFusedMatchesChained:
    @settings(max_examples=150, deadline=None)
    @given(
        geometry=st.sampled_from(GEOMETRIES),
        policy=st.sampled_from(("open", "closed", "timeout", "hybrid")),
        record_trace=st.booleans(),
        observed=st.booleans(),
        stateful=st.booleans(),
        ops=accesses,
    )
    def test_same_tuples_state_and_records(
        self, geometry, policy, record_trace, observed, stateful, ops,
    ):
        fused, chained = (
            _device(geometry, policy, record_trace) for _ in range(2)
        )
        for device in (fused, chained):
            if observed:
                device.obs = Instrumentation()
                device.gap_log = device.obs.gaps
            else:
                device.gap_log = []
            if stateful:
                device.mapping = _dream(geometry)
        now = 0
        for bank, row, column, gap, write, precharge in ops:
            now += gap
            args = (
                bank % geometry.num_banks,
                row,
                column,
                now,
                BusDirection.WRITE if write else BusDirection.READ,
                precharge,
            )
            assert fused.issue_access(*args) == chained_access(chained, *args)
            assert _state(fused) == _state(chained)
            assert _records(fused) == _records(chained)

    @pytest.mark.parametrize(
        "bank, row, column, match",
        [
            (-1, 0, 0, "bank index -1 out of range"),
            (8, 0, 0, "bank index 8 out of range"),
            # The bank holds row 0: its PRER commits before the row fails.
            (0, 1024, 0, "row 1024 out of range"),
            # The ACT commits before the column fails.
            (1, 0, 64, "column 64 out of range"),
        ],
    )
    def test_same_error_after_the_same_commands(self, bank, row, column, match):
        devices = []
        for access in (RdramDevice.issue_access, chained_access):
            device = _device(GEOMETRIES[0], "open", True)
            device.obs = Instrumentation()
            access(device, 0, 0, 0, 0, BusDirection.READ)
            with pytest.raises(ProtocolError, match=match):
                access(device, bank, row, column, 40, BusDirection.READ)
            devices.append(device)
        fused, chained = devices
        assert _state(fused) == _state(chained)
        assert fused.trace == chained.trace
        assert fused.obs == chained.obs

    def test_col_refused_when_the_manager_closed_the_row(self):
        class ClosingManager(PageManager):
            """Closes the bank while observing the access."""

            name = "closing"
            runtime = True

            def observe(self, memory, bank_index, row):
                memory.autoclose(bank_index, 0)

        for access in (RdramDevice.issue_access, chained_access):
            device = RdramDevice()
            device.page_manager = ClosingManager()
            with pytest.raises(ProtocolError, match="COL to row 0 but open"):
                access(device, 0, 0, 0, 0, BusDirection.READ)


#: A valid timing whose packets last eight cycles (t_RW = t_PACK + t_RDLY).
LONG_PACKETS = dataclasses.replace(
    MemorySystemConfig.cli(), timing=RdramTiming(t_pack=8, t_rw=10)
)


def _last_data_end(memory):
    """Last traced DATA packet's start plus t_PACK."""
    return (
        max(p.start for p in memory.trace if isinstance(p, DataPacket))
        + memory.timing.t_pack
    )


class TestDataEndsFollowTPack:
    def test_traffic_latency_attribution_closes(self, monkeypatch):
        # run_traffic records no trace; build its memory traced.
        built = []

        def traced_memory(config):
            built.append(make_memory(config, record_trace=True))
            return built[-1]

        monkeypatch.setattr(traffic_driver, "make_memory", traced_memory)
        registry = MetricsRegistry()
        workload = TrafficWorkload(clients=8, requests=200, mean_gap=40, seed=1)
        # Before DATA ends followed t_PACK, this raised "latency
        # attribution drifted".
        result = run_traffic(
            workload=workload, config=LONG_PACKETS, registry=registry
        )
        (memory,) = built
        latency = registry.histogram("traffic.latency_cycles", LATENCY_BUCKETS)
        assert latency.count == 200
        assert sum(result.component_cycles.values()) == int(latency.sum)
        packets = 200 * LONG_PACKETS.packets_per_cacheline
        assert result.channel_busy_cycles == (packets * 8,)
        assert result.cycles == _last_data_end(memory)
        audit_memory(memory)

    def test_natural_order_run_ends_with_its_last_data_packet(self):
        controller = NaturalOrderController(LONG_PACKETS, record_trace=True)
        result = controller.run(KERNELS["copy"], length=64)
        assert result.cycles == _last_data_end(controller.device)
        audit_memory(controller.device)

    def test_smc_engines_agree_and_end_with_the_last_data_packet(self):
        system = build_smc_system(
            KERNELS["daxpy"], LONG_PACKETS, length=256, fifo_depth=32,
            record_trace=True,
        )
        event = run_smc(system)
        batch = run_smc_batch(
            KERNELS["daxpy"], LONG_PACKETS, length=256, fifo_depth=32
        )
        assert event == batch
        assert event.cycles == _last_data_end(system.device)
        audit_memory(system.device)

    def test_random_driver_run_ends_with_its_last_data_packet(self):
        driver = RandomAccessDriver(LONG_PACKETS, record_trace=True)
        result = driver.run(64, seed=1)
        assert result.cycles == _last_data_end(driver.device)
        audit_memory(driver.device)
