"""Tests for the multi-device Rambus channel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ProtocolError
from repro.cpu.kernels import DAXPY
from repro.memsys.config import MemorySystemConfig
from repro.naturalorder.controller import NaturalOrderController
from repro.rdram.audit import audit_trace
from repro.rdram.channel import ChannelGeometry, RambusChannel, make_memory
from repro.rdram.device import RdramDevice, RdramGeometry
from repro.rdram.packets import BusDirection
from repro.sim.runner import RunSpec, simulate


class TestChannelGeometry:
    def test_global_bank_count(self):
        geometry = ChannelGeometry(num_devices=4)
        assert geometry.num_banks == 32
        assert geometry.capacity_bytes == 4 * 8 * 1024 * 1024

    def test_device_and_local_bank(self):
        geometry = ChannelGeometry(num_devices=4)
        assert geometry.device_of(0) == 0
        assert geometry.device_of(8) == 1
        assert geometry.local_bank(19) == 3

    def test_device_count_limits(self):
        with pytest.raises(ConfigurationError):
            ChannelGeometry(num_devices=0)
        with pytest.raises(ConfigurationError):
            ChannelGeometry(num_devices=33)

    def test_neighbors_stay_within_device(self):
        geometry = ChannelGeometry(
            num_devices=2,
            device=RdramGeometry(num_banks=16, doubled_banks=True),
        )
        # Bank 15 is the last bank of device 0: no neighbor 16.
        assert geometry.neighbors(15) == (14,)
        assert geometry.neighbors(16) == (17,)

    def test_no_neighbors_without_doubling(self):
        assert ChannelGeometry(num_devices=2).neighbors(7) == ()


class TestMakeMemory:
    def test_dispatches_on_geometry(self):
        assert isinstance(make_memory(geometry=ChannelGeometry()), RambusChannel)
        assert isinstance(make_memory(geometry=RdramGeometry()), RdramDevice)
        assert isinstance(make_memory(), RdramDevice)


class TestChannelTiming:
    def test_t_rr_is_per_device(self, timing):
        channel = RambusChannel(geometry=ChannelGeometry(num_devices=2))
        first = channel.issue_act(0, 0, 0)   # device 0
        second = channel.issue_act(8, 0, 0)  # device 1: only row bus binds
        third = channel.issue_act(1, 0, 0)   # device 0 again: t_RR binds
        assert second.start == first.start + timing.t_pack
        assert third.start == first.start + timing.t_rr

    def test_shared_data_bus(self, timing):
        channel = RambusChannel(geometry=ChannelGeometry(num_devices=2))
        channel.issue_act(0, 0, 0)
        channel.issue_act(8, 0, 0)
        a = channel.issue_col(0, 0, 0, 0, BusDirection.READ)
        b = channel.issue_col(8, 0, 0, 0, BusDirection.READ)
        assert b.data.start == a.data.end

    def test_turnaround_is_channel_global(self, timing):
        channel = RambusChannel(geometry=ChannelGeometry(num_devices=2))
        channel.issue_act(0, 0, 0)
        channel.issue_act(8, 0, 0)
        write = channel.issue_col(0, 0, 0, 0, BusDirection.WRITE)
        read = channel.issue_col(8, 0, 0, write.col.end, BusDirection.READ)
        assert read.data.start >= write.data.end + timing.t_rw

    def test_bank_bounds(self):
        channel = RambusChannel(geometry=ChannelGeometry(num_devices=2))
        with pytest.raises(ProtocolError):
            channel.bank(16)

    def test_reset(self):
        channel = RambusChannel(geometry=ChannelGeometry(num_devices=2))
        channel.issue_act(0, 0, 0)
        channel.reset()
        assert channel.bytes_transferred == 0
        assert channel.issue_act(0, 0, 0).start == 0


class TestChannelAudit:
    def test_channel_trace_passes_with_per_device_t_rr(self, timing):
        channel = RambusChannel(geometry=ChannelGeometry(num_devices=2))
        channel.issue_act(0, 0, 0)
        channel.issue_act(8, 0, 0)
        channel.issue_col(0, 0, 0, 0, BusDirection.READ)
        channel.issue_col(8, 0, 0, 0, BusDirection.READ)
        audit_trace(channel.trace, timing, num_banks=16, banks_per_device=8)

    def test_single_device_audit_would_reject_same_trace(self, timing):
        from repro.errors import ProtocolError

        channel = RambusChannel(geometry=ChannelGeometry(num_devices=2))
        channel.issue_act(0, 0, 0)
        channel.issue_act(8, 0, 0)
        with pytest.raises(ProtocolError, match="t_RR"):
            audit_trace(channel.trace, timing, num_banks=16)


#: Per-device geometries the property draws from: the paper's part and
#: a double-bank core.
DEVICE_GEOMETRIES = (
    RdramGeometry(),
    RdramGeometry(num_banks=16, doubled_banks=True),
)

#: One stream access: (bank draw, row, column, cycles since the previous
#: request, write?, precharge flag).  Few rows, so page conflicts are
#: common; the bank draw is reduced modulo the memory's bank count.
accesses = st.lists(
    st.tuples(
        st.integers(0, 63),
        st.integers(0, 3),
        st.integers(0, 63),
        st.integers(0, 12),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=48,
)


def _replay(memory, ops):
    now = 0
    for bank, row, column, gap, write, precharge in ops:
        now += gap
        memory.issue_access(
            bank % memory.geometry.num_banks,
            row,
            column,
            now,
            BusDirection.WRITE if write else BusDirection.READ,
            precharge=precharge,
        )
    return memory.trace


class TestRandomAccessProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        device=st.sampled_from(DEVICE_GEOMETRIES),
        explicit_retire=st.booleans(),
        num_devices=st.sampled_from((2, 4)),
        ops=accesses,
    )
    def test_channels_match_device_and_pass_audit(
        self, device, explicit_retire, num_devices, ops
    ):
        def channel(devices):
            return RambusChannel(
                geometry=ChannelGeometry(num_devices=devices, device=device),
                explicit_retire=explicit_retire,
            )

        plain = _replay(
            RdramDevice(geometry=device, explicit_retire=explicit_retire), ops
        )
        assert _replay(channel(1), ops) == plain
        audit_trace(
            plain,
            num_banks=device.num_banks,
            doubled_banks=device.doubled_banks,
        )
        audit_trace(
            _replay(channel(num_devices), ops),
            num_banks=num_devices * device.num_banks,
            doubled_banks=device.doubled_banks,
            banks_per_device=device.num_banks,
        )


class TestControllersOnChannels:
    @pytest.mark.parametrize("devices", [1, 2, 4])
    def test_smc_runs_and_audits_on_channel(self, devices):
        config = MemorySystemConfig.cli(
            geometry=ChannelGeometry(num_devices=devices)
        )
        result = simulate(RunSpec(
            "daxpy", config, length=512, fifo_depth=32, audit=True
        ))
        assert result.percent_of_peak > 80

    def test_more_devices_never_hurt_smc(self):
        single = simulate(RunSpec(
            "daxpy",
            MemorySystemConfig.cli(geometry=ChannelGeometry(num_devices=1)),
            length=1024,
            fifo_depth=64,
        ))
        quad = simulate(RunSpec(
            "daxpy",
            MemorySystemConfig.cli(geometry=ChannelGeometry(num_devices=4)),
            length=1024,
            fifo_depth=64,
        ))
        assert quad.percent_of_peak >= single.percent_of_peak

    def test_single_device_channel_matches_plain_device(self):
        channel_config = MemorySystemConfig.cli(
            geometry=ChannelGeometry(num_devices=1)
        )
        plain = simulate(RunSpec("copy", "cli", length=512, fifo_depth=32))
        chan = simulate(RunSpec("copy", channel_config, length=512, fifo_depth=32))
        assert chan.cycles == plain.cycles
        assert chan.percent_of_peak == plain.percent_of_peak

    def test_natural_order_on_channel(self):
        config = MemorySystemConfig.pi(
            geometry=ChannelGeometry(num_devices=2)
        )
        controller = NaturalOrderController(config, record_trace=True)
        result = controller.run(DAXPY, length=256)
        audit_trace(
            controller.device.trace,
            config.timing,
            num_banks=16,
            banks_per_device=8,
        )
        assert result.percent_of_peak > 40
