"""Tests for explicit write-buffer retire and the random-access driver."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.memsys.config import MemorySystemConfig
from repro.naturalorder.random_driver import RandomAccessDriver
from repro.rdram.audit import audit_trace
from repro.rdram.channel import ChannelGeometry
from repro.rdram.device import RdramDevice
from repro.rdram.packets import BusDirection, ColCommand, ColPacket


class TestExplicitRetire:
    def test_ret_packet_emitted_between_wr_and_rd(self, timing):
        device = RdramDevice(explicit_retire=True)
        device.issue_act(0, 0, 0)
        write_col, _, _ = device.issue_col(0, 0, 0, 0, BusDirection.WRITE)
        write_col_end = write_col + timing.t_pack
        read_col, _, _ = device.issue_col(
            0, 0, 1, write_col_end, BusDirection.READ
        )
        rets = [
            p for p in device.trace
            if isinstance(p, ColPacket) and p.command is ColCommand.RET
        ]
        assert len(rets) == 1
        assert write_col_end <= rets[0].start <= read_col - timing.t_pack
        audit_trace(device.trace, timing)

    def test_data_timing_matches_folded_model(self, timing):
        """Explicit retires must not change data timing: t_RW already
        folds the retire slot in."""
        explicit = RdramDevice(explicit_retire=True)
        folded = RdramDevice(explicit_retire=False)
        for device in (explicit, folded):
            device.issue_act(0, 0, 0)
            device.issue_col(0, 0, 0, 0, BusDirection.WRITE)
        _, e_data, _ = explicit.issue_col(0, 0, 1, 0, BusDirection.READ)
        _, f_data, _ = folded.issue_col(0, 0, 1, 0, BusDirection.READ)
        assert e_data == f_data

    def test_no_ret_between_consecutive_writes(self):
        device = RdramDevice(explicit_retire=True)
        device.issue_act(0, 0, 0)
        device.issue_col(0, 0, 0, 0, BusDirection.WRITE)
        device.issue_col(0, 0, 1, 0, BusDirection.WRITE)
        rets = [
            p for p in device.trace
            if isinstance(p, ColPacket) and p.command is ColCommand.RET
        ]
        assert rets == []

    def test_only_first_read_after_writes_pays(self):
        device = RdramDevice(explicit_retire=True)
        device.issue_act(0, 0, 0)
        device.issue_col(0, 0, 0, 0, BusDirection.WRITE)
        device.issue_col(0, 0, 1, 0, BusDirection.READ)
        device.issue_col(0, 0, 2, 0, BusDirection.READ)
        rets = [
            p for p in device.trace
            if isinstance(p, ColPacket) and p.command is ColCommand.RET
        ]
        assert len(rets) == 1


class TestRandomAccessDriver:
    def test_deterministic_per_seed(self, cli_config):
        a = RandomAccessDriver(cli_config).run(200, seed=3)
        b = RandomAccessDriver(cli_config).run(200, seed=3)
        assert a == b
        c = RandomAccessDriver(cli_config).run(200, seed=4)
        assert c.cycles != a.cycles

    def test_trace_is_protocol_legal(self, cli_config):
        driver = RandomAccessDriver(cli_config, record_trace=True)
        driver.run(100, seed=1)
        audit_trace(driver.device.trace, cli_config.timing)

    def test_write_mix(self, cli_config):
        result = RandomAccessDriver(cli_config).run(
            300, write_fraction=0.3, seed=5
        )
        assert result.percent_of_peak > 20

    def test_invalid_arguments(self, cli_config):
        with pytest.raises(ConfigurationError):
            RandomAccessDriver(cli_config, queue_depth=0)
        with pytest.raises(ConfigurationError):
            RandomAccessDriver(cli_config).run(10, write_fraction=1.5)
        for depth in (2.5, True):
            with pytest.raises(ConfigurationError, match="queue_depth"):
                RandomAccessDriver(cli_config, queue_depth=depth)
        for count in (-3, 2.5, True):
            with pytest.raises(ConfigurationError, match="num_transactions"):
                RandomAccessDriver(cli_config).run(count)

    def test_efficiency_scales_with_devices(self):
        """The Crisp reconciliation: random loads approach ~95%
        efficiency only with many devices on the channel."""
        results = {}
        for devices in (1, 8):
            config = MemorySystemConfig.cli(
                geometry=ChannelGeometry(num_devices=devices)
            )
            results[devices] = RandomAccessDriver(config, queue_depth=8).run(
                1000, seed=7
            ).percent_of_peak
        assert results[1] < 70
        assert results[8] > 90

    def test_open_page_hurts_random_loads(self):
        """PI's open-page policy is the wrong choice for random
        accesses — the paper's Section 6 point that PI 'should perform
        much worse than CLI for more random, non-stream accesses'."""
        cli = RandomAccessDriver(MemorySystemConfig.cli()).run(500, seed=2)
        pi = RandomAccessDriver(MemorySystemConfig.pi()).run(500, seed=2)
        assert cli.percent_of_peak > pi.percent_of_peak
