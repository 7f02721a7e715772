"""Tests for the random-access driver."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.memsys.config import MemorySystemConfig
from repro.naturalorder.random_driver import RandomAccessDriver
from repro.rdram.audit import audit_trace
from repro.rdram.channel import ChannelGeometry


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
