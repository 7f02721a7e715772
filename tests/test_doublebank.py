"""Tests for the double-bank (shared sense amp) core architecture."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.memsys.address import get_address_mapping
from repro.memsys.config import MemorySystemConfig
from repro.rdram.device import RdramDevice, RdramGeometry
from repro.sim.runner import RunSpec, simulate


@pytest.fixture
def doubled():
    return RdramGeometry(num_banks=16, doubled_banks=True)


class TestGeometry:
    def test_neighbors(self, doubled):
        assert doubled.neighbors(0) == (1,)
        assert doubled.neighbors(5) == (4, 6)
        assert doubled.neighbors(15) == (14,)

    def test_independent_core_has_no_neighbors(self):
        assert RdramGeometry().neighbors(3) == ()

    def test_needs_two_banks(self):
        with pytest.raises(ConfigurationError):
            RdramGeometry(num_banks=1, doubled_banks=True)


class TestDeviceRules:
    def test_act_blocked_while_neighbor_open(self, doubled, timing):
        device = RdramDevice(geometry=doubled)
        device.issue_act(4, 0, 0)
        with pytest.raises(ProtocolError, match="adjacent"):
            device.issue_act(5, 0, 100)

    def test_act_waits_t_rp_from_neighbor_precharge(self, doubled, timing):
        device = RdramDevice(geometry=doubled)
        device.issue_act(4, 0, 0)
        prer = device.issue_prer(4, 0)
        act = device.issue_act(5, 0, prer)
        assert act >= prer + timing.t_rp

    def test_non_adjacent_banks_independent(self, doubled):
        device = RdramDevice(geometry=doubled)
        device.issue_act(4, 0, 0)
        act = device.issue_act(6, 0, 0)  # not adjacent: only t_RR binds
        assert act == 8


class TestAddressPermutation:
    def test_consecutive_lines_land_on_non_adjacent_banks(self, doubled):
        config = MemorySystemConfig.cli(geometry=doubled)
        mapping = get_address_mapping(config)
        banks = [mapping.decompose(i * 32).bank for i in range(17)]
        for a, b in zip(banks, banks[1:]):
            assert abs(a - b) != 1
        # All sixteen banks are still used.
        assert set(banks) == set(range(16))

    def test_permuted_map_round_trips(self, doubled):
        config = MemorySystemConfig.pi(geometry=doubled)
        mapping = get_address_mapping(config)
        for address in range(0, 16 * 1024 * 1024, 131072):
            location = mapping.decompose(address)
            assert mapping.compose(location) == address - address % 16

    def test_plain_geometry_keeps_identity_order(self, cli_config):
        mapping = get_address_mapping(cli_config)
        banks = [mapping.decompose(i * 32).bank for i in range(8)]
        assert banks == list(range(8))


class TestEffectivelyEight:
    @pytest.mark.parametrize("org", ["cli", "pi"])
    def test_double_bank_tracks_eight_independent(self, org, doubled):
        """Section 2.2: sixteen doubled banks behave like eight
        independent ones (within a tolerance for the pairing rules)."""
        eight = simulate(RunSpec("daxpy", org, length=1024, fifo_depth=64))
        doubled_config = getattr(MemorySystemConfig, org)(geometry=doubled)
        sixteen = simulate(RunSpec(
            "daxpy", doubled_config, length=1024, fifo_depth=64, audit=True
        ))
        assert sixteen.percent_of_peak > 0.88 * eight.percent_of_peak

    def test_sixteen_independent_at_least_as_good(self, doubled):
        independent = MemorySystemConfig.cli(
            geometry=RdramGeometry(num_banks=16)
        )
        paired = MemorySystemConfig.cli(geometry=doubled)
        free = simulate(RunSpec("vaxpy", independent, length=1024, fifo_depth=64))
        constrained = simulate(RunSpec("vaxpy", paired, length=1024, fifo_depth=64))
        assert free.percent_of_peak >= constrained.percent_of_peak
