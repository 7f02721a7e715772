"""Tests for CLI and PI address decomposition."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.memsys.address import Location, get_address_mapping
from repro.memsys.config import MemorySystemConfig


@pytest.fixture
def cli_map(cli_config):
    return get_address_mapping(cli_config)


@pytest.fixture
def pi_map(pi_config):
    return get_address_mapping(pi_config)


class TestCliMap:
    def test_consecutive_cachelines_hit_consecutive_banks(self, cli_map, cli_config):
        line = cli_config.cacheline_bytes
        banks = [cli_map.decompose(i * line).bank for i in range(16)]
        assert banks == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7]

    def test_within_line_same_location_row(self, cli_map):
        first = cli_map.decompose(0)
        second = cli_map.decompose(16)
        assert (first.bank, first.row) == (second.bank, second.row)
        assert second.column == first.column + 1

    def test_bank_stride_of_eight_lines_shares_bank(self, cli_map, cli_config):
        line = cli_config.cacheline_bytes
        a = cli_map.decompose(0)
        b = cli_map.decompose(8 * line)
        assert a.bank == b.bank
        assert b.column == a.column + cli_config.packets_per_cacheline

    def test_row_advances_after_page_worth_of_lines(self, cli_map, cli_config):
        line = cli_config.cacheline_bytes
        lines_per_page = cli_config.cachelines_per_page
        banks = cli_config.geometry.num_banks
        a = cli_map.decompose(0)
        b = cli_map.decompose(lines_per_page * banks * line)
        assert b.bank == a.bank
        assert b.row == a.row + 1


class TestPiMap:
    def test_consecutive_pages_hit_consecutive_banks(self, pi_map, pi_config):
        page = pi_config.geometry.page_bytes
        banks = [pi_map.decompose(i * page).bank for i in range(10)]
        assert banks == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]

    def test_within_page_same_bank_row(self, pi_map, pi_config):
        locations = {
            (pi_map.decompose(addr).bank, pi_map.decompose(addr).row)
            for addr in range(0, pi_config.geometry.page_bytes, 16)
        }
        assert len(locations) == 1

    def test_column_counts_packets(self, pi_map):
        assert pi_map.decompose(0).column == 0
        assert pi_map.decompose(16).column == 1
        assert pi_map.decompose(1008).column == 63

    def test_row_advances_after_full_rotation(self, pi_map, pi_config):
        rotation = pi_config.geometry.num_banks * pi_config.geometry.page_bytes
        a = pi_map.decompose(0)
        b = pi_map.decompose(rotation)
        assert (b.bank, b.row) == (a.bank, a.row + 1)


class TestErrors:
    def test_address_out_of_range(self, cli_map):
        with pytest.raises(ConfigurationError, match="outside"):
            cli_map.decompose(cli_map.capacity_bytes)
        with pytest.raises(ConfigurationError):
            cli_map.decompose(-1)

    def test_compose_rejects_bad_coordinates(self, cli_map):
        with pytest.raises(ConfigurationError):
            cli_map.compose(Location(bank=8, row=0, column=0))
        with pytest.raises(ConfigurationError):
            cli_map.compose(Location(bank=0, row=1024, column=0))
        with pytest.raises(ConfigurationError):
            cli_map.compose(Location(bank=0, row=0, column=64))
        with pytest.raises(ConfigurationError):
            cli_map.compose(Location(bank=0, row=0, column=0), byte_offset=16)


addresses = st.integers(min_value=0, max_value=8 * 1024 * 1024 - 1)


class TestRoundTrip:
    @given(address=addresses)
    @settings(max_examples=200)
    def test_cli_round_trip(self, address):
        mapping = get_address_mapping(MemorySystemConfig.cli())
        packet_base = address - address % 16
        location = mapping.decompose(address)
        assert mapping.compose(location, address % 16) == address
        assert mapping.compose(location) == packet_base

    @given(address=addresses)
    @settings(max_examples=200)
    def test_pi_round_trip(self, address):
        mapping = get_address_mapping(MemorySystemConfig.pi())
        location = mapping.decompose(address)
        assert mapping.compose(location, address % 16) == address

    @given(address=addresses)
    @settings(max_examples=100)
    def test_maps_disagree_only_on_arrangement(self, address):
        # Both maps must place every address somewhere valid; they are
        # permutations of the same location space.
        cli_loc = get_address_mapping(MemorySystemConfig.cli()).decompose(
            address
        )
        pi_loc = get_address_mapping(MemorySystemConfig.pi()).decompose(
            address
        )
        for loc in (cli_loc, pi_loc):
            assert 0 <= loc.bank < 8
            assert 0 <= loc.row < 1024
            assert 0 <= loc.column < 64
