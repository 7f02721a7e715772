"""Property tests for the address-mapping registry.

Every registered :class:`~repro.memsys.address.AddressMapping` must be
a byte-exact bijection between addresses and (bank, row, column)
locations on *any* legal geometry — including odd bank counts and
double-bank cores with their even/odd bank permutation.  These are
properties of the mapping contract, not of the two paper maps, so new
registrations are covered automatically.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.address import MAPPINGS, get_address_mapping
from repro.memsys.config import MemorySystemConfig
from repro.rdram.device import RdramGeometry


@st.composite
def mapped_addresses(draw):
    """A (mapping, config, address) triple over random geometries."""
    num_banks = draw(st.integers(min_value=1, max_value=16))
    doubled = draw(st.booleans()) if num_banks >= 2 else False
    geometry = RdramGeometry(
        num_banks=num_banks,
        page_bytes=draw(st.sampled_from((256, 512, 1024, 2048))),
        rows_per_bank=draw(st.integers(min_value=2, max_value=32)),
        doubled_banks=doubled,
    )
    name = draw(st.sampled_from(MAPPINGS.names()))
    config = MemorySystemConfig(
        geometry=geometry, interleaving=name, page_policy="open"
    )
    mapping = get_address_mapping(config)
    address = draw(
        st.integers(min_value=0, max_value=mapping.capacity_bytes - 1)
    )
    return mapping, address


class TestBijectionProperties:
    @given(mapped_addresses())
    @settings(max_examples=300)
    def test_round_trip_is_byte_exact(self, case):
        mapping, address = case
        location = mapping.decompose(address)
        assert mapping.compose(location, address % 16) == address
        assert mapping.compose(location) == address - address % 16

    @given(mapped_addresses())
    @settings(max_examples=300)
    def test_locations_stay_in_range(self, case):
        mapping, address = case
        geometry = mapping.config.geometry
        location = mapping.decompose(address)
        assert 0 <= location.bank < geometry.num_banks
        assert 0 <= location.row < geometry.rows_per_bank
        assert 0 <= location.column < geometry.page_bytes // 16

    @pytest.mark.parametrize("num_banks", (1, 3, 4, 8))
    @pytest.mark.parametrize("name", sorted(MAPPINGS))
    def test_full_coverage_on_a_small_device(self, name, num_banks):
        # Exhaustively: every packet address maps to a distinct
        # location and composes back — an exact bijection.
        geometry = RdramGeometry(
            num_banks=num_banks, page_bytes=256, rows_per_bank=4
        )
        mapping = get_address_mapping(
            MemorySystemConfig(
                geometry=geometry, interleaving=name, page_policy="open"
            )
        )
        seen = set()
        for address in range(0, mapping.capacity_bytes, 16):
            location = mapping.decompose(address)
            key = (location.bank, location.row, location.column)
            assert key not in seen
            seen.add(key)
            assert mapping.compose(location) == address
        assert len(seen) == mapping.capacity_bytes // 16


class TestDoubledBankPermutation:
    def test_consecutive_lines_visit_evens_then_odds(self):
        config = MemorySystemConfig.cli(
            geometry=RdramGeometry(num_banks=16, doubled_banks=True)
        )
        mapping = get_address_mapping(config)
        line = config.cacheline_bytes
        banks = [mapping.bank_of(i * line) for i in range(16)]
        assert banks == [0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15]

    @given(st.sampled_from(sorted(MAPPINGS)))
    def test_doubled_permutation_keeps_the_bijection(self, name):
        geometry = RdramGeometry(
            num_banks=6, page_bytes=256, rows_per_bank=4, doubled_banks=True
        )
        mapping = get_address_mapping(
            MemorySystemConfig(
                geometry=geometry, interleaving=name, page_policy="open"
            )
        )
        addresses = {
            mapping.compose(mapping.decompose(address))
            for address in range(0, mapping.capacity_bytes, 16)
        }
        assert len(addresses) == mapping.capacity_bytes // 16


class TestSwizzle:
    def test_vertically_aligned_pages_spread_over_all_banks(self):
        # Pages exactly one bank-rotation apart collide in one bank
        # under PI; the swizzle's row-dependent twist spreads them.
        pi = get_address_mapping(MemorySystemConfig.pi())
        config = MemorySystemConfig.pi(interleaving="swizzle")
        swizzle = get_address_mapping(config)
        geometry = config.geometry
        rotation = geometry.num_banks * geometry.page_bytes
        addresses = [row * rotation for row in range(geometry.num_banks)]
        assert len({pi.bank_of(a) for a in addresses}) == 1
        assert (
            len({swizzle.bank_of(a) for a in addresses})
            == geometry.num_banks
        )

