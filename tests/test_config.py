"""Tests for the memory-system configuration."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.memsys.config import (
    ELEMENT_BYTES,
    ELEMENTS_PER_PACKET,
    Interleaving,
    MemorySystemConfig,
    PagePolicy,
)
from repro.rdram.device import RdramGeometry


class TestConstructors:
    def test_cli_pairs_closed_page(self):
        config = MemorySystemConfig.cli()
        assert config.interleaving is Interleaving.CACHELINE
        assert config.page_policy is PagePolicy.CLOSED

    def test_pi_pairs_open_page(self):
        config = MemorySystemConfig.pi()
        assert config.interleaving is Interleaving.PAGE
        assert config.page_policy is PagePolicy.OPEN

    def test_cross_pairing_possible(self):
        config = MemorySystemConfig.cli(page_policy=PagePolicy.OPEN)
        assert config.page_policy is PagePolicy.OPEN

    def test_custom_cacheline(self):
        config = MemorySystemConfig.cli(cacheline_bytes=64)
        assert config.elements_per_cacheline == 8
        assert config.packets_per_cacheline == 4


class TestValidation:
    def test_cacheline_must_be_packet_multiple(self):
        with pytest.raises(ConfigurationError, match="packet"):
            MemorySystemConfig(cacheline_bytes=24)

    def test_page_must_be_cacheline_multiple(self):
        with pytest.raises(ConfigurationError, match="page size"):
            MemorySystemConfig(
                cacheline_bytes=48 * 16 // 16 * 16,  # 768, divides nothing
            )

    @pytest.mark.parametrize(
        "field", ["cacheline_bytes", "page_timeout_cycles", "remap_epoch_accesses"]
    )
    @pytest.mark.parametrize("value", [32.0, 2.5, True, "32"])
    def test_count_fields_must_be_ints(self, field, value):
        with pytest.raises(
            ConfigurationError, match=f"{field} must be an integer"
        ):
            MemorySystemConfig(**{field: value})

    @pytest.mark.parametrize(
        "field", ["cacheline_bytes", "page_timeout_cycles", "remap_epoch_accesses"]
    )
    @pytest.mark.parametrize("value", [0, -32])
    def test_count_fields_must_be_positive(self, field, value):
        with pytest.raises(
            ConfigurationError, match=f"{field} must be positive, got {value}"
        ):
            MemorySystemConfig(**{field: value})


class TestDerivedQuantities:
    def test_paper_constants(self):
        config = MemorySystemConfig.cli()
        assert ELEMENT_BYTES == 8
        assert ELEMENTS_PER_PACKET == 2
        assert config.elements_per_cacheline == 4  # L_c
        assert config.elements_per_page == 128  # L_P
        assert config.cachelines_per_page == 32

    def test_describe_mentions_organization(self):
        assert "CLI" in MemorySystemConfig.cli().describe()
        assert "open" in MemorySystemConfig.pi().describe()

    def test_custom_geometry_flows_through(self):
        config = MemorySystemConfig.pi(
            geometry=RdramGeometry(num_banks=16, page_bytes=2048)
        )
        assert config.elements_per_page == 256
