"""Tests for the cache model and the cache-realistic baseline."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.cache.controller import CachedNaturalOrderController
from repro.cache.model import CacheConfig, CacheModel
from repro.cpu.kernels import COPY, DAXPY, VAXPY
from repro.naturalorder.controller import NaturalOrderController
from repro.rdram.audit import audit_trace
from repro.sim.runner import RunSpec, simulate


class TestCacheConfig:
    def test_defaults(self):
        config = CacheConfig()
        assert config.num_sets == 512

    def test_associativity_changes_sets(self):
        assert CacheConfig(associativity=4).num_sets == 128

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=0)
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1000, line_bytes=32)

    @pytest.mark.parametrize("field", ["size_bytes", "associativity", "line_bytes"])
    @pytest.mark.parametrize("value", [16384.0, True, "16384", None])
    def test_fields_must_be_ints(self, field, value):
        """A float, bool or string is rejected by name, not run or crashed on."""
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            CacheConfig(**{field: value})

    @pytest.mark.parametrize("field", ["size_bytes", "associativity", "line_bytes"])
    def test_fields_must_be_positive(self, field):
        with pytest.raises(ConfigurationError, match=f"{field} must be positive"):
            CacheConfig(**{field: -32})


class TestCacheModel:
    def test_every_hit_returns_the_same_outcome(self):
        cache = CacheModel()
        cache.access(0, is_write=False)
        first = cache.access(8, is_write=False)
        second = cache.access(16, is_write=True)
        assert first.hit and first is second
        assert (first.fill_line, first.evicted_line, first.writeback_line) == (
            None, None, None,
        )

    def test_miss_then_hit(self):
        cache = CacheModel()
        first = cache.access(0, is_write=False)
        second = cache.access(8, is_write=False)  # same 32-byte line
        assert not first.hit and second.hit
        assert first.fill_line == 0
        assert cache.hits == 1 and cache.misses == 1

    def test_clean_eviction_produces_no_writeback(self):
        cache = CacheModel(CacheConfig(size_bytes=64, associativity=1, line_bytes=32))
        cache.access(0, is_write=False)
        outcome = cache.access(64, is_write=False)  # maps to set 0
        assert outcome.writeback_line is None
        assert cache.writebacks == 0

    def test_dirty_eviction_writes_back(self):
        cache = CacheModel(CacheConfig(size_bytes=64, associativity=1, line_bytes=32))
        cache.access(0, is_write=True)
        outcome = cache.access(64, is_write=False)
        assert outcome.writeback_line == 0
        assert cache.writebacks == 1

    def test_lru_within_set(self):
        cache = CacheModel(CacheConfig(size_bytes=128, associativity=2, line_bytes=32))
        cache.access(0, is_write=False)     # set 0, line 0
        cache.access(64, is_write=False)    # set 0, line 2
        cache.access(0, is_write=False)     # touch line 0 (MRU)
        outcome = cache.access(128, is_write=False)  # evicts LRU: line 2
        assert not outcome.hit
        assert cache.access(0, is_write=False).hit
        assert not cache.access(64, is_write=False).hit

    def test_write_hit_marks_dirty(self):
        cache = CacheModel(CacheConfig(size_bytes=64, associativity=1, line_bytes=32))
        cache.access(0, is_write=False)
        cache.access(8, is_write=True)
        outcome = cache.access(64, is_write=False)
        assert outcome.writeback_line == 0

    def test_flush_dirty_lines(self):
        cache = CacheModel()
        cache.access(0, is_write=True)
        cache.access(32, is_write=False)
        flushed = cache.flush_dirty_lines()
        assert flushed == [0]
        assert cache.flush_dirty_lines() == []

    def test_miss_rate(self):
        cache = CacheModel()
        assert cache.miss_rate == 0.0
        cache.access(0, is_write=False)
        cache.access(0, is_write=False)
        assert cache.miss_rate == pytest.approx(0.5)


class TestCachedController:
    def test_line_size_must_match(self, cli_config):
        with pytest.raises(ConfigurationError, match="line size"):
            CachedNaturalOrderController(
                cli_config, CacheConfig(line_bytes=64)
            )

    def test_trace_audits_clean(self, pi_config):
        controller = CachedNaturalOrderController(
            pi_config, record_trace=True
        )
        controller.run(DAXPY, length=256)
        audit_trace(controller.device.trace, pi_config.timing)

    def test_copy_pays_write_allocate_penalty(self, cli_config):
        """A store-missing copy fetches the destination lines too, so
        the realistic baseline moves ~1.5x the idealized traffic."""
        ideal = NaturalOrderController(cli_config).run(COPY, length=1024)
        cached = CachedNaturalOrderController(cli_config).run(COPY, length=1024)
        assert cached.transferred_bytes == pytest.approx(
            1.5 * ideal.transferred_bytes
        )
        assert cached.percent_of_peak < ideal.percent_of_peak

    def test_rmw_kernels_hit_on_their_own_fill(self, cli_config):
        """daxpy's store hits the line its own load just fetched."""
        controller = CachedNaturalOrderController(cli_config)
        controller.run(DAXPY, length=1024)
        # Accesses: 3 per element; misses: one per line of x and y.
        assert controller.cache.misses == 2 * 1024 // 4
        assert controller.cache.miss_rate == pytest.approx(512 / 3072)

    def test_flush_accounts_for_trailing_writebacks(self, cli_config):
        # The run ends by writing every dirty line back, so the bus
        # moves each fill and each writeback exactly once: at length
        # 512, (256 + 128) lines of 32 bytes.
        controller = CachedNaturalOrderController(cli_config)
        result = controller.run(COPY, length=512)
        cache = controller.cache
        assert result.transferred_bytes == (
            (cache.misses + cache.writebacks) * cli_config.cacheline_bytes
        )
        assert (cache.misses, cache.writebacks) == (256, 128)

    def test_strided_conflicts_hurt_direct_mapped(self, cli_config):
        """Section 6's prediction: strided vectors leave a larger
        footprint and generate many cache conflicts."""
        direct = CachedNaturalOrderController(
            cli_config, CacheConfig(associativity=1)
        )
        direct.run(VAXPY, length=1024, stride=4)
        unit = CachedNaturalOrderController(
            cli_config, CacheConfig(associativity=1)
        )
        unit.run(VAXPY, length=1024, stride=1)
        assert direct.cache.miss_rate > unit.cache.miss_rate

    def test_smc_advantage_grows_with_realism(self, cli_config):
        """The paper's closing claim, as a regression test."""
        smc = simulate(RunSpec("copy", cli_config, length=1024, fifo_depth=128))
        ideal = NaturalOrderController(cli_config).run(COPY, length=1024)
        cached = CachedNaturalOrderController(cli_config).run(COPY, length=1024)
        idealized_ratio = smc.percent_of_peak / ideal.percent_of_peak
        realistic_ratio = smc.percent_of_peak / cached.percent_of_peak
        assert realistic_ratio > idealized_ratio
