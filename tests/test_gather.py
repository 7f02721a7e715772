"""Tests for indexed (gather/scatter) streams."""

from __future__ import annotations

import random

import pytest

from repro.errors import StreamError
from repro.core.gather import (
    IndexedStreamDescriptor,
    build_gather_system,
    simulate_gather,
)
from repro.cpu.streams import Direction, StreamDescriptor
from repro.memsys.config import MemorySystemConfig
from repro.memsys.pagemanager import PAGE_POLICIES
from repro.sim.engine import run_smc


class TestIndexedDescriptor:
    def test_addresses_follow_indices(self):
        stream = IndexedStreamDescriptor(
            "g", base=64, indices=(5, 0, 9), direction=Direction.READ
        )
        assert stream.length == 3
        assert stream.element_address(0) == 64 + 40
        assert stream.element_address(1) == 64
        assert stream.element_address(2) == 64 + 72

    def test_stride_reports_indexed(self):
        stream = IndexedStreamDescriptor(
            "g", base=0, indices=(1,), direction=Direction.READ
        )
        assert stream.stride == 0
        assert stream.is_read

    def test_footprint(self):
        stream = IndexedStreamDescriptor(
            "g", base=0, indices=(2, 7), direction=Direction.READ
        )
        assert stream.footprint_bytes == 64

    def test_validation(self):
        with pytest.raises(StreamError, match="aligned"):
            IndexedStreamDescriptor("g", 4, (0,), Direction.READ)
        with pytest.raises(StreamError, match="empty"):
            IndexedStreamDescriptor("g", 0, (), Direction.READ)
        with pytest.raises(StreamError, match="negative"):
            IndexedStreamDescriptor("g", 0, (-1,), Direction.READ)
        stream = IndexedStreamDescriptor("g", 0, (0, 1), Direction.READ)
        with pytest.raises(StreamError, match="outside"):
            stream.element_address(2)


class TestBuildGatherSystem:
    def test_mixed_streams(self, cli_config):
        gather = IndexedStreamDescriptor(
            "g", 0, tuple(range(16)), Direction.READ
        )
        dense = StreamDescriptor(
            "y", base=65536, stride=1, length=16, direction=Direction.WRITE
        )
        system = build_gather_system([gather, dense], cli_config, fifo_depth=8)
        assert len(system.sbu) == 2
        result = run_smc(system)
        assert result.useful_bytes == 2 * 16 * 8

    def test_length_mismatch_rejected(self, cli_config):
        a = IndexedStreamDescriptor("a", 0, (0, 1), Direction.READ)
        b = IndexedStreamDescriptor("b", 65536, (0,), Direction.READ)
        with pytest.raises(StreamError, match="equal length"):
            build_gather_system([a, b], cli_config, fifo_depth=8)

    def test_empty_rejected(self, cli_config):
        with pytest.raises(StreamError, match="at least one"):
            build_gather_system([], cli_config, fifo_depth=8)


class TestGatherBehavior:
    def test_dense_gather_matches_copy_shape(self, cli_config):
        result = simulate_gather(
            range(256), cli_config, fifo_depth=64, record_trace=True
        )
        assert result.percent_of_peak > 85

    def test_random_gather_collapses_bandwidth(self, cli_config):
        rng = random.Random(3)
        sparse = rng.sample(range(8 * 1024), 512)
        dense = simulate_gather(range(512), cli_config, fifo_depth=64)
        scattered = simulate_gather(sparse, cli_config, fifo_depth=64)
        assert scattered.percent_of_peak < dense.percent_of_peak / 2

    def test_sorting_indices_recovers_page_locality_on_pi(self, pi_config):
        rng = random.Random(5)
        indices = rng.sample(range(4 * 1024), 512)
        unsorted_run = simulate_gather(indices, pi_config, fifo_depth=64)
        sorted_run = simulate_gather(sorted(indices), pi_config, fifo_depth=64)
        assert sorted_run.percent_of_peak > unsorted_run.percent_of_peak
        assert sorted_run.activations < unsorted_run.activations

    def test_gather_traces_audit_clean(self, pi_config):
        rng = random.Random(9)
        indices = rng.sample(range(2048), 128)
        result = simulate_gather(
            indices, pi_config, fifo_depth=32, record_trace=True
        )
        assert result.cycles > 0  # audit ran inside simulate_gather

    def test_repeated_indices_allowed(self, cli_config):
        result = simulate_gather(
            [0, 0, 1, 1, 2, 2, 3, 3], cli_config, fifo_depth=8
        )
        assert result.useful_bytes == 2 * 8 * 8


def _random_indices():
    rng = random.Random(3)
    return [rng.randrange(8192) for __ in range(1024)]


class TestGatherPagePolicy:
    """A gather runs under the configured page policy, runtime ones too."""

    @pytest.mark.parametrize("policy", ["closed", "open", "timeout", "hybrid"])
    def test_memory_carries_the_configured_manager(self, policy):
        gather = IndexedStreamDescriptor(
            "g", 0, tuple(range(16)), Direction.READ
        )
        config = MemorySystemConfig.pi(page_policy=policy)
        system = build_gather_system([gather], config, fifo_depth=8)
        assert type(system.device.page_manager) is PAGE_POLICIES[policy]

    def test_runtime_policies_change_the_result(self):
        indices = _random_indices()
        results = {
            policy: simulate_gather(
                indices, MemorySystemConfig.pi(page_policy=policy),
                fifo_depth=64,
            ).to_dict()
            for policy in ("open", "timeout", "hybrid")
        }
        assert results["timeout"] != results["open"]
        assert results["hybrid"] != results["open"]
        assert results["timeout"]["cycles"] < results["open"]["cycles"]
