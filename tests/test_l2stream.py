"""Tests for the L2-streaming controller (conclusion future work)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.cache.model import CacheConfig
from repro.core.l2stream import L2StreamingController
from repro.cpu.kernels import COPY, DAXPY, VAXPY
from repro.cpu.streams import Alignment
from repro.memsys.config import MemorySystemConfig
from repro.rdram.audit import audit_trace
from repro.sim.runner import RunSpec, simulate


class TestConstruction:
    def test_line_size_must_match(self, cli_config):
        with pytest.raises(ConfigurationError, match="line size"):
            L2StreamingController(
                cli_config, CacheConfig(line_bytes=64)
            )

    def test_window_must_be_positive(self, cli_config):
        with pytest.raises(ConfigurationError, match="window"):
            L2StreamingController(cli_config, prefetch_window=0)
        for window in (2.5, True):
            with pytest.raises(ConfigurationError, match="prefetch_window"):
                L2StreamingController(cli_config, prefetch_window=window)


class TestExecution:
    @pytest.mark.parametrize("org", ["cli", "pi"])
    @pytest.mark.parametrize("kernel", [COPY, DAXPY, VAXPY])
    def test_runs_and_audits(self, org, kernel):
        config = getattr(MemorySystemConfig, org)()
        controller = L2StreamingController(
            config, prefetch_window=8, record_trace=True
        )
        result = controller.run(kernel, length=256)
        audit_trace(controller.device.trace, config.timing)
        assert result.policy == "l2-streaming"
        assert result.useful_bytes == kernel.num_streams * 256 * 8
        assert result.percent_of_peak > 30

    def test_deterministic(self, pi_config):
        runs = [
            L2StreamingController(pi_config, prefetch_window=8).run(
                DAXPY, length=256
            )
            for __ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_dirty_lines_all_stream_out(self, cli_config):
        controller = L2StreamingController(cli_config, prefetch_window=8)
        controller.run(COPY, length=256)
        # Every line of y is written back exactly once (64 lines).
        assert controller.writebacks_streamed == 256 // 4

    def test_strided_run(self, cli_config):
        controller = L2StreamingController(cli_config, prefetch_window=8)
        result = controller.run(DAXPY, length=256, stride=4)
        assert result.stride == 4
        assert result.percent_of_peak > 5


class TestPrematureEviction:
    def test_ample_l2_has_no_refetches(self, cli_config):
        controller = L2StreamingController(cli_config, prefetch_window=8)
        controller.run(COPY, length=512)
        assert controller.refetches == 0

    def test_tiny_direct_mapped_l2_thrashes(self, cli_config):
        """The paper's predicted failure mode: conflicts evict needed
        data prematurely, forcing demand refetches."""
        tiny = CacheConfig(size_bytes=2048, associativity=1, line_bytes=32)
        controller = L2StreamingController(
            cli_config, l2_config=tiny, prefetch_window=16
        )
        result = controller.run(
            VAXPY, length=512, alignment=Alignment.ALIGNED
        )
        assert controller.refetches > 100
        healthy = L2StreamingController(cli_config, prefetch_window=16).run(
            VAXPY, length=512, alignment=Alignment.ALIGNED
        )
        assert result.percent_of_peak < healthy.percent_of_peak / 2

    def test_associativity_rescues_conflicts(self, cli_config):
        tiny_direct = CacheConfig(size_bytes=4096, associativity=1, line_bytes=32)
        tiny_assoc = CacheConfig(size_bytes=4096, associativity=4, line_bytes=32)
        direct = L2StreamingController(
            cli_config, l2_config=tiny_direct, prefetch_window=8
        )
        direct.run(VAXPY, length=512, alignment=Alignment.ALIGNED)
        assoc = L2StreamingController(
            cli_config, l2_config=tiny_assoc, prefetch_window=8
        )
        assoc.run(VAXPY, length=512, alignment=Alignment.ALIGNED)
        assert assoc.refetches <= direct.refetches


class TestAgainstFifoSmc:
    def test_fifo_sbu_beats_l2_staging(self, pi_config):
        """The FIFO SBU avoids both the coherence problem's cost and
        the conflict exposure; the L2 variant trades bandwidth for
        coherence simplicity."""
        l2 = L2StreamingController(pi_config, prefetch_window=8).run(
            DAXPY, length=1024
        )
        fifo = simulate(RunSpec("daxpy", pi_config, length=1024, fifo_depth=32))
        assert fifo.percent_of_peak > l2.percent_of_peak
