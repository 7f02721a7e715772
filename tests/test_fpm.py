"""Tests for the fast-page-mode substrate (Section 3 heritage)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, StreamError
from repro.cpu.kernels import COPY, DAXPY, PAPER_KERNELS, get_kernel
from repro.cpu.streams import Alignment
from repro.fpm.device import FpmGeometry, FpmMemorySystem
from repro.fpm.smc import run_fpm


class TestDevice:
    def test_attainable_matches_figure1_peak(self):
        memory = FpmMemorySystem()
        # 8 bytes per 30 ns page cycle = the Figure 1 267 MB/s entry.
        assert memory.attainable_bandwidth_bytes_per_sec == pytest.approx(
            8 / 30e-9
        )

    def test_hit_and_miss_costs(self):
        memory = FpmMemorySystem()
        t0 = memory.access(0, 0.0)
        assert t0 == pytest.approx(95.0)   # cold miss pays t_RC
        t1 = memory.access(8, t0)
        assert t1 - t0 == pytest.approx(30.0)  # same page: t_PC

    def test_banks_hold_independent_rows(self):
        memory = FpmMemorySystem()
        now = memory.access(0, 0.0)        # bank 0, row 0
        now = memory.access(1024, now)     # bank 1, row 0
        now = memory.access(8, now)        # bank 0 again: still open
        assert memory.page_hits == 1
        assert memory.page_misses == 2

    def test_page_interleave_mapping(self):
        memory = FpmMemorySystem()
        assert memory.locate(0) == (0, 0)
        assert memory.locate(1024) == (1, 0)
        assert memory.locate(2048) == (0, 1)

    def test_reset(self):
        memory = FpmMemorySystem()
        memory.access(0, 0.0)
        memory.reset()
        assert memory.accesses == 0
        assert memory.access(0, 0.0) == pytest.approx(95.0)

    def test_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            FpmGeometry(num_banks=0)


class TestSection3Claims:
    @pytest.mark.parametrize("kernel_name", list(PAPER_KERNELS))
    def test_smc_exceeds_90_percent_attainable(self, kernel_name):
        """'exploiting over 90% of the attainable bandwidth for
        long-vector computations.'"""
        result = run_fpm(
            get_kernel(kernel_name), "smc", length=1024, fifo_depth=64
        )
        assert result.percent_of_attainable > 90

    def test_natural_order_page_thrashes_when_aligned(self):
        natural = run_fpm(
            COPY, "natural-order", length=1024, alignment=Alignment.ALIGNED
        )
        # Alternating between two vectors in one bank: zero hits.
        assert natural.page_hit_rate == 0.0

    def test_staggered_natural_order_recovers_hits(self):
        aligned = run_fpm(
            COPY, "natural-order", length=1024, alignment=Alignment.ALIGNED
        )
        staggered = run_fpm(
            COPY, "natural-order", length=1024, alignment=Alignment.STAGGERED
        )
        assert staggered.page_hit_rate > 0.9
        assert staggered.total_ns < aligned.total_ns

    def test_smc_speedup_approaches_trc_over_tpc(self):
        natural = run_fpm(COPY, "natural-order", length=4096)
        smc = run_fpm(COPY, "smc", length=4096, fifo_depth=128)
        speedup = natural.total_ns / smc.total_ns
        assert 2.0 < speedup <= 95 / 30 + 0.01

    def test_deeper_fifos_monotone(self):
        values = [
            run_fpm(DAXPY, "smc", length=1024, fifo_depth=depth)
            .percent_of_attainable
            for depth in (8, 16, 32, 64, 128)
        ]
        assert values == sorted(values)

    @pytest.mark.parametrize(
        "arguments, error, message",
        [
            pytest.param({"scheme": "oracle"}, ConfigurationError,
                         "unknown scheme 'oracle'", id="scheme"),
            pytest.param({"length": "64"}, StreamError,
                         "length must be an integer, got '64'", id="length-str"),
            pytest.param({"length": 0}, StreamError,
                         "length must be positive", id="length-zero"),
            pytest.param({"stride": "2"}, StreamError,
                         "stride must be an integer, got '2'", id="stride-str"),
            pytest.param({"stride": 1.5}, StreamError,
                         "stride must be an integer, got 1.5", id="stride-float"),
            pytest.param({"fifo_depth": 0}, ConfigurationError,
                         "fifo_depth must be at least 1, got 0", id="depth-zero"),
            pytest.param({"fifo_depth": -4}, ConfigurationError,
                         "fifo_depth must be at least 1, got -4",
                         id="depth-negative"),
            pytest.param({"fifo_depth": 2.5}, ConfigurationError,
                         "fifo_depth must be an integer, got 2.5",
                         id="depth-float"),
            pytest.param({"fifo_depth": "8"}, ConfigurationError,
                         "fifo_depth must be an integer, got '8'",
                         id="depth-str"),
        ],
    )
    def test_bad_argument_rejected(self, arguments, error, message):
        with pytest.raises(error, match=message):
            run_fpm(COPY, **arguments)

    def test_accesses_conserved(self):
        result = run_fpm(DAXPY, "smc", length=256, fifo_depth=16)
        assert result.accesses == DAXPY.num_streams * 256
