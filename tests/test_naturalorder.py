"""Tests for the natural-order cacheline controller baseline."""

from __future__ import annotations

import pytest

from repro.analytic.cache import natural_order_bound
from repro.cache.controller import CachedNaturalOrderController
from repro.core.l2stream import L2StreamingController
from repro.cpu.kernels import COPY, DAXPY, PAPER_KERNELS, TRIAD, VAXPY, get_kernel
from repro.memsys.config import MemorySystemConfig
from repro.naturalorder.controller import MAX_OUTSTANDING, NaturalOrderController
from repro.naturalorder.random_driver import RandomAccessDriver
from repro.rdram.audit import audit_trace
from repro.rdram.packets import RowCommand, RowPacket


class TestBasics:
    def test_result_metadata(self, cli_config):
        result = NaturalOrderController(cli_config).run(COPY, length=64)
        assert result.policy == "natural-order"
        assert result.fifo_depth == 0
        assert result.useful_bytes == 2 * 64 * 8

    def test_whole_lines_move_on_the_bus(self, cli_config):
        result = NaturalOrderController(cli_config).run(COPY, length=64)
        # Unit stride: transfers equal useful bytes (dense lines).
        assert result.transferred_bytes == result.useful_bytes

    def test_strided_run_moves_whole_lines(self, cli_config):
        result = NaturalOrderController(cli_config).run(COPY, length=64, stride=8)
        # Every element is its own line: 32 bytes moved per 8 useful.
        assert result.transferred_bytes == 4 * result.useful_bytes

    def test_trace_audits_clean(self, pi_config):
        controller = NaturalOrderController(pi_config, record_trace=True)
        controller.run(VAXPY, length=128)
        audit_trace(controller.device.trace, pi_config.timing)

    def test_trace_audits_clean_cli(self, cli_config):
        controller = NaturalOrderController(cli_config, record_trace=True)
        controller.run(DAXPY, length=128)
        audit_trace(controller.device.trace, cli_config.timing)

    def test_outstanding_constant(self):
        assert MAX_OUTSTANDING == 4

    def test_reuses_device_across_runs(self, cli_config):
        controller = NaturalOrderController(cli_config)
        first = controller.run(COPY, length=64)
        second = controller.run(COPY, length=64)
        assert first == second


class TestFigure5Timing:
    def test_load_acts_spaced_by_t_rr(self, cli_config):
        controller = NaturalOrderController(cli_config, record_trace=True)
        controller.run(TRIAD, length=32)
        acts = [
            p.start for p in controller.device.trace
            if isinstance(p, RowPacket) and p.command is RowCommand.ACT
        ]
        # The two loads of iteration 0 activate t_RR apart (Figure 5).
        assert acts[1] - acts[0] == cli_config.timing.t_rr

    def test_dependent_store_waits_t_rac(self, cli_config):
        controller = NaturalOrderController(cli_config, record_trace=True)
        controller.run(TRIAD, length=32)
        acts = [
            p.start for p in controller.device.trace
            if isinstance(p, RowPacket) and p.command is RowCommand.ACT
        ]
        # The store's ACT launches t_RAC after the last load's ACT
        # (linefill forwarding: first data arrives then).
        assert acts[2] - acts[1] >= cli_config.timing.t_rac


class TestAgainstAnalyticBounds:
    @pytest.mark.parametrize("org", ["cli", "pi"])
    @pytest.mark.parametrize("kernel_name", list(PAPER_KERNELS))
    def test_simulation_tracks_bound(self, org, kernel_name):
        """The simulated baseline lands within 25% of the reconciled
        analytic bound for every paper kernel and organization."""
        config = getattr(MemorySystemConfig, org)()
        kernel = get_kernel(kernel_name)
        result = NaturalOrderController(config).run(kernel, length=1024)
        bound = natural_order_bound(
            config, kernel.num_read_streams, kernel.num_write_streams
        ).percent_of_peak
        assert result.percent_of_peak == pytest.approx(bound, rel=0.25)

    def test_pi_beats_cli_for_streaming(self):
        """Section 6: PI delivers higher effective stream bandwidth."""
        for kernel_name in PAPER_KERNELS:
            kernel = get_kernel(kernel_name)
            cli = NaturalOrderController(MemorySystemConfig.cli()).run(kernel, length=1024)
            pi = NaturalOrderController(MemorySystemConfig.pi()).run(kernel, length=1024)
            assert pi.percent_of_peak > cli.percent_of_peak

    def test_large_strides_collapse_bandwidth(self, cli_config):
        unit = NaturalOrderController(cli_config).run(COPY, length=512, stride=1)
        sparse = NaturalOrderController(cli_config).run(COPY, length=512, stride=8)
        assert sparse.percent_of_peak < unit.percent_of_peak / 3

    def test_more_streams_use_more_bandwidth(self):
        """Section 6: maximum effective bandwidth increases with the
        number of streams in the computation."""
        config = MemorySystemConfig.pi()
        copy = NaturalOrderController(config).run(COPY, length=1024)
        vaxpy = NaturalOrderController(config).run(VAXPY, length=1024)
        assert vaxpy.percent_of_peak > copy.percent_of_peak



def _run_kernel(controller):
    return controller.run(VAXPY, length=256)


#: The four cacheline controllers: ``name -> (class, one run)``.
LINE_CONTROLLERS = {
    "natural-order": (NaturalOrderController, _run_kernel),
    "cached": (CachedNaturalOrderController, _run_kernel),
    "l2-streaming": (L2StreamingController, _run_kernel),
    "random-access": (RandomAccessDriver, lambda driver: driver.run(256, seed=1)),
}


class TestReusedController:
    """A controller resets its memory at the start of every run, so a
    second run on one instance equals a run on a fresh one.  DReAM's
    short remap epoch makes its monitor re-arrange the map within the
    first run; that state must not leak into the second."""

    @pytest.mark.parametrize("mapping", ["default", "dream"])
    @pytest.mark.parametrize("org", ["cli", "pi"])
    @pytest.mark.parametrize("name", sorted(LINE_CONTROLLERS))
    def test_second_run_equals_a_fresh_one(self, name, org, mapping):
        overrides = {}
        if mapping == "dream":
            overrides = {"interleaving": "dream", "remap_epoch_accesses": 64}
        config = getattr(MemorySystemConfig, org)(**overrides)
        cls, run = LINE_CONTROLLERS[name]
        reused = cls(config)
        first, second = run(reused), run(reused)
        fresh = run(cls(config))
        assert first == fresh
        assert second == fresh
