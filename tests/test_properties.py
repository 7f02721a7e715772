"""Property-based tests over randomized system configurations.

These drive whole simulations with hypothesis-chosen parameters and
assert the invariants that must hold for *any* legal configuration:
protocol legality of every packet trace, conservation of data, and
the analytic bounds' structural relationships.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytic.smc import smc_bound
from repro.cache.controller import CachedNaturalOrderController
from repro.cache.model import CacheConfig
from repro.core.l2stream import L2StreamingController
from repro.core.smc import build_smc_system
from repro.cpu.kernels import KERNELS
from repro.cpu.streams import Alignment
from repro.memsys.config import MemorySystemConfig
from repro.naturalorder.controller import NaturalOrderController
from repro.naturalorder.random_driver import RandomAccessDriver
from repro.rdram.audit import audit_trace
from repro.sim.engine import run_smc

kernel_names = st.sampled_from(sorted(KERNELS))
orgs = st.sampled_from(["cli", "pi"])
alignments = st.sampled_from([Alignment.ALIGNED, Alignment.STAGGERED])
lengths = st.sampled_from([8, 16, 32, 64, 128])
depths = st.sampled_from([4, 8, 16, 32])
strides = st.sampled_from([1, 2, 3, 4, 5, 8, 16])
policies = st.sampled_from(["round-robin", "bank-aware", "speculative-precharge"])

sim_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def config_for(org: str) -> MemorySystemConfig:
    return getattr(MemorySystemConfig, org)()


class TestSmcSimulationProperties:
    @given(
        kernel=kernel_names,
        org=orgs,
        alignment=alignments,
        length=lengths,
        depth=depths,
        stride=strides,
    )
    @sim_settings
    def test_every_smc_trace_is_protocol_legal(
        self, kernel, org, alignment, length, depth, stride
    ):
        from repro.sim.runner import resolve_policy

        config = config_for(org)
        system = build_smc_system(
            KERNELS[kernel],
            config,
            length=length,
            fifo_depth=depth,
            stride=stride,
            alignment=alignment,
            record_trace=True,
        )
        result = run_smc(system)
        audit_trace(
            system.device.trace,
            timing=config.timing,
            num_banks=config.geometry.num_banks,
        )
        # Conservation: exactly the planned packets moved.
        planned = sum(len(fifo.units) for fifo in system.sbu)
        assert result.packets_issued == planned
        assert result.transferred_bytes == planned * 16
        # Every stream element was consumed or produced exactly once.
        assert result.useful_bytes == (
            KERNELS[kernel].num_streams * length * 8
        )
        # Bandwidth is physical.
        assert 0 < result.percent_of_peak <= 100.0001

    @given(kernel=kernel_names, org=orgs, policy=policies)
    @sim_settings
    def test_policies_preserve_data_and_legality(self, kernel, org, policy):
        from repro.sim.runner import resolve_policy

        config = config_for(org)
        system = build_smc_system(
            KERNELS[kernel],
            config,
            length=64,
            fifo_depth=16,
            policy=resolve_policy(policy),
            record_trace=True,
        )
        result = run_smc(system)
        audit_trace(system.device.trace, config.timing)
        assert result.useful_bytes == KERNELS[kernel].num_streams * 64 * 8

    @given(
        kernel=kernel_names, org=orgs, length=lengths, depth=depths
    )
    @sim_settings
    def test_simulation_is_deterministic(self, kernel, org, length, depth):
        config = config_for(org)
        results = [
            run_smc(
                build_smc_system(
                    KERNELS[kernel], config, length=length, fifo_depth=depth
                )
            )
            for __ in range(2)
        ]
        assert results[0] == results[1]

    @given(
        kernel=kernel_names,
        org=orgs,
        alignment=alignments,
        length=st.sampled_from([8, 16, 32, 64]),
        depth=depths,
        stride=strides,
    )
    @sim_settings
    def test_cycle_skipping_is_exact(
        self, kernel, org, alignment, length, depth, stride
    ):
        """Skipping to the next interesting cycle must be observationally
        identical to visiting every cycle."""
        config = config_for(org)

        def build():
            return build_smc_system(
                KERNELS[kernel],
                config,
                length=length,
                fifo_depth=depth,
                stride=stride,
                alignment=alignment,
            )

        skipped = run_smc(build())
        stepped = run_smc(build(), dense=True)
        assert skipped == stepped


class TestKernelSkipEquivalence:
    """Dense-vs-skip exactness for every controller on the shared kernel.

    The simulation kernel promises that skipping to the next
    interesting cycle is observationally identical to visiting every
    cycle.  Each ported controller contributes its own skip contract
    (declared ``next_action_cycle`` values), so each gets its own
    equivalence property — with and without the background refresh
    engine perturbing device state between transactions.
    """

    @given(
        kernel=kernel_names,
        org=orgs,
        alignment=alignments,
        length=st.sampled_from([8, 16, 32]),
        stride=strides,
        refresh=st.booleans(),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_natural_order_skip_is_exact(
        self, kernel, org, alignment, length, stride, refresh
    ):
        def run(dense):
            controller = NaturalOrderController(
                config_for(org), refresh=refresh
            )
            return controller.run(
                KERNELS[kernel],
                length=length,
                stride=stride,
                alignment=alignment,
                dense=dense,
            )

        assert run(False) == run(True)

    @given(
        kernel=kernel_names,
        org=orgs,
        alignment=alignments,
        length=st.sampled_from([8, 16, 32]),
        stride=strides,
        refresh=st.booleans(),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cached_natural_order_skip_is_exact(
        self, kernel, org, alignment, length, stride, refresh
    ):
        def run(dense):
            controller = CachedNaturalOrderController(
                config_for(org), refresh=refresh
            )
            return controller.run(
                KERNELS[kernel],
                length=length,
                stride=stride,
                alignment=alignment,
                dense=dense,
            )

        assert run(False) == run(True)

    @given(
        kernel=kernel_names,
        org=orgs,
        alignment=alignments,
        length=st.sampled_from([8, 16, 32]),
        stride=st.sampled_from([1, 2, 4]),
        window=st.sampled_from([2, 8]),
        refresh=st.booleans(),
        l2_config=st.sampled_from([
            None,  # the controller's default 64 KiB 2-way L2
            CacheConfig(2048, 1, 32),
            CacheConfig(4096, 2, 32),
        ]),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_l2_streaming_skip_is_exact(
        self, kernel, org, alignment, length, stride, window, refresh,
        l2_config,
    ):
        """Small L2s reach the demand-refetch and writeback branches."""

        def run(dense):
            controller = L2StreamingController(
                config_for(org), l2_config=l2_config,
                prefetch_window=window, refresh=refresh,
            )
            return controller.run(
                KERNELS[kernel],
                length=length,
                stride=stride,
                alignment=alignment,
                dense=dense,
            )

        assert run(False) == run(True)

    @given(
        org=orgs,
        transactions=st.sampled_from([4, 16, 48]),
        write_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(min_value=1, max_value=64),
        refresh=st.booleans(),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_driver_skip_is_exact(
        self, org, transactions, write_fraction, seed, refresh
    ):
        def run(dense):
            driver = RandomAccessDriver(config_for(org), refresh=refresh)
            return driver.run(
                transactions,
                write_fraction=write_fraction,
                seed=seed,
                dense=dense,
            )

        assert run(False) == run(True)

    @given(
        kernel=kernel_names,
        org=orgs,
        length=st.sampled_from([8, 16, 32]),
        depth=st.sampled_from([4, 16]),
    )
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_smc_skip_is_exact_with_refresh(self, kernel, org, length, depth):
        config = config_for(org)

        def build():
            return build_smc_system(
                KERNELS[kernel],
                config,
                length=length,
                fifo_depth=depth,
                refresh=True,
            )

        assert run_smc(build()) == run_smc(build(), dense=True)


class TestNaturalOrderProperties:
    @given(
        kernel=kernel_names,
        org=orgs,
        alignment=alignments,
        length=lengths,
        stride=strides,
    )
    @sim_settings
    def test_every_baseline_trace_is_protocol_legal(
        self, kernel, org, alignment, length, stride
    ):
        config = config_for(org)
        controller = NaturalOrderController(config, record_trace=True)
        result = controller.run(
            KERNELS[kernel], length=length, stride=stride, alignment=alignment
        )
        audit_trace(controller.device.trace, config.timing)
        # Whole cachelines move: transfers are a multiple of the line.
        assert result.transferred_bytes % config.cacheline_bytes == 0
        assert result.transferred_bytes >= result.useful_bytes * min(
            1, 4 // stride
        )


class TestBoundProperties:
    @given(
        org=orgs,
        s_r=st.integers(min_value=1, max_value=7),
        length=st.sampled_from([128, 512, 1024, 4096]),
        depth=st.sampled_from([4, 8, 16, 64, 128, 256]),
    )
    @settings(max_examples=80, deadline=None)
    def test_smc_bounds_are_consistent(self, org, s_r, length, depth):
        bound = smc_bound(config_for(org), s_r, 1, length, depth)
        assert 0 < bound.percent_combined_limit <= 100
        assert bound.percent_combined_limit <= bound.percent_startup_limit
        assert (
            bound.percent_combined_limit <= bound.percent_asymptotic_limit
        )
        assert bound.startup_delay >= 0
        assert bound.turnaround_delay >= 0
