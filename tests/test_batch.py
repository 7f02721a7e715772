"""Batch loops: event-vs-batch bit-identity and the loop gate.

The batch fast paths (:mod:`repro.sim.batch`) promise results
*bit-identical* to the discrete-event kernel.  These properties mirror
the dense-vs-skip equivalence contract in ``test_properties.py``: the
SMC's batch loop against the event kernel, with and without the
background refresh engine, over one device, multi-device channels
and channel fabrics; and an instrumented natural-order run (the event
kernel in skip mode) against a plain one (``lean_run``).  The gate
tests check which loop :func:`~repro.sim.runner.simulate` picks.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.core.smc import build_smc_system
from repro.cpu.kernels import KERNELS
from repro.cpu.streams import Alignment
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.naturalorder.controller import NaturalOrderController
from repro.obs import Instrumentation
from repro.rdram.channel import ChannelGeometry
from repro.sim import runner
from repro.sim.batch import batch_unsupported_reason, run_smc_batch
from repro.sim.engine import run_smc
from repro.sim.runner import RunSpec, simulate

kernel_names = st.sampled_from(sorted(KERNELS))
orgs = st.sampled_from(["cli", "pi"])
alignments = st.sampled_from([Alignment.ALIGNED, Alignment.STAGGERED])


#: The memories the batch loop runs on, by name: channels x devices
#: per channel, and one channel given as a ChannelGeometry.
TOPOLOGIES = {
    "1x1": {},
    "1x2": {"topology": MemoryTopology(devices_per_channel=2)},
    "2x1": {"topology": MemoryTopology(channels=2)},
    "2x2": {"topology": MemoryTopology(channels=2, devices_per_channel=2)},
    "4dev": {"geometry": ChannelGeometry(num_devices=4)},
}
topologies = st.sampled_from(sorted(TOPOLOGIES))


def config_for(org: str, topology: str = "1x1") -> MemorySystemConfig:
    return getattr(MemorySystemConfig, org)(**TOPOLOGIES[topology])


class TestEventBatchEquivalence:
    """The batch loops must be observationally identical to the event
    kernel on every supported configuration — same result record, field
    for field, including stall accounting and refresh interference."""

    @given(
        kernel=kernel_names,
        org=orgs,
        topology=topologies,
        alignment=alignments,
        length=st.sampled_from([8, 16, 32]),
        depth=st.sampled_from([4, 16]),
        stride=st.sampled_from([1, 2, 7]),
        refresh=st.booleans(),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_smc_batch_is_exact(
        self, kernel, org, topology, alignment, length, depth, stride,
        refresh,
    ):
        config = config_for(org, topology)
        event = run_smc(build_smc_system(
            KERNELS[kernel], config, length=length, fifo_depth=depth,
            stride=stride, alignment=alignment, refresh=refresh,
        ))
        batch = run_smc_batch(
            KERNELS[kernel], config, length=length, fifo_depth=depth,
            stride=stride, alignment=alignment, refresh=refresh,
        )
        assert event == batch

    @given(
        kernel=kernel_names,
        org=orgs,
        alignment=alignments,
        length=st.sampled_from([8, 16, 32]),
        refresh=st.booleans(),
    )
    @settings(max_examples=32, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_natural_order_batch_is_exact(
        self, kernel, org, alignment, length, refresh
    ):
        """An instrumented run takes the event kernel in skip mode, a
        plain one the batch module's ``lean_run``; both must give the
        same result.  Only the event kernel attaches ``obs`` to the
        device, which records the DATA-bus gaps."""
        def run(obs):
            controller = NaturalOrderController(
                config_for(org), refresh=refresh
            )
            return controller.run(
                KERNELS[kernel], length=length, alignment=alignment,
                obs=obs,
            )

        obs = Instrumentation()
        assert run(obs) == run(None)
        assert obs.gaps


class TestBatchRefresh:
    """The batch loop's inline refresh engines against RefreshEngine.

    The short runs above rarely reach a refresh interval; these run
    long enough for several refreshes per case, and on PI (open pages)
    for deferrals up to the forced precharge, on every topology (one
    engine per channel).
    """

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("depth", [16, 128])
    @pytest.mark.parametrize("org", ["cli", "pi"])
    @pytest.mark.parametrize("kernel", ["copy", "daxpy", "vaxpy", "hydro"])
    def test_refresh_matches_event_engine(self, kernel, org, depth, topology):
        config = config_for(org, topology)
        system = build_smc_system(
            KERNELS[kernel], config, length=1024, fifo_depth=depth,
            refresh=True,
        )
        event = run_smc(system)
        batch = run_smc_batch(
            KERNELS[kernel], config, length=1024, fifo_depth=depth,
            refresh=True,
        )
        assert event == batch
        assert batch.refreshes > 0
        if org == "pi":
            assert sum(e.forced_precharges for e in system.refresh) > 0


class TestEngineSelection:
    def test_core_configs_are_batch_supported(self):
        for org in ("cli", "pi"):
            for topology in TOPOLOGIES:
                config = config_for(org, topology)
                assert batch_unsupported_reason(config) is None

    def test_runtime_page_policy_is_gated(self):
        config = dataclasses.replace(config_for("cli"), page_policy="timeout")
        reason = batch_unsupported_reason(config)
        assert reason is not None and "timeout" in reason
        # simulate() takes the event kernel, which simulates it.
        spec = RunSpec(kernel="copy", organization=config,
                       length=32, fifo_depth=8)
        assert simulate(spec).cycles > 0

    def test_batch_run_rejects_unsupported_config(self):
        config = dataclasses.replace(config_for("cli"), page_policy="timeout")
        with pytest.raises(ConfigurationError, match="cannot run this spec"):
            run_smc_batch(KERNELS["copy"], config, length=32, fifo_depth=8)

    def test_instrumented_runs_fall_back(self, monkeypatch):
        spec = RunSpec(kernel="daxpy", organization="pi", length=64,
                       fifo_depth=16)
        plain = simulate(spec)

        def refuse(*args, **kwargs):
            raise AssertionError("an instrumented run took the batch loop")

        monkeypatch.setattr(runner, "run_smc_batch", refuse)
        obs = Instrumentation()
        assert simulate(spec, obs=obs) == plain
        assert obs.meta["kernel"] == "daxpy"
