"""Batch engine: event-vs-batch bit-identity and the engine API.

The batch fast path (:mod:`repro.sim.batch`) promises results
*bit-identical* to the discrete-event kernel.  These properties mirror
the dense-vs-skip equivalence contract in ``test_properties.py``: each
of the five controllers gets its own event-vs-batch property, with and
without the background refresh engine, plus tests that the redesigned
``simulate(spec, engine=...)`` API keeps the engine choice out of the
cache identity.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.cache.controller import CachedNaturalOrderController
from repro.core.l2stream import L2StreamingController
from repro.core.smc import build_smc_system
from repro.cpu.kernels import KERNELS
from repro.cpu.streams import Alignment
from repro.memsys.config import MemorySystemConfig
from repro.naturalorder.controller import NaturalOrderController
from repro.naturalorder.random_driver import RandomAccessDriver
from repro.sim.batch import (
    ENGINES,
    batch_unsupported_reason,
    canonical_engine,
    list_engines,
    resolve_engine,
    run_smc_batch,
)
from repro.sim.engine import run_smc
from repro.sim.runner import (
    RunSpec,
    default_engine,
    set_default_engine,
    simulate,
)

kernel_names = st.sampled_from(sorted(KERNELS))
orgs = st.sampled_from(["cli", "pi"])
alignments = st.sampled_from([Alignment.ALIGNED, Alignment.STAGGERED])


def config_for(org: str) -> MemorySystemConfig:
    return getattr(MemorySystemConfig, org)()


class TestEventBatchEquivalence:
    """The batch engine must be observationally identical to the event
    kernel on every supported configuration — same result record, field
    for field, including stall accounting and refresh interference."""

    @given(
        kernel=kernel_names,
        org=orgs,
        alignment=alignments,
        length=st.sampled_from([8, 16, 32]),
        depth=st.sampled_from([4, 16]),
        stride=st.sampled_from([1, 2, 7]),
        refresh=st.booleans(),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_smc_batch_is_exact(
        self, kernel, org, alignment, length, depth, stride, refresh
    ):
        config = config_for(org)
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
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_natural_order_batch_is_exact(
        self, kernel, org, alignment, length, refresh
    ):
        def run(engine):
            controller = NaturalOrderController(
                config_for(org), refresh=refresh
            )
            return controller.run(
                KERNELS[kernel], length=length, alignment=alignment,
                engine=engine,
            )

        assert run("event") == run("batch")

    @given(
        kernel=kernel_names,
        org=orgs,
        length=st.sampled_from([8, 16, 32]),
        refresh=st.booleans(),
    )
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cached_natural_order_batch_is_exact(
        self, kernel, org, length, refresh
    ):
        def run(engine):
            controller = CachedNaturalOrderController(
                config_for(org), refresh=refresh
            )
            return controller.run(KERNELS[kernel], length=length,
                                  engine=engine)

        assert run("event") == run("batch")

    @given(
        kernel=kernel_names,
        org=orgs,
        length=st.sampled_from([8, 16, 32]),
        stride=st.sampled_from([1, 2, 4]),
        window=st.sampled_from([2, 8]),
        refresh=st.booleans(),
    )
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_l2_streaming_batch_is_exact(
        self, kernel, org, length, stride, window, refresh
    ):
        def run(engine):
            controller = L2StreamingController(
                config_for(org), prefetch_window=window, refresh=refresh
            )
            return controller.run(KERNELS[kernel], length=length,
                                  stride=stride, engine=engine)

        assert run("event") == run("batch")

    @given(
        org=orgs,
        transactions=st.sampled_from([4, 16, 48]),
        write_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(min_value=1, max_value=64),
        refresh=st.booleans(),
    )
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_driver_batch_is_exact(
        self, org, transactions, write_fraction, seed, refresh
    ):
        def run(engine):
            driver = RandomAccessDriver(config_for(org), refresh=refresh)
            return driver.run(transactions, write_fraction=write_fraction,
                              seed=seed, engine=engine)

        assert run("event") == run("batch")


class TestEngineSelection:
    def test_canonical_engine_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            canonical_engine("warp")

    def test_engines_registry(self):
        assert ENGINES == ("event", "batch", "auto")
        listing = list_engines()
        for name in ENGINES:
            assert name in listing

    def test_core_configs_are_batch_supported(self):
        for org in ("cli", "pi"):
            assert batch_unsupported_reason(config_for(org)) is None

    def test_runtime_page_policy_is_gated(self):
        config = dataclasses.replace(config_for("cli"), page_policy="timeout")
        reason = batch_unsupported_reason(config)
        assert reason is not None
        with pytest.raises(ConfigurationError, match="cannot run this spec"):
            resolve_engine("batch", config)
        # auto silently falls back to the event kernel...
        assert resolve_engine("auto", config) == "event"
        # ...and the fallback actually simulates.
        spec = RunSpec(kernel="copy", organization=config,
                       length=32, fifo_depth=8, engine="auto")
        assert simulate(spec).cycles > 0

    def test_batch_run_rejects_unsupported_config(self):
        config = dataclasses.replace(config_for("cli"), page_policy="timeout")
        with pytest.raises(ConfigurationError):
            run_smc_batch(KERNELS["copy"], config, length=32, fifo_depth=8)

    def test_instrumented_runs_fall_back(self):
        assert resolve_engine("auto", config_for("cli"),
                              instrumented=True) == "event"
        with pytest.raises(ConfigurationError, match="instrument"):
            resolve_engine("batch", config_for("cli"), instrumented=True)


class TestSimulateEngineApi:
    def test_engines_agree_through_simulate(self):
        results = {
            engine: simulate(RunSpec(
                kernel="daxpy", organization="pi", length=64,
                fifo_depth=16, engine=engine,
            ))
            for engine in ENGINES
        }
        assert results["event"] == results["batch"] == results["auto"]

    def test_engine_argument_overrides_spec(self):
        spec = RunSpec(kernel="copy", organization="cli", length=32,
                       fifo_depth=8, engine="event")
        assert simulate(spec, engine="batch") == simulate(spec)

    def test_engine_is_not_part_of_cache_identity(self):
        specs = [
            RunSpec(kernel="daxpy", organization="cli", length=64,
                    fifo_depth=16, engine=engine)
            for engine in ENGINES
        ]
        keys = {spec.canonical_key() for spec in specs}
        assert len(keys) == 1

    def test_engine_round_trips_but_default_is_elided(self):
        spec = RunSpec(kernel="copy", organization="cli", engine="batch")
        assert spec.to_dict()["engine"] == "batch"
        assert RunSpec.from_dict(spec.to_dict()).engine == "batch"
        assert "engine" not in RunSpec(
            kernel="copy", organization="cli"
        ).to_dict()

    def test_cache_entry_is_shared_across_engines(self, tmp_path):
        from repro.exec import execution

        spec = RunSpec(kernel="copy", organization="cli", length=32,
                       fifo_depth=8)
        with execution(cache=tmp_path):
            first = simulate(spec, engine="event")
            second = simulate(spec, engine="batch")
        assert first == second

    def test_default_engine_is_session_scoped(self):
        assert default_engine() == "auto"
        previous = set_default_engine("event")
        try:
            assert previous == "auto"
            assert default_engine() == "event"
        finally:
            set_default_engine(previous)
        assert default_engine() == "auto"


class TestEngineCli:
    def test_list_engines_flag(self, capsys):
        from repro.sim.cli import main

        assert main(["--list-engines"]) == 0
        out = capsys.readouterr().out
        assert "event" in out and "batch" in out and "auto" in out

    def test_engine_flag_matches_event_run(self, capsys):
        from repro.sim.cli import main

        assert main(["daxpy", "--length", "128", "--engine", "batch"]) == 0
        batch_out = capsys.readouterr().out
        assert main(["daxpy", "--length", "128", "--engine", "event"]) == 0
        event_out = capsys.readouterr().out
        assert batch_out == event_out

    def test_engine_flag_reaches_baselines(self, capsys):
        from repro.sim.cli import main

        for engine in ("event", "batch"):
            assert main([
                "copy", "--baseline", "l2-streaming", "--length", "64",
                "--engine", engine,
            ]) == 0
        runs = capsys.readouterr().out.split("kernel")
        assert runs[1].strip() == runs[2].strip()

    def test_batch_engine_refuses_instrumented_cli_run(self, capsys):
        from repro.sim.cli import main

        assert main(["daxpy", "--stats", "--engine", "batch"]) == 1
        err = capsys.readouterr().err
        assert "engine 'batch' cannot run this spec" in err

    def test_experiments_list_engines(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list-engines"]) == 0
        assert "batch" in capsys.readouterr().out
