"""Tests for the sweep-execution subsystem (RunSpec, cache, pool)."""

from __future__ import annotations

import json
import multiprocessing
from collections import Counter

import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.exec import ResultCache, execution, run_specs
from repro.core.policies import BankAwarePolicy, RoundRobinPolicy
from repro.cpu.kernels import Kernel
from repro.cpu.streams import Alignment, Direction, StreamSpec
from repro.memsys.config import MemorySystemConfig
from repro.rdram.channel import ChannelGeometry
from repro.rdram.device import RdramGeometry
from repro.sim import runner
from repro.sim.results import SimulationResult
from repro.sim.runner import RunSpec, simulate
from repro.sim.sweep import Sweep


def small_grid() -> list:
    """A 32-point copy+daxpy grid, cheap enough to run twice."""
    return Sweep(
        kernel=["copy", "daxpy"],
        organization=["cli", "pi"],
        length=[64, 128],
        fifo_depth=[8, 16],
        alignment=["staggered", "aligned"],
    ).specs()


#: A kernel that is not in the KERNELS registry (offset read).
CUSTOM_KERNEL = Kernel(
    name="shift8",
    expression="y[i] <- x[i+8]",
    streams=(
        StreamSpec(name="x", vector="x", direction=Direction.READ, offset=8),
        StreamSpec(name="y", vector="y", direction=Direction.WRITE),
    ),
)


class _Unregistered(RoundRobinPolicy):
    """Runs like round-robin but is not the registered type."""


def _boom(*args, **kwargs):
    raise AssertionError("engine invoked on a path that must not simulate")


class TestRunSpec:
    def test_normalizes_spellings_to_one_key(self):
        by_name = RunSpec(kernel="copy", organization="PI", fifo_depth=8)
        by_object = RunSpec(
            kernel=runner.get_kernel("copy"),
            organization=MemorySystemConfig.pi(),
            fifo_depth=8,
            alignment=Alignment.STAGGERED,
            policy=None,
        )
        assert by_name == by_object
        assert by_name.canonical_key() == by_object.canonical_key()
        assert by_name.organization == "pi"
        assert by_object.kernel == "copy"

    def test_policy_instance_normalized_to_name(self):
        spec = RunSpec(kernel="copy", policy=BankAwarePolicy())
        assert spec.policy == "bank-aware"

    def test_roundtrip_is_identity(self):
        spec = RunSpec(kernel="vaxpy", organization="cli", length=256,
                       fifo_depth=32, stride=4, audit=True, refresh=True)
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        # canonical_key is valid, deterministic JSON
        assert json.loads(spec.canonical_key())["stride"] == 4

    def test_custom_config_roundtrips_structurally(self):
        config = MemorySystemConfig.pi(
            geometry=RdramGeometry(num_banks=16, doubled_banks=True)
        )
        spec = RunSpec(kernel="copy", organization=config)
        again = RunSpec.from_dict(json.loads(spec.canonical_key()))
        assert again.organization == config
        assert again == spec

    def test_channel_geometry_roundtrips(self):
        config = MemorySystemConfig.cli(
            geometry=ChannelGeometry(num_devices=4)
        )
        spec = RunSpec(kernel="daxpy", organization=config)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_unregistered_kernel_roundtrips(self):
        spec = RunSpec(kernel=CUSTOM_KERNEL, length=64, fifo_depth=8)
        assert isinstance(spec.kernel, Kernel)  # not collapsed to a name
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert simulate(again) == simulate(spec)

    def test_custom_policy_instance_not_serializable(self):
        spec = RunSpec(kernel="copy", policy=_Unregistered())
        with pytest.raises(ConfigurationError, match="not in the POLICIES"):
            spec.canonical_key()

    def test_bad_alignment_rejected_at_construction(self):
        with pytest.raises(
            ConfigurationError, match="alignment 'diagonal'.*staggered"
        ):
            RunSpec(kernel="copy", alignment="diagonal")

    @pytest.mark.parametrize("depth", [7.5, True, "64"])
    def test_non_int_fifo_depth_rejected_at_construction(self, depth):
        with pytest.raises(ConfigurationError, match="fifo_depth.*integer"):
            RunSpec(kernel="copy", fifo_depth=depth)

    def test_engine_key_of_older_dicts_is_dropped(self):
        # Written by a version whose specs carried an engine choice.
        older = {
            "kernel": "daxpy", "organization": "pi", "length": 64,
            "fifo_depth": 16, "stride": 1, "alignment": "staggered",
            "policy": None, "audit": False, "refresh": False,
            "engine": "event",
        }
        spec = RunSpec.from_dict(older)
        assert spec == RunSpec("daxpy", "pi", length=64, fifo_depth=16)
        assert spec.canonical_key() == (
            '{"alignment":"staggered","audit":false,"fifo_depth":16,'
            '"kernel":"daxpy","length":64,"organization":"pi",'
            '"policy":null,"refresh":false,"stride":1}'
        )

    def test_describe_mentions_the_point(self):
        label = RunSpec(kernel="copy", fifo_depth=8, policy="bank-aware").describe()
        assert "copy" in label and "f=8" in label and "bank-aware" in label


class TestResultSerialization:
    def test_roundtrip(self):
        result = simulate(RunSpec("copy", "cli", length=64, fifo_depth=16))
        again = SimulationResult.from_dict(result.to_dict())
        assert again == result

    def test_extra_keys_ignored(self):
        result = simulate(RunSpec("copy", "cli", length=64, fifo_depth=16))
        payload = result.to_dict()
        payload["percent_of_peak"] = result.percent_of_peak
        assert SimulationResult.from_dict(payload) == result

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            SimulationResult.from_dict({"kernel": "copy"})


class TestResultCache:
    def test_store_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path, salt="v1")
        spec = RunSpec(kernel="copy", length=64, fifo_depth=8)
        assert cache.get(spec) is None
        result = simulate(spec)
        assert cache.put(spec, result)
        assert cache.get(spec) == result
        assert len(cache) == 1
        assert cache.path_for(spec).exists()

    def test_salt_change_invalidates(self, tmp_path):
        spec = RunSpec(kernel="copy", length=64, fifo_depth=8)
        result = simulate(spec)
        ResultCache(tmp_path, salt="v1").put(spec, result)
        assert ResultCache(tmp_path, salt="v1").get(spec) == result
        assert ResultCache(tmp_path, salt="v2").get(spec) is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path, salt="v1")
        spec = RunSpec(kernel="copy", length=64, fifo_depth=8)
        cache.put(spec, simulate(spec))
        cache.path_for(spec).write_text("not json{")
        assert cache.get(spec) is None

    def test_unserializable_spec_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path, salt="v1")
        spec = RunSpec(kernel="copy", policy=_Unregistered())
        assert cache.get(spec) is None
        assert not cache.put(spec, simulate(spec))
        assert len(cache) == 0

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path, salt="v1")
        spec = RunSpec(kernel="copy", length=64, fifo_depth=8)
        cache.put(spec, simulate(spec))
        assert cache.clear() == 1
        assert len(cache) == 0


class TestRunSpecsSerial:
    def test_matches_direct_simulate_in_order(self):
        specs = [
            RunSpec(kernel="copy", length=64, fifo_depth=8),
            RunSpec(kernel="daxpy", length=64, fifo_depth=16),
        ]
        results = run_specs(specs)
        assert results[0] == simulate(RunSpec("copy", length=64, fifo_depth=8))
        assert results[1] == simulate(RunSpec("daxpy", length=64, fifo_depth=16))

    def test_warm_cache_rerun_performs_zero_simulations(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path, salt="v1")
        specs = small_grid()
        first = run_specs(specs, cache=cache)
        assert cache.stores == len(specs)
        # Any engine invocation on the rerun explodes.
        monkeypatch.setattr(runner, "run_smc", _boom)
        second = run_specs(specs, cache=cache)
        assert second == first
        assert cache.hits == len(specs)

    def test_progress_events(self, tmp_path):
        cache = ResultCache(tmp_path, salt="v1")
        spec = RunSpec(kernel="copy", length=64, fifo_depth=8)
        events = []
        run_specs([spec], cache=cache, progress=events.append)
        run_specs([spec], cache=cache, progress=events.append)
        assert [e.cached for e in events] == [False, True]
        assert all(e.index == 0 and e.done == e.total == 1 for e in events)
        assert events[0].result == events[1].result


class TestWorkersChecked:
    """``workers`` is an int or None wherever it enters."""

    SPECS = [RunSpec(kernel="copy", length=64, fifo_depth=8)] * 3

    @pytest.mark.parametrize("workers", ["2", 2.5, True])
    def test_run_specs_names_workers(self, workers):
        with pytest.raises(ConfigurationError, match="workers must be an integer"):
            run_specs(self.SPECS, workers=workers)

    @pytest.mark.parametrize("workers", ["4", 2.5, True])
    def test_execution_names_workers(self, workers):
        with pytest.raises(ConfigurationError, match="workers must be an integer"):
            with execution(workers=workers):
                run_specs(self.SPECS)


class TestRunSpecsPooled:
    def test_parallel_identical_to_serial_32_points(self):
        specs = small_grid()
        assert len(specs) == 32
        serial = run_specs(specs)
        pooled = run_specs(specs, workers=4)
        assert pooled == serial  # full SimulationResult equality

    def test_pooled_fills_and_reuses_cache(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path, salt="v1")
        specs = small_grid()[:8]
        first = run_specs(specs, workers=2, cache=cache)
        assert len(cache) == len(specs)
        monkeypatch.setattr(runner, "run_smc", _boom)
        second = run_specs(specs, workers=2, cache=cache)
        assert second == first

    def test_custom_config_crosses_process_boundary(self):
        config = MemorySystemConfig.pi(
            geometry=RdramGeometry(num_banks=16, doubled_banks=True)
        )
        specs = [
            RunSpec(kernel="copy", organization=config, length=64,
                    fifo_depth=depth)
            for depth in (8, 16)
        ]
        assert run_specs(specs, workers=2) == run_specs(specs)

    def test_poisoned_worker_is_retried_and_sweep_completes(
        self, tmp_path, monkeypatch
    ):
        specs = [
            RunSpec(kernel=k, length=64, fifo_depth=8)
            for k in ("copy", "daxpy", "vaxpy", "hydro")
        ]
        expected = run_specs(specs)
        sentinel = tmp_path / "crashed-once"
        monkeypatch.setenv("REPRO_EXEC_CRASH_KERNEL", "daxpy")
        monkeypatch.setenv("REPRO_EXEC_CRASH_ONCE", str(sentinel))
        assert run_specs(specs, workers=2) == expected
        assert sentinel.exists()  # a worker really did die

    def test_persistent_crasher_exhausts_retries(self, monkeypatch):
        specs = [RunSpec(kernel="copy", length=64, fifo_depth=8)]
        monkeypatch.setenv("REPRO_EXEC_CRASH_KERNEL", "copy")
        with pytest.raises(ExecutionError, match="crashed 2 times"):
            run_specs(specs, workers=2)

    def test_unserializable_spec_fails_fast(self):
        specs = [RunSpec(kernel="copy", policy=_Unregistered())]
        with pytest.raises(ConfigurationError, match="not in the POLICIES"):
            run_specs(specs, workers=2)


class TestExecutionContext:
    def test_simulate_hits_ambient_cache(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path, salt="v1")
        with execution(cache=cache):
            first = simulate(RunSpec("copy", "pi", length=64, fifo_depth=8))
            monkeypatch.setattr(runner, "run_smc", _boom)
            second = simulate(RunSpec("copy", "pi", length=64, fifo_depth=8))
        assert second == first
        assert cache.hits == 1

    def test_instrumented_runs_bypass_the_cache(self, tmp_path):
        from repro.obs import Instrumentation

        cache = ResultCache(tmp_path, salt="v1")
        with execution(cache=cache):
            simulate(RunSpec("copy", "pi", length=64, fifo_depth=8))
            obs = Instrumentation()
            simulate(RunSpec("copy", "pi", length=64, fifo_depth=8), obs=obs)
        assert cache.hits == 0  # the obs run neither read nor wrote
        assert len(cache) == 1

    def test_contexts_nest_and_unwind(self, tmp_path):
        from repro.exec.context import active_cache

        outer = ResultCache(tmp_path / "outer")
        inner = ResultCache(tmp_path / "inner")
        assert active_cache() is None
        with execution(cache=outer):
            assert active_cache() is outer
            with execution(cache=inner):
                assert active_cache() is inner
            assert active_cache() is outer
        assert active_cache() is None

    def test_cache_accepts_a_path(self, tmp_path):
        with execution(cache=tmp_path) as context:
            assert isinstance(context.cache, ResultCache)
            assert context.cache.root == tmp_path


def _log_cache_calls(monkeypatch, log) -> None:
    """Append one ``"<get|put> <cache root>"`` line per cache call.

    Forked pool workers inherit the patch and append to the same file.
    """
    for kind in ("get", "put"):
        method = getattr(ResultCache, kind)

        def logged(self, *args, kind=kind, method=method):
            with open(log, "a") as out:
                out.write(f"{kind} {self.root}\n")
            return method(self, *args)

        monkeypatch.setattr(ResultCache, kind, logged)


class TestOneCacheRoundTrip:
    """``run_specs`` reads and writes its own points' cache entries once."""

    SPECS = [
        RunSpec(kernel=kernel, length=64, fifo_depth=8)
        for kernel in ("copy", "daxpy", "vaxpy", "hydro")
    ]

    @pytest.fixture(params=[1, 2], ids=["serial", "pooled"])
    def workers(self, request):
        if request.param > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers inherit the cache patch only by fork")
        return request.param

    def test_one_get_and_one_put_per_fresh_point(
        self, tmp_path, monkeypatch, workers
    ):
        log = tmp_path / "calls.log"
        _log_cache_calls(monkeypatch, log)
        with execution(cache=tmp_path / "cache"):
            run_specs(self.SPECS, workers=workers)
        calls = Counter(line.split()[0] for line in log.read_text().splitlines())
        assert calls == {"get": len(self.SPECS), "put": len(self.SPECS)}

    def test_explicit_cache_leaves_the_ambient_one_alone(
        self, tmp_path, monkeypatch, workers
    ):
        log = tmp_path / "calls.log"
        _log_cache_calls(monkeypatch, log)
        given = ResultCache(tmp_path / "given")
        ambient = ResultCache(tmp_path / "ambient")
        with execution(cache=ambient):
            run_specs(self.SPECS, workers=workers, cache=given)
        assert len(given) == len(self.SPECS)
        assert len(ambient) == 0
        roots = {line.split()[1] for line in log.read_text().splitlines()}
        assert roots == {str(given.root)}
