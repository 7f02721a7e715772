"""Unit tests for the shared discrete-event simulation kernel."""

from __future__ import annotations

import ast
import importlib
import inspect

import pytest

from repro.core.smc import build_smc_system
from repro.cpu.kernels import KERNELS
from repro.errors import ConfigurationError, SchedulingError
from repro.memsys.config import MemorySystemConfig
from repro.sim.batch import run_smc_batch
from repro.sim.engine import run_smc
from repro.rdram.refresh import RefreshEngine
from repro.sim.kernel import ResultBuilder, Simulation, TransactionPump
from repro.traffic import TrafficWorkload, run_traffic

#: Watchdog bounds that are not an int of at least 0.  The entry
#: points read None as "use the default bound"; Simulation has none.
BAD_BOUNDS = ["100000", True, 2.5, -1]


class _Counter:
    """Ticks every `period` cycles until it has fired `limit` times."""

    def __init__(self, period=1, limit=5):
        self.period = period
        self.limit = limit
        self.fired = 0
        self.visited = []

    def tick(self, cycle):
        if self.fired < self.limit and cycle % self.period == 0:
            self.fired += 1
        self.visited.append(cycle)

    @property
    def next_action_cycle(self):
        if self.fired >= self.limit:
            return None
        return self.visited[-1] + self.period if self.visited else 0


class TestSimulation:
    def test_runs_to_done(self):
        counter = _Counter(period=3, limit=4)
        final = Simulation(
            [counter],
            done=lambda: counter.fired >= 4,
            max_cycles=100,
        ).run()
        assert counter.fired == 4
        assert final == 9  # fires at 0, 3, 6, 9

    def test_skip_visits_only_interesting_cycles(self):
        counter = _Counter(period=5, limit=3)
        Simulation(
            [counter],
            done=lambda: counter.fired >= 3,
            max_cycles=100,
        ).run()
        assert counter.visited == [0, 5, 10]

    def test_dense_visits_every_cycle(self):
        counter = _Counter(period=5, limit=3)
        Simulation(
            [counter],
            done=lambda: counter.fired >= 3,
            max_cycles=100,
            dense=True,
        ).run()
        assert counter.visited == list(range(11))

    def test_watchdog_raises(self):
        counter = _Counter(period=1, limit=10**9)
        with pytest.raises(SchedulingError, match="exceeded"):
            Simulation(
                [counter],
                done=lambda: False,
                max_cycles=10,
                label="unit test",
            ).run()

    def test_deadlock_detected(self):
        counter = _Counter(limit=1)
        with pytest.raises(SchedulingError, match="deadlock"):
            Simulation(
                [counter],
                done=lambda: False,
                max_cycles=100,
            ).run()

    def test_background_component_cannot_mask_deadlock(self, device):
        # A refresh engine always has a pending action, but a refresh
        # cannot unblock the computation.
        engine = RefreshEngine(device, interval=1000)
        counter = _Counter(limit=1)
        with pytest.raises(SchedulingError, match="deadlock"):
            Simulation(
                [engine, counter],
                done=lambda: False,
                max_cycles=10_000,
            ).run()
        assert engine.next_action_cycle == 1000
        assert engine.refreshes_issued == 0

    @pytest.mark.parametrize("bound", [*BAD_BOUNDS, None])
    def test_watchdog_bound_must_be_a_nonnegative_int(self, bound):
        with pytest.raises(ConfigurationError, match="max_cycles"):
            Simulation([_Counter()], done=lambda: True, max_cycles=bound)

    def test_zero_watchdog_bound_allows_cycle_zero(self):
        counter = _Counter(limit=1)
        assert Simulation(
            [counter], done=lambda: counter.fired >= 1, max_cycles=0
        ).run() == 0

    @pytest.mark.parametrize("bound", ["9999", 2.5])
    def test_entry_points_check_the_watchdog_bound(self, bound):
        system = build_smc_system(
            KERNELS["copy"], MemorySystemConfig.cli(), length=16,
            fifo_depth=8,
        )
        with pytest.raises(ConfigurationError, match="max_cycles"):
            run_smc(system, max_cycles=bound)
        with pytest.raises(ConfigurationError, match="max_cycles"):
            run_traffic(
                workload=TrafficWorkload(clients=2, requests=4),
                max_cycles=bound,
            )

    @pytest.mark.parametrize("bound", BAD_BOUNDS)
    def test_batch_loop_checks_the_watchdog_bound(self, bound):
        with pytest.raises(ConfigurationError, match="max_cycles"):
            run_smc_batch(
                KERNELS["copy"], MemorySystemConfig.cli(), length=16,
                fifo_depth=8, max_cycles=bound,
            )


class TestLayering:
    """The kernel knows nothing of instrumentation (each instrumented
    run wires its own, and the SMC wiring builds the telemetry probe),
    and the serial FPM model is a plain loop, not a kernel run."""

    @pytest.mark.parametrize(
        "module, banned",
        [
            ("repro.sim.kernel", "repro.obs.telemetry"),
            ("repro.sim.kernel", "repro.obs"),
            ("repro.fpm", "repro.sim"),
            ("repro.fpm.device", "repro.sim"),
            ("repro.fpm.smc", "repro.sim"),
        ],
    )
    def test_module_does_not_import(self, module, banned):
        tree = ast.parse(inspect.getsource(importlib.import_module(module)))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
        assert not {
            name
            for name in imported
            if name == banned or name.startswith(banned + ".")
        }


class TestTransactionPump:
    def test_resumes_at_each_start(self):
        issued = []

        def steps():
            for start in (0, 4, 4, 20):
                yield start
                issued.append(start)

        pump = TransactionPump(steps())
        visited = []

        class Recorder:
            def tick(self, cycle):
                visited.append(cycle)

            next_action_cycle = None

        Simulation(
            [Recorder(), pump],
            done=lambda: pump.done,
            max_cycles=100,
        ).run()
        assert issued == [0, 4, 4, 20]
        # Same-start transactions issue on consecutive visited cycles.
        assert visited == [0, 4, 5, 20]

    def test_done_immediately_for_empty_plan(self):
        pump = TransactionPump(iter(()))
        assert pump.done
        assert pump.next_action_cycle is None


class TestResultBuilder:
    def _builder(self):
        return ResultBuilder(
            kernel="daxpy",
            organization="test-org",
            length=64,
            stride=1,
            fifo_depth=16,
            alignment="staggered",
            policy="unit-test",
        )

    def test_note_first_data_keeps_earliest(self):
        builder = self._builder()
        builder.note_first_data(40)
        builder.note_first_data(10)
        assert builder.first_data == 40

    def test_note_data_end_keeps_latest(self):
        builder = self._builder()
        builder.note_data_end(10)
        builder.note_data_end(5)
        assert builder.last_data_end == 10

    def test_build_assembles_counters(self):
        builder = self._builder()
        builder.note_first_data(12)
        builder.packets_issued = 128
        builder.activations = 3
        result = builder.build(
            cycles=500, useful_bytes=1024, transferred_bytes=2048
        )
        assert result.startup_cycles == 12
        assert result.packets_issued == 128
        assert result.activations == 3
        assert result.cycles == 500
        assert result.kernel == "daxpy"

    def test_build_overrides_win(self):
        builder = self._builder()
        builder.packets_issued = 1
        result = builder.build(
            cycles=1,
            useful_bytes=1,
            transferred_bytes=1,
            packets_issued=99,
            cpu_stall_cycles=7,
        )
        assert result.packets_issued == 99
        assert result.cpu_stall_cycles == 7
