"""Pinned attribution output: traffic metrics and closed-loop records.

``tests/data/pinned_attribution.json`` was captured before the traffic
layer stopped attaching an :class:`~repro.obs.core.Instrumentation` to
every channel memory, before its latency histograms were filled once
per run from tallies, and before the traffic and closed-loop gap
classifiers were merged into one.  It has two parts:

``traffic``
    The JSONL records (:func:`~repro.obs.metrics.metrics_records`) of
    the registry a ``run_traffic`` call reports into: the latency
    histogram, the six ``traffic.latency_component_cycles``
    histograms and the ``telemetry_window=256`` series.  Cases: a
    two-channel CLI system with refresh under ``fcfs`` and under
    ``mars``, the same under ``frfcfs`` with a refresh every 36
    cycles (one channel's refresh spans then overlap, and are merged),
    and a one-channel DReAM system under ``mars`` with a
    :class:`~repro.traffic.driver.BankBudgetRegulator`.
``closed``
    Instrumented closed-loop runs (SMC daxpy on CLI, SMC vaxpy on PI
    with refresh, whose controller-side gaps split into ``fifo`` and
    ``scheduler_idle``, natural-order daxpy with refresh, and SMC
    daxpy on a two-channel CLI fabric with refresh): every counter,
    the cycles per bucket of the classified gap pieces, the gap
    count, and sha256 digests of the DATA-bus gaps, tracer spans and
    tracer instants as plain field tuples.  The single-channel runs
    also pin the seven-bucket stall attribution and a digest of their
    ``telemetry_window=256`` metrics.  The fabric run records both
    channels' gaps in one list, interleaved in issue order, and
    checks them against both channels' refresh spans; stall
    attribution assumes one DATA bus, so it is not pinned there.

Every comparison is on canonical JSON text, so an int that turned
into a float (or the reverse) fails even though the two compare
equal in Python.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Iterable, Union

import pytest

from repro import KERNELS, RunSpec, simulate
from repro.core.smc import build_smc_system
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.naturalorder.controller import NaturalOrderController
from repro.obs import (
    Instrumentation,
    attribute_stalls,
    classify_stall_intervals,
)
from repro.obs.metrics import MetricsRegistry, metrics_records
from repro.sim.engine import run_smc
from repro.traffic import BankBudgetRegulator, TrafficWorkload, run_traffic

FIXTURE = Path(__file__).parent / "data" / "pinned_attribution.json"

#: Near two CLI channels' service rate: queues form, refresh lands
#: inside requests, and writes bring read turnarounds.
CLI_WORKLOAD = TrafficWorkload(
    clients=16, requests=1200, mean_gap=24.0, hot_lines=16, seed=11
)

#: Six clients with tiny hot sets on one open-page channel: the
#: regulator defers hundreds of times and open rows leave the fixed
#: COL-to-DATA pipeline exposed.
DREAM_WORKLOAD = TrafficWorkload(
    clients=6, requests=1200, mean_gap=40.0, hot_lines=4, seed=11
)

#: ``DataBusGap`` fields, in declaration order.
GAP_FIELDS = (
    "start",
    "end",
    "bank",
    "direction",
    "turnaround_until",
    "bank_until",
    "colbus_until",
    "request_until",
)


def _traffic_records(
    config: MemorySystemConfig,
    workload: TrafficWorkload,
    channels: int,
    scheduler: str,
    regulated: bool,
    refresh: Union[bool, int] = True,
) -> list:
    registry = MetricsRegistry()
    run_traffic(
        config,
        workload,
        channels=channels,
        scheduler=scheduler,
        regulator=(
            BankBudgetRegulator(window_cycles=512, budget_bytes=64)
            if regulated
            else None
        ),
        registry=registry,
        telemetry_window=256,
        refresh=refresh,
    )
    return metrics_records(registry)


TRAFFIC_CASES: Dict[str, Callable[[], list]] = {
    "cli-2ch/fcfs": lambda: _traffic_records(
        MemorySystemConfig.cli(), CLI_WORKLOAD, 2, "fcfs", False
    ),
    "cli-2ch/mars": lambda: _traffic_records(
        MemorySystemConfig.cli(), CLI_WORKLOAD, 2, "mars", False
    ),
    "cli-2ch/frfcfs/refresh-36": lambda: _traffic_records(
        MemorySystemConfig.cli(), CLI_WORKLOAD, 2, "frfcfs", False, 36
    ),
    "dream-1ch/mars/regulated": lambda: _traffic_records(
        MemorySystemConfig.pi(interleaving="dream"),
        DREAM_WORKLOAD,
        1,
        "mars",
        True,
    ),
}


def _digest(rows: Iterable[tuple]) -> str:
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()


def _closed_record(obs: Instrumentation, single_bus: bool = True) -> dict:
    tracer = obs.tracer
    pieces: Dict[str, int] = {}
    for lo, hi, name in classify_stall_intervals(obs):
        pieces[name] = pieces.get(name, 0) + hi - lo
    record: Dict[str, object] = {
        "counters": obs.counters.counters,
        "pieces": pieces,
        "gaps": len(obs.gaps),
        "gaps_sha256": _digest(
            tuple(getattr(gap, name) for name in GAP_FIELDS)
            for gap in obs.gaps
        ),
        "spans_sha256": _digest(
            (span.track, span.name, span.start, span.end, span.args)
            for span in tracer.spans
        ),
        "instants_sha256": _digest(
            (event.track, event.name, event.cycle, event.args)
            for event in tracer.instants
        ),
    }
    if single_bus:
        record["stalls"] = attribute_stalls(obs).as_dict()
        record["metrics_sha256"] = hashlib.sha256(
            json.dumps(metrics_records(obs.metrics), sort_keys=True).encode()
        ).hexdigest()
    return record


def _smc(kernel: str, organization: str, refresh: bool) -> dict:
    obs = Instrumentation(telemetry_window=256)
    simulate(
        RunSpec(kernel, organization, length=1024, refresh=refresh), obs=obs
    )
    return _closed_record(obs)


def _natural_order_refresh() -> dict:
    obs = Instrumentation(telemetry_window=256)
    NaturalOrderController(MemorySystemConfig.cli(), refresh=True).run(
        KERNELS["daxpy"], length=1024, obs=obs
    )
    return _closed_record(obs)


def _smc_fabric_refresh() -> dict:
    # simulate() refuses instrumentation on a fabric (attribution
    # assumes one DATA bus), so the system is driven directly.
    config = dataclasses.replace(
        MemorySystemConfig.cli(), topology=MemoryTopology(channels=2)
    )
    system = build_smc_system(
        KERNELS["daxpy"], config, length=1024, fifo_depth=64, refresh=True
    )
    obs = Instrumentation()
    run_smc(system, obs=obs)
    return _closed_record(obs, single_bus=False)


CLOSED_CASES: Dict[str, Callable[[], dict]] = {
    "smc/daxpy/cli": lambda: _smc("daxpy", "cli", False),
    "smc/vaxpy/pi/refresh": lambda: _smc("vaxpy", "pi", True),
    "natural-order/daxpy/cli/refresh": _natural_order_refresh,
    "smc/daxpy/cli-2ch/refresh": _smc_fabric_refresh,
}


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


class TestPinnedTrafficMetrics:
    @pytest.mark.parametrize("key", sorted(TRAFFIC_CASES))
    def test_registry_export_identical(self, pinned, key):
        assert _canonical(TRAFFIC_CASES[key]()) == _canonical(
            pinned["traffic"][key]
        )

    def test_fixture_exercises_every_component(self, pinned):
        # Together the cases attribute latency to all six components
        # (closed-page CLI never exposes the pipeline; open-page DReAM
        # does), so a classifier change in any one of them shows here.
        spent: Dict[str, float] = {}
        for key, records in pinned["traffic"].items():
            components = {
                record["labels"]["component"]: record["sum"]
                for record in records
                if record["name"] == "traffic.latency_component_cycles"
            }
            assert len(components) == 6, key
            assert components["refresh_blocked"] > 0, key
            for name, cycles in components.items():
                spent[name] = spent.get(name, 0.0) + cycles
            names = {record["name"] for record in records}
            assert {
                "traffic.bank_bytes",
                "traffic.channel_busy_cycles",
            } <= names, key
        assert all(cycles > 0 for cycles in spent.values()), spent


class TestPinnedClosedLoopRecords:
    @pytest.mark.parametrize("key", sorted(CLOSED_CASES))
    def test_instrumentation_identical(self, pinned, key):
        assert _canonical(CLOSED_CASES[key]()) == _canonical(
            pinned["closed"][key]
        )

    def test_fixture_exercises_every_bucket(self, pinned):
        spent: Dict[str, int] = {}
        for record in pinned["closed"].values():
            for name, cycles in record["pieces"].items():
                spent[name] = spent.get(name, 0) + cycles
        assert {
            "turnaround",
            "refresh",
            "precharge_activate",
            "fifo",
            "scheduler_idle",
        } <= {name for name, cycles in spent.items() if cycles > 0}

    def test_fixture_covers_every_case(self, pinned):
        assert sorted(pinned["traffic"]) == sorted(TRAFFIC_CASES)
        assert sorted(pinned["closed"]) == sorted(CLOSED_CASES)
