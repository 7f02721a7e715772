"""Pinned instrumented output: results, FIFO gauges and exported traces.

``tests/data/pinned_obs.json`` was captured while the kernel still
attached an :class:`~repro.obs.core.Instrumentation` to every
component and kept ``obs.now`` at each visited cycle for the FIFO
occupancy gauges, before each instrumented run took over wiring its
own ``obs``.  ``pinned_attribution.json`` pins counters, spans,
instants, gaps and metrics, but not the gauges; here every run pins:

* its result's ``to_dict()``;
* a sha256 digest of ``obs.counters.gauges`` (one FIFO occupancy
  series per stream on the SMC, none on natural order);
* a sha256 digest of its :func:`~repro.obs.export.to_chrome_trace`
  document (spans, instants, gauge samples, counters and metadata);
* with ``telemetry_window=256``, a sha256 digest of its metrics
  records.

Cases: SMC runs of daxpy on CLI; vaxpy on PI with refresh; hydro on
PI under ``speculative-precharge``; copy on CLI, aligned, under
``bank-aware``; daxpy on CLI with the ``timeout`` page policy and
refresh; and vaxpy on PI with the ``dream`` mapping, each with and
without a telemetry window.  Natural-order daxpy on CLI and PI, with
refresh on and off.  SMC daxpy on a two-channel, two-device CLI
fabric with refresh, through :func:`~repro.sim.engine.run_smc`.

Every case runs in skip and in dense mode against the same pin: the
kernel visits a superset of the cycles in dense mode, and every
sample is taken at the cycle of the tick that made its transition.
Comparisons are on canonical JSON text, so an int that turned into a
float fails even though the two compare equal in Python.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Optional

import pytest

from repro import KERNELS
from repro.core.policies import POLICIES
from repro.core.smc import build_smc_system
from repro.cpu.streams import Alignment
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.naturalorder.controller import NaturalOrderController
from repro.obs import Instrumentation
from repro.obs.export import to_chrome_trace
from repro.obs.metrics import metrics_records
from repro.sim.engine import run_smc
from repro.sim.results import SimulationResult

FIXTURE = Path(__file__).parent / "data" / "pinned_obs.json"

LENGTH = 1024
FIFO_DEPTH = 64
WINDOW = 256

MODES = ("skip", "dense")


def _sha256(value: object) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()


def _record(result: SimulationResult, obs: Instrumentation) -> dict:
    record: Dict[str, object] = {
        "result": result.to_dict(),
        "gauges_sha256": _sha256(obs.counters.gauges),
        "chrome_sha256": _sha256(to_chrome_trace(obs)),
    }
    if obs.telemetry_window:
        record["metrics_sha256"] = _sha256(metrics_records(obs.metrics))
    return record


def _smc(
    kernel: str,
    config: MemorySystemConfig,
    *,
    refresh: bool = False,
    policy: Optional[str] = None,
    alignment: Alignment = Alignment.STAGGERED,
) -> Callable[[bool, Optional[int]], dict]:
    def run(dense: bool, window: Optional[int]) -> dict:
        system = build_smc_system(
            KERNELS[kernel],
            config,
            length=LENGTH,
            fifo_depth=FIFO_DEPTH,
            alignment=alignment,
            policy=POLICIES[policy]() if policy else None,
            refresh=refresh,
        )
        obs = Instrumentation(telemetry_window=window)
        return _record(run_smc(system, dense=dense, obs=obs), obs)

    return run


def _natural_order(
    config: MemorySystemConfig, refresh: bool
) -> Callable[[bool, Optional[int]], dict]:
    def run(dense: bool, window: Optional[int]) -> dict:
        obs = Instrumentation(telemetry_window=window)
        result = NaturalOrderController(config, refresh=refresh).run(
            KERNELS["daxpy"], LENGTH, obs=obs, dense=dense
        )
        return _record(result, obs)

    return run


#: Each case, run as ``CASES[key](dense, telemetry_window)``.
CASES: Dict[str, Callable[[bool, Optional[int]], dict]] = {
    "smc/daxpy/cli": _smc("daxpy", MemorySystemConfig.cli()),
    "smc/vaxpy/pi/refresh": _smc(
        "vaxpy", MemorySystemConfig.pi(), refresh=True
    ),
    "smc/hydro/pi/speculative-precharge": _smc(
        "hydro", MemorySystemConfig.pi(), policy="speculative-precharge"
    ),
    "smc/copy/cli/aligned/bank-aware": _smc(
        "copy",
        MemorySystemConfig.cli(),
        policy="bank-aware",
        alignment=Alignment.ALIGNED,
    ),
    "smc/daxpy/cli/timeout/refresh": _smc(
        "daxpy", MemorySystemConfig.cli(page_policy="timeout"), refresh=True
    ),
    "smc/vaxpy/pi/dream": _smc(
        "vaxpy", MemorySystemConfig.pi(interleaving="dream")
    ),
    "natural-order/daxpy/cli": _natural_order(MemorySystemConfig.cli(), False),
    "natural-order/daxpy/cli/refresh": _natural_order(
        MemorySystemConfig.cli(), True
    ),
    "natural-order/daxpy/pi": _natural_order(MemorySystemConfig.pi(), False),
    "natural-order/daxpy/pi/refresh": _natural_order(
        MemorySystemConfig.pi(), True
    ),
    "smc/daxpy/cli-2ch-2dev/refresh": _smc(
        "daxpy",
        dataclasses.replace(
            MemorySystemConfig.cli(),
            topology=MemoryTopology(channels=2, devices_per_channel=2),
        ),
        refresh=True,
    ),
}

#: The SMC cases on one DATA bus also run under a telemetry window.
WINDOWED = tuple(
    key for key in CASES if key.startswith("smc/") and "2ch" not in key
)

KEYS = sorted([*CASES, *(f"{key}/window-{WINDOW}" for key in WINDOWED)])


def run_case(key: str, dense: bool) -> dict:
    """The record of pinned case ``key`` in dense or skip mode."""
    suffix = f"/window-{WINDOW}"
    if key.endswith(suffix):
        return CASES[key[: -len(suffix)]](dense, WINDOW)
    return CASES[key](dense, None)


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


class TestPinnedObs:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("key", KEYS)
    def test_record_identical(self, pinned, key, mode):
        assert _canonical(run_case(key, mode == "dense")) == _canonical(
            pinned[key]
        )

    def test_fixture_covers_every_case(self, pinned):
        assert sorted(pinned) == KEYS

    def test_smc_cases_sample_fifo_gauges(self):
        # The gauge digests guard something: an SMC run samples one
        # occupancy series per FIFO, at every transition.
        system = build_smc_system(
            KERNELS["daxpy"], MemorySystemConfig.cli(), length=64,
            fifo_depth=16,
        )
        obs = Instrumentation()
        run_smc(system, obs=obs)
        assert sorted(obs.counters.gauges) == sorted(
            f"fifo.{fifo.descriptor.name}.occupancy" for fifo in system.sbu
        )
        assert all(len(series) > 1 for series in obs.counters.gauges.values())
