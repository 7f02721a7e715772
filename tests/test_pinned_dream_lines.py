"""Pinned cacheline moves on a mapping that remaps inside a line.

A stateful ``dream`` mapping may re-arrange its bijection after any
issued access, so the second DATA packet of a line can land somewhere
the first packet's decomposition did not predict.  At the default
1024-access epoch a 2-packet line never straddles a remap, so the
other ``dream`` pins would pass even if a line were decomposed once.
These cases remap every access (``remap_epoch_accesses=1``) or every
third access (``3``, so remaps fall on both packets of a line in
turn).

``tests/data/pinned_dream_lines.json`` was captured while every line
mover still decomposed each DATA packet on its own, just before it
issued:

controllers
    natural-order, cached natural-order and L2 streaming (prefetch
    window 3) daxpy, and the random-access driver at queue depth 4
    with 40% writes; a case pins the result's ``to_dict()``, the
    remap count and a sha256 digest of the device packet trace.
traffic
    ``run_traffic`` with the fcfs and mars schedulers, on one channel
    and on two (the channel-striping stage over ``dream``), with
    background refresh; a case pins the result's ``to_dict()``.
smc
    ``simulate`` of daxpy and vaxpy on the event kernel, whose stream
    plans are built element by element at epoch 0 (with or without
    numpy); a case pins the result's ``to_dict()``.

Comparisons are on canonical JSON text, so an int that turned into a
float fails.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro import KERNELS
from repro.cache.controller import CachedNaturalOrderController
from repro.core.l2stream import L2StreamingController
from repro.memsys.config import MemorySystemConfig
from repro.naturalorder.controller import NaturalOrderController
from repro.naturalorder.random_driver import RandomAccessDriver
from repro.sim.runner import RunSpec, simulate
from repro.traffic import TrafficWorkload, run_traffic

FIXTURE = Path(__file__).parent / "data" / "pinned_dream_lines.json"

#: Elements per stream (and transactions per random run).
LENGTH = 512

EPOCHS = (1, 3)

#: Shallow queues with hot lines: a few hundred requests per case.
WORKLOAD = TrafficWorkload(
    clients=8, requests=300, mean_gap=20.0, hot_lines=16, seed=5
)


def _config(epoch: int) -> MemorySystemConfig:
    return MemorySystemConfig.pi(
        interleaving="dream", remap_epoch_accesses=epoch
    )


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _controller_record(controller, result) -> dict:
    return {
        "result": result.to_dict(),
        "remap_events": controller.device.mapping.remap_events,
        "trace_sha256": _digest(controller.device.trace),
    }


def _kernel_run(cls, **kwargs) -> Callable[[int], dict]:
    def run(epoch: int) -> dict:
        controller = cls(_config(epoch), record_trace=True, **kwargs)
        return _controller_record(
            controller, controller.run(KERNELS["daxpy"], length=LENGTH)
        )

    return run


def _random_run(epoch: int) -> dict:
    controller = RandomAccessDriver(
        _config(epoch), queue_depth=4, record_trace=True
    )
    return _controller_record(
        controller, controller.run(LENGTH, write_fraction=0.4, seed=3)
    )


def _traffic_run(scheduler: str, channels: int) -> Callable[[int], dict]:
    def run(epoch: int) -> dict:
        result = run_traffic(
            _config(epoch),
            WORKLOAD,
            channels=channels,
            scheduler=scheduler,
            refresh=True,
        )
        return result.to_dict()

    return run


def _smc_run(kernel: str) -> Callable[[int], dict]:
    def run(epoch: int) -> dict:
        return simulate(
            RunSpec(kernel, _config(epoch), length=LENGTH)
        ).to_dict()

    return run


RUNS: Dict[str, Callable[[int], dict]] = {
    "natural-order": _kernel_run(NaturalOrderController),
    "cached-natural-order": _kernel_run(CachedNaturalOrderController),
    "l2-streaming-w3": _kernel_run(L2StreamingController, prefetch_window=3),
    "random-q4": _random_run,
    "traffic-fcfs-1ch": _traffic_run("fcfs", 1),
    "traffic-mars-1ch": _traffic_run("mars", 1),
    "traffic-fcfs-2ch": _traffic_run("fcfs", 2),
    "traffic-mars-2ch": _traffic_run("mars", 2),
    "smc-daxpy": _smc_run("daxpy"),
    "smc-vaxpy": _smc_run("vaxpy"),
}

CASES: Dict[str, Callable[[], dict]] = {
    f"{name}/epoch-{epoch}": (lambda run=run, epoch=epoch: run(epoch))
    for name, run in RUNS.items()
    for epoch in EPOCHS
}


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


class TestPinnedDreamLines:
    @pytest.mark.parametrize("key", sorted(CASES))
    def test_identical(self, pinned, key):
        assert _canonical(CASES[key]()) == _canonical(pinned[key])

    def test_fixture_covers_every_case(self, pinned):
        assert sorted(pinned) == sorted(CASES)

    def test_controllers_remap_inside_lines(self, pinned):
        # At these epochs the map moves between a line's two packets.
        for key, record in pinned.items():
            if "remap_events" in record:
                assert record["remap_events"] > LENGTH // 4, key
