"""Pinned output of the four cacheline controllers.

``tests/data/pinned_line_controllers.json`` was captured before the
natural-order, cached natural-order, L2-streaming and random-access
controllers were put on one base class (one memory wiring, one
full-line issue, one kernel run).  Each case is one controller on one
memory organization, with the background refresh engine off and on:

controllers
    natural-order and cached natural-order daxpy, L2 streaming daxpy
    with a prefetch window of 3, and the random-access driver at
    queue depths 1 and 4 with 40% writes.
organizations
    CLI, PI, CLI with the timeout page policy, PI with the adaptive
    DReAM mapping, and CLI on a four-device Rambus channel.

A case pins the result's ``to_dict()``, the refresh count the
controller kept, the L2 streamer's refetch and writeback tallies, and
a sha256 digest of the device packet trace.  One more case pins an
instrumented natural-order run: its counters, and digests of its
DATA-bus gaps and tracer spans.

The ``cli+timeout/refresh`` entries of natural-order, random-q1 and
random-q4 were re-captured when the refresh engine began applying
page-manager closes that are due before it reads which banks are
open; nothing else moved.

Every comparison is on canonical JSON text, so an int that turned
into a float (or the reverse) fails even though the two compare equal
in Python.
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
from repro.obs import Instrumentation
from repro.rdram.channel import ChannelGeometry

FIXTURE = Path(__file__).parent / "data" / "pinned_line_controllers.json"

#: Elements per stream (and transactions per random run): long enough
#: for a few refreshes at the default interval.
LENGTH = 512

ORGANIZATIONS: Dict[str, Callable[[], MemorySystemConfig]] = {
    "cli": MemorySystemConfig.cli,
    "pi": MemorySystemConfig.pi,
    "cli+timeout": lambda: MemorySystemConfig.cli(page_policy="timeout"),
    "pi+dream": lambda: MemorySystemConfig.pi(interleaving="dream"),
    "cli-4dev": lambda: MemorySystemConfig.cli(
        geometry=ChannelGeometry(num_devices=4)
    ),
}


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _record(controller, result) -> dict:
    record = {
        "result": result.to_dict(),
        "refreshes_issued": controller.refreshes_issued,
        "trace_sha256": _digest(controller.device.trace),
    }
    if isinstance(controller, L2StreamingController):
        record["refetches"] = controller.refetches
        record["writebacks_streamed"] = controller.writebacks_streamed
    return record


def _kernel_run(cls, **kwargs) -> Callable[[MemorySystemConfig, bool], dict]:
    def run(config: MemorySystemConfig, refresh: bool) -> dict:
        controller = cls(config, record_trace=True, refresh=refresh, **kwargs)
        return _record(
            controller, controller.run(KERNELS["daxpy"], length=LENGTH)
        )

    return run


def _random_run(queue_depth: int) -> Callable[[MemorySystemConfig, bool], dict]:
    def run(config: MemorySystemConfig, refresh: bool) -> dict:
        controller = RandomAccessDriver(
            config, queue_depth=queue_depth, record_trace=True,
            refresh=refresh,
        )
        return _record(
            controller,
            controller.run(LENGTH, write_fraction=0.4, seed=3),
        )

    return run


CONTROLLERS: Dict[str, Callable[[MemorySystemConfig, bool], dict]] = {
    "natural-order": _kernel_run(NaturalOrderController),
    "cached-natural-order": _kernel_run(CachedNaturalOrderController),
    "l2-streaming-w3": _kernel_run(L2StreamingController, prefetch_window=3),
    "random-q1": _random_run(1),
    "random-q4": _random_run(4),
}


def _case(controller: str, organization: str, refresh: bool) -> dict:
    return CONTROLLERS[controller](ORGANIZATIONS[organization](), refresh)


def _instrumented_natural_order() -> dict:
    obs = Instrumentation()
    controller = NaturalOrderController(MemorySystemConfig.pi(), refresh=True)
    result = controller.run(KERNELS["vaxpy"], length=LENGTH, obs=obs)
    return {
        "result": result.to_dict(),
        "counters": obs.counters.counters,
        "gaps": len(obs.gaps),
        "gaps_sha256": _digest([tuple(gap) for gap in obs.gaps]),
        "spans_sha256": _digest([
            (span.track, span.name, span.start, span.end, span.args)
            for span in obs.tracer.spans
        ]),
    }


CASES: Dict[str, Callable[[], dict]] = {
    f"{controller}/{organization}/{'refresh' if refresh else 'plain'}": (
        lambda c=controller, o=organization, r=refresh: _case(c, o, r)
    )
    for controller in CONTROLLERS
    for organization in ORGANIZATIONS
    for refresh in (False, True)
}
CASES["instrumented/natural-order/vaxpy/pi/refresh"] = (
    _instrumented_natural_order
)


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


class TestPinnedLineControllers:
    @pytest.mark.parametrize("key", sorted(CASES))
    def test_identical(self, pinned, key):
        assert _canonical(CASES[key]()) == _canonical(pinned[key])

    def test_fixture_covers_every_case(self, pinned):
        assert sorted(pinned) == sorted(CASES)

    def test_refresh_cases_refresh(self, pinned):
        for key, record in pinned.items():
            refreshes = record["result"]["refreshes"]
            assert (refreshes > 0) == key.endswith("/refresh"), key
