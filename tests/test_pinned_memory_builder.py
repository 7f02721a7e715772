"""Pinned output of SMC runs on every memory topology, and of gathers.

``tests/data/pinned_memory_builder.json`` was captured before one
builder, :func:`repro.rdram.channel.make_memory`, became the only place
a config turns into a device, channel or fabric, and before the
fabric's refresh aggregator gave way to one refresh engine per
channel.  It pins:

simulate
    ``simulate(RunSpec(...)).to_dict()`` for daxpy and vaxpy at length
    1024 on CLI and PI, over 2x1, 2x2, 4x1, 1x2 and 1x4 channels x
    devices, the organization's own mapping or ``dream`` or
    ``swizzle``, its own page policy or ``timeout`` or ``hybrid``,
    with refresh off and on.
gather
    ``simulate_gather(...).to_dict()`` on CLI (closed pages) and PI
    (open pages) with 1024 random indices, sorted and unsorted.

The 40 ``.../timeout/refresh`` entries were re-captured when the
refresh engine began applying page-manager closes that are due before
it reads which banks are open; nothing else moved.

The entries were captured from event-kernel runs.  The 80 with a
static mapping (the organization's own or ``swizzle``) and the
organization's own page policy now run on the batch loop, which
``simulate`` picks for them, and still match; the rest stay on the
event kernel.

Every comparison is on canonical JSON text, so an int that turned
into a float (or the reverse) fails even though the two compare equal
in Python.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import pytest

from repro import RunSpec, simulate, simulate_gather
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.sim.batch import batch_unsupported_reason

FIXTURE = Path(__file__).parent / "data" / "pinned_memory_builder.json"

LENGTH = 1024
TOPOLOGIES: Tuple[Tuple[int, int], ...] = ((2, 1), (2, 2), (4, 1), (1, 2), (1, 4))
MAPPINGS: Tuple[Optional[str], ...] = (None, "dream", "swizzle")
PAGE_POLICIES: Tuple[Optional[str], ...] = (None, "timeout", "hybrid")


def _simulate_case(
    kernel: str,
    organization: str,
    topology: Tuple[int, int],
    interleaving: Optional[str],
    page_policy: Optional[str],
    refresh: bool,
) -> dict:
    channels, devices = topology
    return simulate(
        RunSpec(
            kernel,
            organization,
            length=LENGTH,
            channels=channels,
            devices=devices,
            interleaving=interleaving,
            page_policy=page_policy,
            refresh=refresh,
        )
    ).to_dict()


def _gather_indices(ordered: bool) -> list:
    rng = random.Random(3)
    indices = [rng.randrange(8192) for __ in range(LENGTH)]
    return sorted(indices) if ordered else indices


def _gather_case(organization: str, ordered: bool) -> dict:
    config = getattr(MemorySystemConfig, organization)()
    return simulate_gather(
        _gather_indices(ordered), config, fifo_depth=64
    ).to_dict()


CASES: Dict[str, Callable[[], dict]] = {
    (
        f"simulate/{kernel}/{organization}/{channels}x{devices}/"
        f"{interleaving or 'default'}/{page_policy or 'default'}/"
        f"{'refresh' if refresh else 'plain'}"
    ): (
        lambda k=kernel, o=organization, t=(channels, devices),
        i=interleaving, p=page_policy, r=refresh:
        _simulate_case(k, o, t, i, p, r)
    )
    for kernel in ("daxpy", "vaxpy")
    for organization in ("cli", "pi")
    for channels, devices in TOPOLOGIES
    for interleaving in MAPPINGS
    for page_policy in PAGE_POLICIES
    for refresh in (False, True)
}
CASES.update(
    {
        f"gather/{organization}/{'sorted' if ordered else 'unsorted'}": (
            lambda o=organization, s=ordered: _gather_case(o, s)
        )
        for organization in ("cli", "pi")
        for ordered in (True, False)
    }
)


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


class TestPinnedMemoryBuilder:
    @pytest.mark.parametrize("key", sorted(CASES))
    def test_identical(self, pinned, key):
        assert _canonical(CASES[key]()) == _canonical(pinned[key])

    def test_fixture_covers_every_case(self, pinned):
        assert sorted(pinned) == sorted(CASES)

    def test_static_default_policy_cases_take_the_batch_engine(self):
        on_batch = []
        for key in CASES:
            if not key.startswith("simulate/"):
                continue
            _, _, organization, topology, interleaving, policy, _ = (
                key.split("/")
            )
            channels, devices = map(int, topology.split("x"))
            overrides = {
                name: value
                for name, value in (
                    ("interleaving", interleaving), ("page_policy", policy)
                )
                if value != "default"
            }
            config = getattr(MemorySystemConfig, organization)(
                topology=MemoryTopology(channels, devices), **overrides
            )
            if batch_unsupported_reason(config) is None:
                on_batch.append((interleaving, policy))
        assert len(on_batch) == 80
        assert set(on_batch) == {("default", "default"), ("swizzle", "default")}

    def test_refresh_cases_refresh(self, pinned):
        for key, record in pinned.items():
            if key.startswith("simulate/"):
                assert (record["refreshes"] > 0) == key.endswith(
                    "/refresh"
                ), key
