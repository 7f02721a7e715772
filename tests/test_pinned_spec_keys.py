"""Pinned canonical keys of the specs the benchmark and the search build.

The result cache hashes :meth:`~repro.sim.runner.RunSpec.canonical_key`,
so a key that changes for the same work turns every stored result of
that work into a miss.  ``tests/data/pinned_spec_keys.json`` holds the
keys of:

grid
    the paper's 32-point closed-loop grid (copy, daxpy, vaxpy, hydro x
    cli, pi x lengths 1024, 8192 x FIFO 32, 128), as the benchmark's
    sweep builds it;
smc-2x2
    daxpy and vaxpy at length 4096 on two channels of two devices, on
    the cli default and under ``interleaving="dream"``;
search-seed-1, search-seed-7
    every closed-loop spec :func:`~repro.search.run_search` evaluates
    under the default :class:`~repro.search.SearchConfig` at that
    seed, in evaluation order;
spellings/*
    one spec per way of naming a memory that keeps its key: a name in
    upper case, a name plus overrides, overrides that reach a design
    point, configs one policy away from one, configs with knobs that
    have no override field, a multi-device channel geometry, a
    topology on the config and in the spec fields, longer lines, and
    the other spec fields.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Union

import pytest

from repro.cpu.kernels import KERNELS
from repro.cpu.streams import Alignment
from repro.core.policies import BankAwarePolicy
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.rdram.channel import ChannelGeometry
from repro.search import SearchConfig, run_search
from repro.sim.runner import RunSpec

FIXTURE = Path(__file__).parent / "data" / "pinned_spec_keys.json"

GRID = [
    RunSpec(kernel=kernel, organization=org, length=length, fifo_depth=fifo)
    for kernel in ("copy", "daxpy", "vaxpy", "hydro")
    for org in ("cli", "pi")
    for length in (1024, 8192)
    for fifo in (32, 128)
]

SMC_2X2 = [
    RunSpec(
        kernel, "cli", length=4096, channels=2, devices=2,
        interleaving=interleaving,
    )
    for kernel in ("daxpy", "vaxpy")
    for interleaving in (None, "dream")
]


def _search_keys(seed: int) -> List[str]:
    result = run_search(SearchConfig(seed=seed))
    return [
        key
        for generation in result.generations
        for entry in generation.ranking
        for key in entry.spec_keys
    ]


SPELLINGS: Dict[str, Callable[[], RunSpec]] = {
    "name-upper-case": lambda: RunSpec("daxpy", "PI"),
    "name-redundant-override": lambda: RunSpec(
        "daxpy", "pi", page_policy="open"
    ),
    "cli-plus-overrides": lambda: RunSpec(
        "daxpy", "cli", interleaving="swizzle", page_policy="hybrid"
    ),
    "cli-plus-one-override": lambda: RunSpec(
        "daxpy", "cli", page_policy="timeout"
    ),
    "overrides-collapse-to-pi": lambda: RunSpec(
        "daxpy", "cli", interleaving="pi", page_policy="open"
    ),
    "config-equal-to-pi": lambda: RunSpec("daxpy", MemorySystemConfig.pi()),
    "config-one-policy-from-cli": lambda: RunSpec(
        "daxpy", MemorySystemConfig.cli(page_policy="timeout")
    ),
    "config-one-policy-from-pi": lambda: RunSpec(
        "daxpy", MemorySystemConfig.pi(page_policy="closed")
    ),
    "config-dream-default-epoch": lambda: RunSpec(
        "daxpy", MemorySystemConfig.pi(interleaving="dream")
    ),
    "config-custom-timeout": lambda: RunSpec(
        "daxpy",
        MemorySystemConfig.cli(page_policy="timeout", page_timeout_cycles=128),
    ),
    "config-custom-epoch": lambda: RunSpec(
        "daxpy",
        MemorySystemConfig.pi(interleaving="dream", remap_epoch_accesses=256),
    ),
    "channel-geometry": lambda: RunSpec(
        "daxpy", MemorySystemConfig.cli(geometry=ChannelGeometry(num_devices=2))
    ),
    "config-topology": lambda: RunSpec(
        "daxpy", MemorySystemConfig.pi(topology=MemoryTopology(2, 2))
    ),
    "fields-topology": lambda: RunSpec("daxpy", "pi", channels=2, devices=2),
    "64-byte-lines": lambda: RunSpec(
        "daxpy", MemorySystemConfig.cli(cacheline_bytes=64)
    ),
    "kernel-object": lambda: RunSpec(KERNELS["vaxpy"], "cli"),
    "other-fields": lambda: RunSpec(
        "copy", "pi", length=256, fifo_depth=16, stride=4,
        alignment=Alignment.ALIGNED, policy=BankAwarePolicy(),
        audit=True, refresh=True, telemetry_window=64,
    ),
}

CASES: Dict[str, Callable[[], Union[str, List[str]]]] = {
    "grid": lambda: [spec.canonical_key() for spec in GRID],
    "smc-2x2": lambda: [spec.canonical_key() for spec in SMC_2X2],
    "search-seed-1": lambda: _search_keys(1),
    "search-seed-7": lambda: _search_keys(7),
    **{
        f"spellings/{name}": (lambda build=build: build().canonical_key())
        for name, build in SPELLINGS.items()
    },
}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


class TestPinnedSpecKeys:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_identical(self, pinned, case):
        assert CASES[case]() == pinned[case]

    def test_fixture_covers_every_case(self, pinned):
        assert sorted(pinned) == sorted(CASES)

    def test_both_topology_spellings_share_a_key(self, pinned):
        assert (
            pinned["spellings/config-topology"]
            == pinned["spellings/fields-topology"]
        )
