"""Pinned output of the fast-page-mode model (Section 3).

``tests/data/pinned_fpm.json`` was captured while :func:`run_fpm`
still stepped its serial memory through the simulation kernel, one
access per kernel cycle, before it became a plain loop over the
address sequence.  The other FPM tests check only relations between
runs; these pin every field of every run of the four paper kernels,
under both schemes and both placements, at length 1024 and FIFO depth
64.

Every comparison is on canonical JSON text, so a float that changed
in its last digit, or an int that turned into a float, fails.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.cpu.kernels import PAPER_KERNELS
from repro.cpu.streams import Alignment
from repro.fpm.smc import run_fpm

FIXTURE = Path(__file__).parent / "data" / "pinned_fpm.json"


def _case(kernel: str, scheme: str, alignment: Alignment) -> dict:
    return dataclasses.asdict(
        run_fpm(
            PAPER_KERNELS[kernel],
            scheme,
            length=1024,
            fifo_depth=64,
            alignment=alignment,
        )
    )


CASES: Dict[str, Callable[[], dict]] = {
    f"{kernel}/{scheme}/{alignment.value}": (
        lambda k=kernel, s=scheme, a=alignment: _case(k, s, a)
    )
    for kernel in PAPER_KERNELS
    for scheme in ("natural-order", "smc")
    for alignment in (Alignment.ALIGNED, Alignment.STAGGERED)
}


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


class TestPinnedFpm:
    @pytest.mark.parametrize("key", sorted(CASES))
    def test_identical(self, pinned, key):
        assert _canonical(CASES[key]()) == _canonical(pinned[key])

    def test_fixture_covers_every_case(self, pinned):
        assert sorted(pinned) == sorted(CASES)
