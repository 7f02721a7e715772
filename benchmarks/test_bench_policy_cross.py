"""Ablation: interleave x page-policy cross pairings.

The paper evaluates the two diagonal design points — CLI with a
closed-page policy and PI with an open-page policy ("they represent
two extreme points of the design space").  This bench fills in the
off-diagonal pairings to show the diagonals are the sensible ones.
"""

from __future__ import annotations

import pytest

from repro.memsys.config import MemorySystemConfig
from repro.sim.runner import RunSpec, simulate

PAIRINGS = {
    f"{mapping}-{policy}": MemorySystemConfig(
        interleaving=mapping, page_policy=policy
    )
    for mapping in ("cli", "pi")
    for policy in ("closed", "open")
}


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_interleave_page_policy_cross(benchmark, pairing):
    result = benchmark.pedantic(
        simulate,
        args=(RunSpec("daxpy", PAIRINGS[pairing], length=1024, fifo_depth=64),),
        rounds=1,
        iterations=1,
    )
    assert result.percent_of_peak > 30


def test_pi_closed_wastes_page_locality(benchmark):
    """Precharging after every burst on a page-interleaved system
    forfeits the open-page hits that make PI attractive for streams."""

    def compare():
        open_page = simulate(RunSpec(
            "daxpy", PAIRINGS["pi-open"], length=1024, fifo_depth=64
        ))
        closed_page = simulate(RunSpec(
            "daxpy", PAIRINGS["pi-closed"], length=1024, fifo_depth=64
        ))
        return open_page, closed_page

    open_page, closed_page = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert open_page.activations < closed_page.activations
