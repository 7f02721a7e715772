"""Policy matrix: every address mapping crossed with every page policy.

The paper fixes two pairings — cacheline interleaving with the
closed-page policy and page interleaving with open-page — and argues
each choice from the stream access pattern (Section 5).  The pluggable
policy layer makes the full cross product cheap to measure, so this
experiment runs every registered address mapping against every
registered page-management policy over the four paper kernels, for
both the SMC and the natural-order baseline.

The matrix puts the paper's pairings in context: CLI wants closed
pages because consecutive lines leave the bank forever, PI wants open
pages because they return, and the adaptive policies (timeout, hybrid)
approach the better static choice under either mapping without being
told which pattern they face.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cpu.kernels import PAPER_KERNELS, get_kernel
from repro.exec.pool import run_specs
from repro.experiments.rendering import ExperimentTable
from repro.memsys.address import MAPPINGS
from repro.memsys.pagemanager import PAGE_POLICIES
from repro.naturalorder.controller import NaturalOrderController
from repro.sim.runner import RunSpec, apply_policy_overrides, resolve_config

LENGTH = 128
FIFO_DEPTH = 32

#: Module-level filters the experiments CLI sets; None means "all
#: registered" at run time, so out-of-tree registrations show up.
_mapping_filter: Optional[Tuple[str, ...]] = None
_policy_filter: Optional[Tuple[str, ...]] = None


def configure(
    mappings: Optional[Sequence[str]] = None,
    page_policies: Optional[Sequence[str]] = None,
) -> None:
    """Restrict the matrix to a subset of registry names.

    Used by ``repro-experiments --interleaving/--page-policy``; pass
    None to restore the full registry sweep.
    """
    global _mapping_filter, _policy_filter
    _mapping_filter = tuple(mappings) if mappings is not None else None
    _policy_filter = tuple(page_policies) if page_policies is not None else None


def run(
    kernels: Sequence[str] = tuple(sorted(PAPER_KERNELS)),
    length: int = LENGTH,
    fifo_depth: int = FIFO_DEPTH,
) -> List[ExperimentTable]:
    """Measure % of peak for every mapping x page-policy pairing.

    Returns:
        Two tables: SMC results, then the natural-order baseline.
    """
    mappings = list(_mapping_filter or MAPPINGS.names())
    policies = list(_policy_filter or PAGE_POLICIES.names())
    grid = [
        (kernel, policy) for kernel in kernels for policy in policies
    ]

    specs = [
        RunSpec(
            kernel=kernel,
            organization="cli",
            length=length,
            fifo_depth=fifo_depth,
            interleaving=mapping,
            page_policy=policy,
        )
        for kernel, policy in grid
        for mapping in mappings
    ]
    simulated = iter(run_specs(specs))
    smc = ExperimentTable(
        title=(
            "Policy matrix — SMC % of peak, address mapping x page "
            f"policy (L={length}, f={fifo_depth})"
        ),
        headers=("kernel", "page policy") + tuple(mappings),
    )
    for kernel, policy in grid:
        row = [kernel, policy]
        row.extend(next(simulated).percent_of_peak for _ in mappings)
        smc.add_row(*row)
    smc.notes.append(
        "The paper's pairings are cli+closed and pi+open; the adaptive "
        "policies (timeout, hybrid) track the better static choice "
        "under each mapping."
    )

    natural = ExperimentTable(
        title=(
            "Policy matrix — natural-order % of peak, address mapping "
            f"x page policy (L={length})"
        ),
        headers=("kernel", "page policy") + tuple(mappings),
    )
    base = resolve_config("cli")
    for kernel, policy in grid:
        row = [kernel, policy]
        for mapping in mappings:
            config = apply_policy_overrides(
                base, interleaving=mapping, page_policy=policy
            )
            result = NaturalOrderController(config).run(
                get_kernel(kernel), length=length
            )
            row.append(result.percent_of_peak)
        natural.add_row(*row)
    natural.notes.append(
        "Natural-order runs are serial (no RunSpec path); the same "
        "device model and policy objects as the SMC rows."
    )
    return [smc, natural]
