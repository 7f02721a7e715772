"""Command-line entry point regenerating every table and figure.

Run ``repro-experiments`` (installed console script) or
``python -m repro.experiments.cli``.  Experiments are resolved
through :mod:`repro.experiments.registry`; text renderings go to
stdout, ``--csv-dir`` additionally writes one CSV per experiment, and
``--workers``/``--cache`` install a sweep-execution context so the
simulation grids fan out across processes and reuse previously
simulated points (see :mod:`repro.exec`)::

    repro-experiments figure7 figure9 --workers 4 --cache ~/.cache/repro
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.exec import execution
from repro.exec.stats import SweepStats
from repro.experiments import rendering
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.rendering import ExperimentTable


def _chartable(slug: str) -> bool:
    """Sweep experiments whose columns are percentages to plot."""
    return slug.startswith(("figure7", "figure8", "figure9", "channel"))


def collect(names: Sequence[str]) -> List[Tuple[str, ExperimentTable]]:
    """Run the named experiments, returning (slug, table) pairs."""
    out: List[Tuple[str, ExperimentTable]] = []
    for name in names:
        try:
            experiment = EXPERIMENTS.resolve(name)
        except ConfigurationError as error:
            raise SystemExit(str(error)) from None
        out.extend(experiment.build())
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=list(EXPERIMENTS),
        help=f"subset to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--csv-dir",
        type=Path,
        default=None,
        help="also write one CSV per experiment into this directory",
    )
    parser.add_argument(
        "--report",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the markdown reproduction report to FILE",
    )
    parser.add_argument(
        "--charts",
        action="store_true",
        help="additionally render sweep experiments as text charts",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan simulation grids out over N worker processes",
    )
    parser.add_argument(
        "--cache",
        type=Path,
        default=None,
        metavar="DIR",
        help="content-addressed result cache directory; previously "
             "simulated points are reused instead of re-run",
    )
    parser.add_argument(
        "--ledger",
        type=Path,
        default=None,
        metavar="FILE",
        help="append one JSONL event per sweep-point lifecycle "
             "transition to FILE (render with repro-obs report)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress live per-point progress on stderr (implied "
             "when stderr is not a terminal or CI is set); the "
             "end-of-run summary still prints",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the registered experiments and exit",
    )
    parser.add_argument(
        "--list-policies",
        action="store_true",
        help="list registered address mappings, page policies, MSU "
             "scheduling policies and traffic schedulers, then exit",
    )
    parser.add_argument(
        "--interleaving",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict the policy_matrix sweep to this registered "
             "address mapping (repeatable)",
    )
    parser.add_argument(
        "--page-policy",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict the policy_matrix sweep to this registered "
             "page-management policy (repeatable)",
    )
    args = parser.parse_args(argv)
    if args.list_policies:
        from repro.sim.cli import list_policies

        sys.stdout.write(list_policies() + "\n")
        return 0
    if args.list:
        for experiment in EXPERIMENTS.values():
            sys.stdout.write(
                f"{experiment.name:14s} {experiment.description}\n"
            )
        return 0
    if args.interleaving or args.page_policy:
        from repro.experiments import policy_matrix
        from repro.memsys.address import MAPPINGS
        from repro.memsys.pagemanager import PAGE_POLICIES

        try:
            policy_matrix.configure(
                mappings=(
                    [MAPPINGS.resolve(n.lower()).name
                     for n in args.interleaving]
                    if args.interleaving else None
                ),
                page_policies=(
                    [PAGE_POLICIES.resolve(n.lower()).name
                     for n in args.page_policy]
                    if args.page_policy else None
                ),
            )
        except ConfigurationError as error:
            raise SystemExit(str(error)) from None
    started = time.time()
    live = (
        sys.stderr.isatty()
        and not args.quiet
        and not os.environ.get("CI")
    )
    stats = SweepStats(stream=sys.stderr if live else None)
    with execution(
        workers=args.workers, cache=args.cache, stats=stats,
        ledger=args.ledger,
    ):
        results = collect(args.experiments or list(EXPERIMENTS))
        for slug, table in results:
            sys.stdout.write(table.render())
            sys.stdout.write("\n")
            if args.charts and _chartable(slug):
                sys.stdout.write(rendering.render_chart(table))
                sys.stdout.write("\n")
            if args.csv_dir:
                args.csv_dir.mkdir(parents=True, exist_ok=True)
                (args.csv_dir / f"{slug}.csv").write_text(table.to_csv())
        if args.report:
            from repro.experiments.report import generate_report

            args.report.parent.mkdir(parents=True, exist_ok=True)
            args.report.write_text(generate_report())
            sys.stdout.write(f"wrote reproduction report to {args.report}\n")
    sys.stdout.write(
        f"ran {len(results)} tables in {time.time() - started:.1f}s\n"
    )
    if stats.specs > 0:
        sys.stdout.write(stats.summary() + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
