#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

Usage, from the repository root::

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are each a results file written by
``perfbench/run.py --out`` or a directory of them, one file per run.
For every (workload, end-to-end metric) pair the median and quartiles
of each side's runs are compared under the metric's bound from
``BENCHMARK.json``:

* ``worse``: the new median is worse than the base median by more
  than the bound;
* ``unresolved``: the spread (interquartile range over median) of
  either side is wider than the bound, and not every new run reads
  better than every base run;
* ``ok``: otherwise.

The exit status is 1 on any ``worse`` verdict, on a higher failed
fraction, or on an output digest that differs between the sides for
the same workload and seed; per-layer call counts that differ are
reported but do not fail (a change may legitimately move them).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Side:
    """Every run of one side, gathered by workload."""

    def __init__(self) -> None:
        self.values: Dict[Tuple[str, str], List[float]] = {}
        self.attempted: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}
        self.digests: Dict[Tuple[str, int], str] = {}
        self.counts: Dict[Tuple[str, int], Dict[str, int]] = {}

    def add(self, report: Dict[str, Any]) -> None:
        for name, result in report["workloads"].items():
            self.attempted[name] = self.attempted.get(name, 0) + result["attempted"]
            self.failed[name] = self.failed.get(name, 0) + result["failed"]
            key = (name, result["seed"])
            if result.get("digest"):
                self.digests.setdefault(key, result["digest"])
            if report["trace"]:
                self.counts.setdefault(key, result.get("counts", {}))
                continue
            for metric, entry in result["metrics"].items():
                self.values.setdefault((name, metric), []).append(entry["value"])


def load(path: str) -> Side:
    """Read a results file, or every ``*.json`` in a directory."""
    root = Path(path)
    files = sorted(root.glob("*.json")) if root.is_dir() else [root]
    side = Side()
    for file in files:
        with open(file, encoding="utf-8") as handle:
            report = json.load(handle)
        if report.get("schema") == "perfbench/1":
            side.add(report)
    if not side.attempted:
        raise ValueError(f"{path}: no perfbench results")
    return side


def spread(values: List[float]) -> Tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(
    base: List[float], new: List[float], better: str, bound: float
) -> Tuple[str, float]:
    """Classify one metric; also return the relative change (+ = worse)."""
    base_mid, base_q1, base_q3 = spread(base)
    new_mid, new_q1, new_q3 = spread(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (new_mid - base_mid) / base_mid if base_mid else 0.0
    widest = max(
        (base_q3 - base_q1) / base_mid if base_mid else 0.0,
        (new_q3 - new_q1) / new_mid if new_mid else 0.0,
    )
    if better == "lower":
        new_wins, base_wins = max(new) < min(base), max(base) < min(new)
    else:
        new_wins, base_wins = min(new) > max(base), min(base) > max(new)
    if widest > bound and not (new_wins or base_wins):
        return "unresolved", change
    return ("worse" if change > bound else "ok"), change


def compare(
    base: Side, new: Side, bench: Dict[str, Any]
) -> Tuple[List[Dict[str, Any]], List[str], List[str]]:
    """Per-metric verdict rows, failing problems, and notes."""
    rows: List[Dict[str, Any]] = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric in bench["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base.values or key not in new.values:
                continue
            result, change = verdict(
                base.values[key], new.values[key], metric["better"],
                metric["bound"],
            )
            rows.append({
                "workload": workload, "metric": metric["name"],
                "bound": metric["bound"], "verdict": result, "change": change,
                "base": spread(base.values[key]), "new": spread(new.values[key]),
                "runs": (len(base.values[key]), len(new.values[key])),
            })
    problems = [
        f"{row['workload']} {row['metric']}: worse by {row['change']:.1%} "
        f"(bound {row['bound']:.0%})"
        for row in rows if row["verdict"] == "worse"
    ]
    for workload in sorted(set(base.attempted) & set(new.attempted)):
        rates = [
            side.failed[workload] / max(side.attempted[workload], 1)
            for side in (base, new)
        ]
        if rates[1] > rates[0]:
            problems.append(
                f"{workload}: failed fraction {rates[1]:.3g} > base {rates[0]:.3g}"
            )
    for key in sorted(set(base.digests) & set(new.digests)):
        if base.digests[key] != new.digests[key]:
            problems.append(
                f"{key[0]} seed {key[1]}: output digest differs "
                f"({base.digests[key][:12]} vs {new.digests[key][:12]})"
            )
    notes = []
    for key in sorted(set(base.counts) & set(new.counts)):
        old, fresh = base.counts[key], new.counts[key]
        for name in sorted(set(old) | set(fresh)):
            if old.get(name) != fresh.get(name):
                notes.append(
                    f"{key[0]} seed {key[1]}: {name} calls per pass "
                    f"{old.get(name, 0)} -> {fresh.get(name, 0)}"
                )
    return rows, problems, notes


def format_row(row: Dict[str, Any]) -> str:
    cells = [
        f"{mid:.5g} [{q1:.5g}, {q3:.5g}] (n={n})"
        for (mid, q1, q3), n in zip((row["base"], row["new"]), row["runs"])
    ]
    return (
        f"{row['workload']:18s} {row['metric']:18s} {cells[0]:>36s} "
        f"{cells[1]:>36s} {row['change']:+8.1%}  {row['verdict']}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base", help="base results file or directory")
    parser.add_argument("new", help="new results file or directory")
    args = parser.parse_args(argv)
    try:
        with open(BENCHMARK, encoding="utf-8") as handle:
            bench = json.load(handle)
        base, new = load(args.base), load(args.new)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows, problems, notes = compare(base, new, bench)
    print(
        f"{'workload':18s} {'metric':18s} {'base median [q1, q3]':>36s} "
        f"{'new median [q1, q3]':>36s} {'change':>8s}  verdict"
    )
    for line in [format_row(row) for row in rows] + notes + problems:
        print(line)
    print("FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
