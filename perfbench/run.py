#!/usr/bin/env python3
"""Run the simulator benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
        [--trace 0|1] [--out FILE]

Each workload runs in fresh interpreters, one after another: with
``--trace 0``, five set-up probes (``setup_s`` is their median) and
one measured run that prints the end-to-end metrics; with
``--trace 1``, one run that measures half its time untraced and half
traced and prints the per-layer metrics.  Every metric is printed as
``name value unit``; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The full
results, including quartiles, sample counts, output digests and (when
traced) the per-layer table, go to ``--out`` (default
``.perfbench/results.json``), and spans to ``spans-<workload>.jsonl``
beside it.

Exit status is 0 when every workload produced its metrics (correct or
not, as the JSON says) and 1 when a run could not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from harness import summary

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
EXPECTED_DIGESTS = HERE / "expected_digests.json"
SETUP_PROBES = 5
#: Wall-clock limit for one child interpreter.
CHILD_TIMEOUT_S = 160


class BenchError(Exception):
    """A child run failed; the message says which and why."""


def load_json(path: Path) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def child(args: List[str], root: Path) -> Dict[str, Any]:
    """Run ``harness.py`` with ``args``; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    command = [sys.executable, str(HERE / "harness.py"), *args]
    try:
        done = subprocess.run(
            command, cwd=root, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args)}: timed out") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"{' '.join(args)}: exit {done.returncode}\n{done.stderr.strip()}"
        )
    return json.loads(lines[-1])


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, root: Path, out_dir: Path
) -> Dict[str, Any]:
    """Set-up probes plus one measured (or traced) run of a workload."""
    scratch = out_dir / "work"
    scratch.mkdir(parents=True, exist_ok=True)
    base = ["--workload", name, "--seed", str(seed), "--scratch", str(scratch)]
    if trace:
        spans = out_dir / f"spans-{name}.jsonl"
        result = child(
            base + ["--mode", "trace", "--seconds", str(seconds),
                    "--spans", str(spans)],
            root,
        )
        result["spans_file"] = str(spans)
        return result
    setups = [
        child(base + ["--mode", "setup"], root)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    result = child(base + ["--mode", "measure", "--seconds", str(seconds)], root)
    result.setdefault("metrics", {})["setup_s"] = summary(setups)
    return result


def check_digest(result: Dict[str, Any], expected: Dict[str, Dict[str, str]]) -> None:
    """Compare a run's output digest with the pinned one for its seed."""
    pinned = expected.get(result["workload"], {}).get(str(result["seed"]))
    result["digest_expected"] = pinned
    if pinned is not None and result["digest"] != pinned:
        result["failed"] += 1
        result["errors"].append(
            f"output digest {result['digest']} != pinned {pinned}"
        )


def add_units(result: Dict[str, Any], declared: List[Dict[str, Any]]) -> None:
    """Give each declared metric of a result its unit from
    ``BENCHMARK.json``."""
    for metric in declared:
        result["metrics"][metric["name"]]["unit"] = metric["unit"]


def report_lines(
    name: str, result: Dict[str, Any], declared: List[Dict[str, Any]]
) -> List[str]:
    """``name value unit`` for every declared metric, then the
    workload's ungated phase figures and failures."""
    lines = [
        f"== {name} (seed {result['seed']}, {result['passes']} passes, "
        f"digest {result['digest']})"
    ]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        lines.append(f"{metric['name']} {entry['value']:.6g} {entry['unit']}")
    for key, entry in result.get("detail", {}).items():
        lines.append(f"  ({key} {entry['value']:.6g} {entry['unit']}, not gated)")
    for message in result.get("errors", []):
        lines.append(f"  failed: {message.strip().splitlines()[-1]}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    bench = load_json(BENCHMARK)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench/results.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("error: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 1
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    expected = load_json(EXPECTED_DIGESTS)
    selected = names if args.workload == "all" else [args.workload]

    results: Dict[str, Any] = {}
    for name in selected:
        try:
            result = run_workload(
                name, args.seed, args.seconds, bool(args.trace), root, out.parent
            )
        except BenchError as error:
            print(f"error: {name}: {error}", file=sys.stderr)
            return 1
        check_digest(result, expected)
        missing = [m["name"] for m in declared if m["name"] not in result.get("metrics", {})]
        if missing:
            print(f"error: {name}: no value for {', '.join(missing)}",
                  file=sys.stderr)
            for message in result.get("errors", []):
                print(message, file=sys.stderr)
            return 1
        add_units(result, declared)
        results[name] = result
        print("\n".join(report_lines(name, result, declared)))

    with open(out, "w", encoding="utf-8") as handle:
        json.dump({
            "schema": "perfbench/1",
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "workloads": results,
        }, handle, indent=1, sort_keys=True)
        handle.write("\n")

    prefix = len(results) > 1
    metrics = {
        (f"{name}/" if prefix else "") + metric["name"]: {
            "value": result["metrics"][metric["name"]]["value"],
            "unit": result["metrics"][metric["name"]]["unit"],
        }
        for name, result in results.items()
        for metric in declared
    }
    failed = sum(result["failed"] for result in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
