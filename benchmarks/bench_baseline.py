#!/usr/bin/env python
"""Produce ``BENCH_core.json``: simulator throughput per controller.

Runs a small kernel x controller matrix end-to-end and records
best-of-N wall-clock and simulated cycles per second for each point.
The SMC is measured on both loops, the discrete-event kernel
(``engine=event``) and the vectorized batch loop (``engine=batch``),
on the paper's one-device system (topology ``1x1``) and on 2 channels
x 2 devices (``2x2``).  Each line controller is measured once, on the
one loop it has, the event kernel (``engine=event``).  Each point
records which loop and topology produced it so ``bench_compare.py``
never diffs one against another.
CI runs this after the pytest-benchmark suites and uploads the JSON as
a PR artifact so the cost of the simulation substrate is tracked over
time.

Usage::

    PYTHONPATH=src python benchmarks/bench_baseline.py [--output PATH]
        [--repeats N] [--length N]
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from typing import Callable, Dict, List, Tuple

from repro.cache.controller import CachedNaturalOrderController
from repro.core.l2stream import L2StreamingController
from repro.core.smc import build_smc_system
from repro.cpu.kernels import KERNELS
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.naturalorder.controller import NaturalOrderController
from repro.naturalorder.random_driver import RandomAccessDriver
from repro.sim.batch import run_smc_batch
from repro.sim.engine import run_smc

BENCH_KERNELS = ("copy", "daxpy", "vaxpy")


def _git_sha() -> str:
    """HEAD commit of the working tree, or 'unknown' outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


#: One controller on one topology: (controller name, topology
#: ``"<channels>x<devices>"``, the loops it is measured on,
#: callable(kernel, org, engine) -> result).
Controller = Tuple[
    str, str, Tuple[str, ...], Callable[[str, str, str], object]
]

#: Both SMC loops; a line controller runs on the event kernel only.
SMC_LOOPS = ("event", "batch")
LINE_LOOP = ("event",)


def _controllers(length: int) -> List[Controller]:
    """Every measured (controller, topology) pair."""

    def smc_on(topology: str) -> Callable[[str, str, str], object]:
        channels, devices = (int(n) for n in topology.split("x"))

        def smc(kernel: str, org: str, engine: str):
            config = getattr(MemorySystemConfig, org)(
                topology=MemoryTopology(channels, devices)
            )
            if engine == "batch":
                return run_smc_batch(
                    KERNELS[kernel], config, length=length, fifo_depth=64
                )
            system = build_smc_system(
                KERNELS[kernel], config, length=length, fifo_depth=64
            )
            return run_smc(system)

        return smc

    def natural(kernel: str, org: str, engine: str):
        controller = NaturalOrderController(getattr(MemorySystemConfig, org)())
        return controller.run(KERNELS[kernel], length=length)

    def cached(kernel: str, org: str, engine: str):
        controller = CachedNaturalOrderController(
            getattr(MemorySystemConfig, org)()
        )
        return controller.run(KERNELS[kernel], length=length)

    def l2stream(kernel: str, org: str, engine: str):
        controller = L2StreamingController(getattr(MemorySystemConfig, org)())
        return controller.run(KERNELS[kernel], length=length)

    def random(kernel: str, org: str, engine: str):
        driver = RandomAccessDriver(getattr(MemorySystemConfig, org)())
        return driver.run(length, seed=7)

    return [
        ("smc", "1x1", SMC_LOOPS, smc_on("1x1")),
        ("smc", "2x2", SMC_LOOPS, smc_on("2x2")),
        ("natural-order", "1x1", LINE_LOOP, natural),
        ("cached-natural-order", "1x1", LINE_LOOP, cached),
        ("l2-streaming", "1x1", LINE_LOOP, l2stream),
        ("random-access", "1x1", LINE_LOOP, random),
    ]


def bench_point(
    run: Callable[[str, str, str], object],
    kernel: str,
    org: str,
    engine: str,
    repeats: int,
) -> Dict[str, object]:
    best = float("inf")
    cycles = 0
    for _ in range(repeats):
        start = time.perf_counter()
        result = run(kernel, org, engine)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        cycles = result.cycles
    return {
        "kernel": kernel,
        "organization": org,
        "engine": engine,
        "repeats": repeats,
        "wall_ms": round(best * 1e3, 3),
        "simulated_cycles": cycles,
        "cycles_per_second": round(cycles / best) if best > 0 else None,
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_core.json")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--length", type=int, default=1024)
    args = parser.parse_args(argv)

    results = []
    for name, topology, loops, run in _controllers(args.length):
        for kernel in BENCH_KERNELS:
            for org in ("cli", "pi"):
                for engine in loops:
                    point = bench_point(
                        run, kernel, org, engine, args.repeats
                    )
                    point["controller"] = name
                    point["topology"] = topology
                    results.append(point)
                    print(
                        f"{name:22s} {kernel:8s} {org:4s} {engine:6s} "
                        f"{topology:5s} {point['wall_ms']:9.3f} ms  "
                        f"{point['cycles_per_second']:>10,} cyc/s"
                    )

    report = {
        "schema": "bench-core/3",
        "length": args.length,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "generated_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "results": results,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(results)} points to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
