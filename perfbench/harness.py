"""One workload in one fresh interpreter: set-up, measured or traced.

Run by ``run.py``, never imported by the library::

    python3 perfbench/harness.py --workload NAME --seed N --mode MODE \
        --seconds S --scratch DIR [--spans FILE]

Modes:

* ``setup``: import the library, build the workload and make one
  warm-up call; print the seconds that took, scaled to the reference
  host by one reference-loop run right after.
* ``measure``: the same set-up untimed, then passes until ``S`` seconds
  have elapsed and the workload's ``min_passes`` are done; print the
  end-to-end metrics.
* ``trace``: half the time untraced, half traced; print the per-layer
  metrics and write the first traced pass's spans to ``--spans``.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

from hostspeed import REFERENCE_S, reference_seconds  # noqa: E402
from tracing import Tracer, layer_of  # noqa: E402

MODES = ("setup", "measure", "trace")


def digest(outputs: List[Any]) -> str:
    """sha256 of the canonical JSON of a pass's outputs."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Run:
    """Every pass of one measured or traced stretch."""

    records: List[Any] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    counts: List[Dict[str, int]] = field(default_factory=list)
    #: Per recorded pass: its ``(configuration, seconds)`` latency
    #: samples, host-scaled.
    samples: List[List[Tuple[str, float]]] = field(default_factory=list)
    #: Per call: mean reference-loop time around it over REFERENCE_S
    #: (above 1 when the host ran slow).
    host_factors: List[float] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class Loop:
    """The closed loop passes run in: makes each public call, times it
    and scales the time to the reference host.

    The reference loop of :mod:`hostspeed` is timed between calls; a
    call's host factor is the mean of the reference times just before
    and just after it over ``REFERENCE_S``, and the call's seconds (and
    those of its :meth:`mark` samples) are divided by it.  With a
    tracer, each call is a root span.
    """

    def __init__(self, run: Run, tracer: Optional[Tracer] = None) -> None:
        self.run = run
        self.tracer = tracer
        #: This pass's latency samples; the harness resets it per pass.
        self.samples: List[Tuple[str, float]] = []
        #: Real seconds spent timing the reference loop.
        self.reference_s = 0.0
        self._reference: Optional[float] = None
        self._marks: List[Tuple[str, float]] = []
        self._last = 0.0

    def _time_reference(self) -> float:
        seconds = reference_seconds()
        self.reference_s += seconds
        return seconds

    def mark(self, label: str) -> None:
        """Inside a call: one latency sample, from the call's start or
        the previous mark to now."""
        now = time.perf_counter()
        self._marks.append((label, now - self._last))
        self._last = now

    def call(self, label: str, fn, sample: bool = True):
        """Run ``fn()``; return its result and scaled seconds.

        The call is one latency sample unless ``sample`` is False
        (calls that take their samples with :meth:`mark`).
        """
        self.run.attempted += 1
        if self._reference is None:
            self._reference = self._time_reference()
        self._marks = []
        tracer = self.tracer
        with tracer.root(label) if tracer is not None else nullcontext():
            start = self._last = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - start
        before, self._reference = self._reference, self._time_reference()
        factor = (before + self._reference) / (2 * REFERENCE_S)
        self.run.host_factors.append(factor)
        if sample:
            self._marks.append((label, seconds))
        self.samples += [(name, s / factor) for name, s in self._marks]
        return result, seconds / factor


def run_passes(
    workload, seconds: float, min_passes: int, tracer=None
) -> Run:
    """Repeat passes until ``seconds`` elapsed and ``min_passes`` done.

    An exception in a call fails that pass and the loop goes on;
    outputs that differ from the first pass's are a failed check.
    ``walls`` holds each pass's real seconds, reference runs excluded.
    With a tracer, the first pass keeps its full spans and each
    pass's call counts are recorded.
    """
    run = Run()
    loop = Loop(run, tracer)
    deadline = time.perf_counter() + seconds
    while len(run.walls) < min_passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.keep_spans = not run.walls
            before = tracer.counts()
        start, reference_s = time.perf_counter(), loop.reference_s
        loop.samples = []
        try:
            record = workload.run_pass(loop)
        except Exception:
            run.fail(traceback.format_exc(limit=3))
            record = None
        run.walls.append(
            time.perf_counter() - start - (loop.reference_s - reference_s)
        )
        if record is None:
            continue
        if tracer is not None:
            after = tracer.counts()
            run.counts.append(
                {name: n - before.get(name, 0) for name, n in after.items()}
            )
        for message in record.failures:
            run.fail(message)
        run.digests.append(digest(record.outputs))
        if run.digests[-1] != run.digests[0]:
            run.fail("outputs differ from the first pass's")
        # Keep the timings only: holding every pass's outputs would
        # make peak memory grow with the number of passes.
        record.outputs = []
        run.records.append(record)
        run.samples.append(loop.samples)
    if tracer is not None:
        tracer.keep_spans = False
    if len(set(map(_frozen, run.counts))) > 1:
        run.fail("per-layer call counts differ between passes")
    return run


def _frozen(counts: Dict[str, int]) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted(counts.items()))


def quantile(values: List[float], pct: float) -> float:
    """The ``pct``-th percentile, interpolated between closest ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values: List[float]) -> Dict[str, Any]:
    """Median with quartiles and sample count."""
    return {
        "value": statistics.median(values),
        "q1": quantile(values, 25),
        "q3": quantile(values, 75),
        "n": len(values),
    }


def end_to_end(workload, run: Run) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one measured stretch (tracing off),
    without units (``run.py`` adds the declared ones).

    Times are host-scaled (see :class:`Loop`).  ``call_p50_ms`` is the
    median over call configurations of each configuration's median
    latency: a workload mixes configurations whose latencies form
    separate clusters, and a median pooled over all samples would fall
    in the gap between two of them.  ``call_tail_ms`` pools every
    sample.
    """
    by_config: Dict[str, List[float]] = {}
    for samples in run.samples:
        for label, seconds in samples:
            by_config.setdefault(label, []).append(seconds * 1e3)
    pooled = [v for values in by_config.values() for v in values]
    tail = workload.tail_pct
    tail_ms = quantile(pooled, tail)
    return {
        "data_packets_per_s": summary(
            [r.sim_packets / r.sim_seconds for r in run.records]
        ),
        "call_p50_ms": summary(
            [statistics.median(v) for v in by_config.values()]
        ),
        "call_tail_ms": {
            "value": tail_ms,
            "percentile": tail,
            "n": len(pooled),
            "beyond": sum(1 for v in pooled if v > tail_ms),
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


def details(run: Run) -> Dict[str, Dict[str, Any]]:
    """Workload-specific phase figures: medians over passes."""
    keys = run.records[0].detail if run.records else {}
    return {
        key: dict(
            summary([r.detail[key] for r in run.records]),
            unit="1/s" if "_per_s" in key else "s",
        )
        for key in keys
    }


def per_layer(tracer, traced: Run, untraced: Run) -> Dict[str, Dict[str, Any]]:
    """The per-layer metrics, per pass, from a traced stretch (values
    only; ``run.py`` adds the declared units)."""
    passes = max(len(traced.walls), 1)
    wall = sum(traced.walls)
    stats = tracer.stats

    def stat(*names: str) -> Tuple[int, float, float, int]:
        found = [stats[name] for name in names if name in stats]
        return (
            sum(s.calls for s in found),
            sum(s.self_s for s in found),
            sum(s.total_s for s in found),
            sum(s.units for s in found),
        )

    def calls(name: str) -> float:
        return stat(name)[0] / passes

    def pct(*names: str) -> float:
        return 100.0 * stat(*names)[1] / wall if wall else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    requests = stat("traffic.generate_requests")[3]
    kernel = stat("sim.kernel.run", "sim.kernel.lean_run")
    batch = stat("sim.batch.run_smc_batch")
    get = stat("exec.cache.get")
    pick = stats.get("traffic.pick")
    depths = sorted(pick.values.elements()) if pick is not None else []
    metrics = {
        "exec.run_specs.self_pct": pct("exec.run_specs"),
        "exec.cache.get.calls": calls("exec.cache.get"),
        "exec.cache.hit_ratio": ratio(get[3], get[0]),
        "exec.cache.get.self_pct": pct("exec.cache.get"),
        "exec.cache.put.self_pct": pct("exec.cache.put"),
        "search.run_search.self_pct": pct("search.run_search"),
        "sim.simulate.calls": calls("sim.simulate"),
        "sim.simulate.self_pct": pct("sim.simulate"),
        "sim.batch.build_plan.self_pct": pct("sim.batch.build_plan"),
        "sim.batch.run_smc_batch.self_pct": pct("sim.batch.run_smc_batch"),
        "sim.batch.cycles_per_s": ratio(batch[3], batch[2]),
        "sim.kernel.self_pct": pct("sim.kernel.run", "sim.kernel.lean_run"),
        "sim.kernel.lean_run.calls": calls("sim.kernel.lean_run"),
        "sim.kernel.ns_per_cycle": 1e9 * ratio(kernel[2], kernel[3]),
        "ctrl.natural-order.self_pct": pct("ctrl.natural-order"),
        "ctrl.cached-natural-order.self_pct": pct("ctrl.cached-natural-order"),
        "ctrl.l2-streaming.self_pct": pct("ctrl.l2-streaming"),
        "ctrl.random-access.self_pct": pct("ctrl.random-access"),
        "cache.model.access.calls": calls("cache.model.access"),
        "cache.model.access.self_pct": pct("cache.model.access"),
        "rdram.issue_access.calls": calls("rdram.issue_access"),
        "rdram.issue_access.self_pct": pct("rdram.issue_access"),
        "rdram.issue_col.calls": calls("rdram.issue_col"),
        "rdram.issue_col.ns_per_call": 1e9 * ratio(
            stat("rdram.issue_col")[1], stat("rdram.issue_col")[0]
        ),
        "rdram.record_data_gap.calls": calls("rdram.record_data_gap"),
        "memsys.decompose.calls": calls("memsys.decompose"),
        "memsys.decompose.calls_per_request": ratio(
            stat("memsys.decompose")[0], requests
        ),
        "memsys.decompose.self_pct": pct("memsys.decompose"),
        "traffic.generate_requests.self_pct": pct("traffic.generate_requests"),
        "traffic.tick.calls": calls("traffic.tick"),
        "traffic.tick.self_pct": pct("traffic.tick"),
        "traffic.tick.serve_ratio": ratio(requests, stat("traffic.tick")[0]),
        "traffic.pick.calls": calls("traffic.pick"),
        "traffic.pick.self_pct": pct("traffic.pick"),
        "traffic.pick.queue_depth_p50": (
            statistics.median(depths) if depths else 0
        ),
        "traffic.pick.queue_depth_max": depths[-1] if depths else 0,
        "traffic.run_traffic.self_pct": pct("traffic.run_traffic"),
        "obs.observe.calls_per_request": ratio(
            stat("obs.observe")[0], requests
        ),
        "obs.observe.self_pct": pct("obs.observe"),
        "trace_overhead": ratio(
            statistics.median(traced.walls), statistics.median(untraced.walls)
        ) - 1.0,
    }
    return {name: {"value": value} for name, value in metrics.items()}


def layer_table(tracer, traced: Run) -> List[Dict[str, Any]]:
    """Per span name and per layer: calls, self seconds and share of
    traced wall time, per pass."""
    passes = max(len(traced.walls), 1)
    wall = sum(traced.walls)
    rows: Dict[str, Dict[str, Any]] = {}
    for name, stat in sorted(tracer.stats.items()):
        for key in (layer_of(name), name):
            row = rows.setdefault(key, {"name": key, "calls": 0, "self_s": 0.0})
            row["calls"] += stat.calls / passes
            row["self_s"] += stat.self_s / passes
    for row in rows.values():
        row["share_pct"] = 100.0 * row["self_s"] * passes / wall if wall else 0.0
    return sorted(rows.values(), key=lambda row: -row["self_s"])


def write_spans(path: str, tracer) -> Dict[str, int]:
    """One JSON line per kept span; returns kept and dropped counts."""
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent, root, name, start, end in tracer.spans:
            handle.write(json.dumps({
                "id": span_id, "parent": parent, "call": root, "name": name,
                "start": start, "end": end,
                "label": tracer.roots[root]["label"],
            }) + "\n")
    return {
        "written": len(tracer.spans),
        "dropped": sum(r.get("dropped", 0) for r in tracer.roots.values()),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    workload.warmup()
    if args.mode == "setup":
        seconds = time.perf_counter() - _STARTED
        factor = reference_seconds() / REFERENCE_S
        print(json.dumps({"setup_s": seconds / factor}))
        return 0

    out: Dict[str, Any] = {"workload": args.workload, "seed": args.seed}
    if args.mode == "measure":
        run = run_passes(workload, args.seconds, workload.min_passes)
        if run.records:
            out["metrics"] = end_to_end(workload, run)
            out["detail"] = details(run)
            out["host_factor"] = summary(run.host_factors)
    else:
        run = run_passes(workload, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(workload, args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        out["traced_passes"] = len(traced.walls)
        out["counts"] = traced.counts[0] if traced.counts else {}
        if traced.digests and run.digests and traced.digests[0] != run.digests[0]:
            run.fail("traced outputs differ from untraced outputs")
        run.attempted += traced.attempted
        run.failed += traced.failed
        run.errors += traced.errors
        if run.records and traced.records:
            out["metrics"] = per_layer(tracer, traced, run)
            out["layers"] = layer_table(tracer, traced)
            if args.spans:
                out["spans"] = write_spans(args.spans, tracer)
    out.update(
        passes=len(run.walls), attempted=run.attempted, failed=run.failed,
        errors=run.errors, digest=run.digests[0] if run.digests else None,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
