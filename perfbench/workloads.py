"""The benchmark's four workloads.

Each workload is a closed loop: one caller issues a public call, waits
for it to return, then issues the next.  One *pass* runs the
workload's fixed list of calls once.  A run repeats passes until its
time is up and at least ``min_passes`` passes (the workload's fixed
repetition count R) have completed, so every run has enough
call-latency samples for its tail percentile.

Workloads reach the library only through module attributes
(``repro.run_specs``, ``repro.traffic.run_traffic``, ...) looked up at
call time, so the tracer in :mod:`tracing` sees every call once it has
rebound those attributes.  They time only through the loop they are
given (see ``harness.Loop``), which scales seconds to a reference host
and collects the call-latency samples.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import repro
import repro.search
import repro.traffic
from repro.cache.controller import CachedNaturalOrderController
from repro.core.l2stream import L2StreamingController
from repro.naturalorder.controller import NaturalOrderController
from repro.naturalorder.random_driver import RandomAccessDriver
from repro.rdram.timing import DATA_PACKET_BYTES


@dataclass
class PassRecord:
    """What one pass measured and produced.

    Attributes:
        sim_packets: DATA packets simulated by the calls that simulated.
        sim_seconds: Seconds those calls took.
        outputs: Canonical ``to_dict()`` outputs, in call order.
        detail: Workload-specific phase figures (reported, not gated).
        failures: Failed correctness checks, one message each.
    """

    sim_packets: int = 0
    sim_seconds: float = 0.0
    outputs: List[Any] = field(default_factory=list)
    detail: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


def packets(result: Any) -> int:
    """DATA packets a simulation or traffic result moved on the bus."""
    if isinstance(result, repro.traffic.TrafficResult):
        return result.total_bytes // DATA_PACKET_BYTES
    return result.transferred_bytes // DATA_PACKET_BYTES


class Workload:
    """Base: a named, seeded list of closed-loop calls."""

    name = ""
    #: Fixed repetition count R: the fewest passes a run makes.
    min_passes = 1
    #: The call-latency tail percentile; ``min_passes`` guarantees at
    #: least ten samples beyond it.
    tail_pct = 90

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch

    def warmup(self) -> None:
        """One untimed representative call (part of set-up)."""
        raise NotImplementedError

    def run_pass(self, loop) -> PassRecord:
        """One pass; ``loop.call(label, fn)`` makes each public call
        and returns ``(result, seconds)``."""
        raise NotImplementedError


class CallListWorkload(Workload):
    """A workload whose pass is a fixed list of independent calls.

    Every call is one latency sample and returns a simulation or
    traffic result.
    """

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self._calls = self.calls()

    def calls(self) -> List[Tuple[str, Callable[[], Any]]]:
        raise NotImplementedError

    def warmup(self) -> None:
        self._calls[0][1]()

    def run_pass(self, loop) -> PassRecord:
        record = PassRecord()
        requests = 0
        for label, fn in self._calls:
            result, seconds = loop.call(label, fn)
            record.sim_packets += packets(result)
            record.sim_seconds += seconds
            record.outputs.append(result.to_dict())
            requests += getattr(result, "requests", 0)
        if requests:
            record.detail["requests_per_s"] = requests / record.sim_seconds
        return record


#: The paper's closed-loop grid: kernel x organization x length x FIFO.
SWEEP_GRID = tuple(
    repro.RunSpec(kernel=kernel, organization=org, length=length, fifo_depth=fifo)
    for kernel in ("copy", "daxpy", "vaxpy", "hydro")
    for org in ("cli", "pi")
    for length in (1024, 8192)
    for fifo in (32, 128)
)


class PaperSweep(Workload):
    """The 32-point grid cold, the same grid warm, then a seeded search.

    Each pass starts from an empty on-disk result cache, so the cold
    grid simulates every point, the warm grid reads every point back,
    and the search runs against the cache the two grids filled.  The
    latency samples are the cold grid's points, each timed from the
    previous ``run_specs`` progress callback.
    """

    name = "paper-sweep"
    min_passes = 7
    tail_pct = 95

    def warmup(self) -> None:
        repro.simulate(SWEEP_GRID[0])

    def run_pass(self, loop) -> PassRecord:
        record = PassRecord()
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        try:
            cache = repro.ResultCache(cache_dir)
            cold, cold_s = loop.call(
                "cold grid", self._grid(cache, loop.mark), sample=False
            )
            warm, warm_s = loop.call(
                "warm grid", self._grid(cache, lambda label: None),
                sample=False,
            )
            config = repro.search.SearchConfig(seed=self.seed)
            with repro.execution(cache=cache):
                search, search_s = loop.call(
                    "search", lambda: repro.search.run_search(config),
                    sample=False,
                )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        cold_dicts = [result.to_dict() for result in cold]
        if [result.to_dict() for result in warm] != cold_dicts:
            record.failures.append("warm-cache results differ from the cold run")
        record.sim_packets = sum(packets(result) for result in cold)
        record.sim_seconds = cold_s
        record.outputs = cold_dicts + [search.to_dict()]
        record.detail = {
            "specs_per_s_cold": len(SWEEP_GRID) / cold_s,
            "specs_per_s_warm": len(SWEEP_GRID) / warm_s,
            "search_gen_s": search_s / config.generations,
        }
        return record

    @staticmethod
    def _grid(cache, mark: Callable[[str], None]) -> Callable[[], list]:
        """The serial grid run, calling ``mark`` as each point lands."""
        return lambda: repro.run_specs(
            SWEEP_GRID, cache=cache,
            progress=lambda event: mark(event.spec.describe()),
        )


def _config(org: str) -> repro.MemorySystemConfig:
    return getattr(repro.MemorySystemConfig, org)()


class ControllersEvent(CallListWorkload):
    """The pump controllers, the random driver and multi-channel SMC.

    The controllers run with no engine argument, so this workload
    follows whatever loop the library picks for them by default.
    """

    name = "controllers-event"
    min_passes = 5
    length = 4096

    def calls(self) -> List[Tuple[str, Callable[[], Any]]]:
        calls: List[Tuple[str, Callable[[], Any]]] = []
        for label, cls in (
            ("natural-order", NaturalOrderController),
            ("cached-natural-order", CachedNaturalOrderController),
            ("l2-streaming", L2StreamingController),
        ):
            for kernel in ("copy", "daxpy", "vaxpy"):
                for org in ("cli", "pi"):
                    calls.append((
                        f"{label}/{kernel}/{org}",
                        lambda cls=cls, kernel=kernel, org=org: cls(
                            _config(org)
                        ).run(repro.KERNELS[kernel], length=self.length),
                    ))
        for org in ("cli", "pi"):
            calls.append((
                f"random-access/{org}",
                lambda org=org: RandomAccessDriver(_config(org)).run(
                    self.length, seed=self.seed
                ),
            ))
        for kernel in ("daxpy", "vaxpy"):
            for interleaving in (None, "dream"):
                spec = repro.RunSpec(
                    kernel, "cli", length=self.length, channels=2, devices=2,
                    interleaving=interleaving,
                )
                calls.append((
                    f"smc-2x2/{kernel}/{interleaving or 'cli'}",
                    lambda spec=spec: repro.simulate(spec),
                ))
        return calls


class TrafficMatched(CallListWorkload):
    """Load per channel held constant, so queues form only in bursts."""

    name = "traffic-matched"
    min_passes = 12

    def calls(self) -> List[Tuple[str, Callable[[], Any]]]:
        calls: List[Tuple[str, Callable[[], Any]]] = []
        for channels in (1, 2, 4):
            workload = repro.traffic.TrafficWorkload(
                clients=64, requests=2048, mean_gap=36 / channels,
                seed=self.seed,
            )
            for scheduler in ("fcfs", "frfcfs", "mars"):
                calls.append((
                    f"{channels}ch/{scheduler}",
                    lambda workload=workload, channels=channels,
                    scheduler=scheduler: repro.traffic.run_traffic(
                        workload=workload, channels=channels,
                        scheduler=scheduler, refresh=True,
                    ),
                ))
        return calls


class TrafficOverload(CallListWorkload):
    """The default client population on one channel: deep queues."""

    name = "traffic-overload"
    min_passes = 34

    def calls(self) -> List[Tuple[str, Callable[[], Any]]]:
        workload = repro.traffic.TrafficWorkload(seed=self.seed)
        return [
            (
                f"1ch/{scheduler}",
                lambda scheduler=scheduler: repro.traffic.run_traffic(
                    workload=workload, scheduler=scheduler
                ),
            )
            for scheduler in ("fcfs", "frfcfs", "mars")
        ]


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (PaperSweep, ControllersEvent, TrafficMatched, TrafficOverload)
}
