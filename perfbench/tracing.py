"""Per-layer tracing: spans around the library's public callables.

The tracer wraps each callable in :data:`TARGETS` at runtime, with no
edit to the library: a method is replaced on its class, a function on
its module and on every other module attribute bound to the same
function object (so ``from x import f`` copies are traced too).  Each
wrapped call is a span ``(name, start, end, parent, call)``; the
harness opens one root span per public call it makes, and ``call`` is
that root's id, shared by every span beneath it.

Per-name aggregates (calls, self time, inclusive time, probed units)
are kept for every call.  Full spans are kept only while
:attr:`Tracer.keep_spans` is set (the harness sets it for the first
traced pass, where each configuration is called once), capped per
root call.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``probe(args, result)`` reads a per-call work count off a wrapped
#: call (cycles simulated, requests generated, queue depth, ...).
Probe = Callable[[tuple, Any], int]


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    Attributes:
        name: Span name; ``<layer>.<...>``.
        module: Module defining the callable.
        owner: Class name within ``module``, ``""`` for a module-level
            function, or ``"registry:<NAME>"`` for every class in that
            registry defining ``attr`` itself.
        attr: Function or method name.
        probe: Optional per-call work count.
    """

    name: str
    module: str
    owner: str
    attr: str
    probe: Optional[Probe] = None


def _cycles(args: tuple, result: Any) -> int:
    return result if isinstance(result, int) else result.cycles


TARGETS: Tuple[Target, ...] = (
    Target("exec.run_specs", "repro.exec.pool", "", "run_specs"),
    Target("exec.cache.get", "repro.exec.cache", "ResultCache", "get",
           probe=lambda args, result: int(result is not None)),
    Target("exec.cache.put", "repro.exec.cache", "ResultCache", "put"),
    Target("search.run_search", "repro.search.driver", "", "run_search"),
    Target("sim.simulate", "repro.sim.runner", "", "simulate"),
    Target("sim.batch.build_plan", "repro.sim.batch", "", "build_plan"),
    Target("sim.batch.run_smc_batch", "repro.sim.batch", "", "run_smc_batch",
           probe=_cycles),
    Target("sim.kernel.run", "repro.sim.kernel", "Simulation", "run",
           probe=_cycles),
    Target("sim.kernel.lean_run", "repro.sim.batch", "", "lean_run",
           probe=_cycles),
    Target("ctrl.natural-order", "repro.naturalorder.controller",
           "NaturalOrderController", "run"),
    Target("ctrl.cached-natural-order", "repro.cache.controller",
           "CachedNaturalOrderController", "run"),
    Target("ctrl.l2-streaming", "repro.core.l2stream",
           "L2StreamingController", "run"),
    Target("ctrl.random-access", "repro.naturalorder.random_driver",
           "RandomAccessDriver", "run"),
    Target("cache.model.access", "repro.cache.model", "CacheModel", "access"),
    Target("rdram.issue_access", "repro.rdram.device", "RdramDevice",
           "issue_access"),
    Target("rdram.issue_access", "repro.rdram.channel", "RambusChannel",
           "issue_access"),
    Target("rdram.issue_col", "repro.rdram.device", "RdramDevice", "issue_col"),
    Target("rdram.issue_col", "repro.rdram.channel", "RambusChannel",
           "issue_col"),
    Target("rdram.record_data_gap", "repro.rdram.device", "",
           "record_data_gap"),
    Target("memsys.decompose", "repro.memsys.address", "AddressMapping",
           "decompose"),
    Target("memsys.decompose", "repro.memsys.address", "registry:MAPPINGS",
           "decompose"),
    Target("memsys.channel_of", "repro.memsys.address", "AddressMapping",
           "channel_of"),
    Target("memsys.channel_of", "repro.memsys.address", "ChannelStriping",
           "channel_of"),
    Target("memsys.channel_of", "repro.memsys.address", "registry:MAPPINGS",
           "channel_of"),
    Target("traffic.generate_requests", "repro.traffic.workload", "",
           "generate_requests", probe=lambda args, result: len(result)),
    Target("traffic.tick", "repro.traffic.driver", "ChannelServer", "tick"),
    # pick removes the request it returns, so the depth it saw is the
    # queue left behind plus the one it took.
    Target("traffic.pick", "repro.traffic.scheduling", "registry:SCHEDULERS",
           "pick",
           probe=lambda args, result: len(args[1].queue) + (result is not None)),
    Target("traffic.run_traffic", "repro.traffic.driver", "", "run_traffic"),
    Target("obs.observe", "repro.obs.metrics", "Histogram", "observe"),
)

#: Full spans kept per root call while :attr:`Tracer.keep_spans` is set.
SPAN_CAP = 2000

#: Span name of the harness's root spans; their self time is the
#: harness loop plus library code no target covers.
ROOT = "harness.call"


class Stat:
    """Aggregate of every call to one span name."""

    __slots__ = ("calls", "self_s", "total_s", "units", "values")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.units = 0
        self.values: Counter = Counter()


class Tracer:
    """Installs span-recording wrappers and aggregates what they see."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self.spans: List[Tuple[int, Optional[int], int, str, float, float]] = []
        self.roots: Dict[int, Dict[str, Any]] = {}
        self.keep_spans = False
        # Open spans: [id, start, child seconds, root id].
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target; module-level copies of wrapped functions
        are rebound too."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions: Dict[int, Tuple[Any, Any]] = {}
        for target in TARGETS:
            module = importlib.import_module(target.module)
            for owner in _owners(module, target):
                original = owner.__dict__[target.attr]
                wrapper = self._wrap(target.name, original, target.probe)
                self._patch(owner, target.attr, wrapper)
                if owner is module:
                    functions[id(original)] = (original, wrapper)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                entry = functions.get(id(value))
                if entry is not None and value is entry[0]:
                    self._patch(module, key, entry[1])

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- recording ------------------------------------------------------

    @contextmanager
    def root(self, label: str) -> Iterator[None]:
        """A root span around one public call the harness makes."""
        self.roots[self._next_id] = {"label": label, "spans": 0}
        frame = self._open()
        try:
            yield
        finally:
            self._close(ROOT, frame, time.perf_counter(), None)

    def _open(self) -> list:
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        root = stack[-1][3] if stack else span_id
        frame = [span_id, 0.0, 0.0, root]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(
        self, name: str, frame: list, end: float, units: Optional[int]
    ) -> None:
        stack = self._stack
        stack.pop()
        span_id, start, children, root = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.self_s += duration - children
        stat.total_s += duration
        if units is not None:
            stat.units += units
            stat.values[units] += 1
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        if self.keep_spans and root in self.roots:
            info = self.roots[root]
            if parent is None or info["spans"] < SPAN_CAP:
                info["spans"] += 1
                self.spans.append((
                    span_id, parent[0] if parent else None, root, name,
                    start, end,
                ))
            else:
                info["dropped"] = info.get("dropped", 0) + 1

    def _wrap(self, name: str, fn: Callable, probe: Optional[Probe]) -> Callable:
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(name, frame, clock(), None)
                raise
            end = clock()
            tracer._close(
                name, frame, end,
                None if probe is None else int(probe(args, result)),
            )
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- reporting ------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Calls per span name (the numbers that must repeat exactly)."""
        return {name: stat.calls for name, stat in sorted(self.stats.items())}


def _owners(module: Any, target: Target) -> List[Any]:
    if not target.owner:
        return [module]
    if target.owner.startswith("registry:"):
        registry = getattr(module, target.owner.split(":", 1)[1])
        return [cls for cls in registry.values() if target.attr in cls.__dict__]
    return [getattr(module, target.owner)]


def layer_of(name: str) -> str:
    """The layer a span name belongs to: its first component."""
    return name.split(".", 1)[0]
