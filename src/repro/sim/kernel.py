"""Shared discrete-event simulation kernel.

Every execution loop in the library runs through this module: the SMC
engine (:func:`repro.sim.engine.run_smc`), the natural-order and
cache-realistic baselines, the L2-streaming variant, the random-access
driver, the traffic server and the FPM heritage model.  Each of those
controllers used to maintain a private cycle loop with its own
bookkeeping; now they wire :class:`Component` adapters into a
:class:`Simulation` and the kernel owns the mechanics they all share:

* **skip-to-next-interesting-cycle** advancement: every state change
  happens at some component's declared ``next_action_cycle`` (work a
  component has in flight, such as the SMC's read-data arrivals, is
  part of its own), so visiting only those cycles is exact,
* **dense-mode verification**: ``dense=True`` visits every cycle
  instead; the property tests assert both modes produce identical
  results, validating each controller's skip contract,
* **watchdog and deadlock detection**: a run that stops making
  progress raises :class:`~repro.errors.SchedulingError` instead of
  spinning,
* **observability attachment**: instrumentation is pointed at every
  component that accepts it and ``obs.now`` is maintained at each
  visited cycle, so stall attribution works the same way for every
  controller.

Controllers contribute only their wiring (component adapters and a
termination predicate) plus result assembly, for which
:class:`ResultBuilder` provides the uniform counter set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.errors import ConfigurationError, SchedulingError, require_int
from repro.obs.core import Instrumentation
from repro.obs.telemetry import TelemetryProbe, TelemetrySource
from repro.sim.results import SimulationResult


class Component(Protocol):
    """What the kernel needs from anything it drives.

    A component is ticked once at every visited cycle, in the order
    components were wired, and tells the kernel when it next needs to
    act so the clock can skip straight there.
    """

    def tick(self, cycle: int) -> None:
        """Act at ``cycle``."""
        ...

    @property
    def next_action_cycle(self) -> Optional[int]:
        """Next cycle this component can change state on its own.

        Work the component has in flight counts: a component holding
        pending read-data arrivals reports the earliest of them.
        None means the component is blocked (another component's
        action must unblock it) or finished.  A component may also
        define a class attribute ``breaks_deadlock = False`` when its
        pending action does not constitute forward progress for the
        computation (the refresh engine: a pending refresh cannot
        unblock a stalled processor).
        """
        ...


@runtime_checkable
class ObservableComponent(Protocol):
    """Optional instrumentation hooks a component may implement."""

    def attach_obs(self, obs: Instrumentation) -> None:
        """Point the wrapped model's ``obs`` attribute at ``obs``."""
        ...


@runtime_checkable
class FinishingComponent(Protocol):
    """Optional end-of-run hook a component may implement."""

    def finish_observation(self, end_cycle: int) -> None:
        """Close any open spans when the simulation ends."""
        ...


class Simulation:
    """One discrete-event run over a set of wired components.

    The kernel visits a cycle, ticks every component in wiring order,
    checks the termination predicate, and advances the clock —
    skipping to the next interesting cycle unless ``dense``.  The
    clock is strictly monotonic: a visited cycle is never revisited.
    The watchdog and deadlock detector guard every run;
    instrumentation, when given, is attached to every component that
    accepts it and ``obs.now`` tracks the visited cycle.

    Args:
        components: Ticked in order at every visited cycle.
        done: Termination predicate, checked after all components have
            ticked at a cycle.
        max_cycles: Watchdog limit on the cycle counter.
        label: Identifies the run in watchdog/deadlock errors.
        dense: Visit every cycle instead of skipping.
        obs: Optional instrumentation to attach for this run.

    Raises:
        ConfigurationError: If ``max_cycles`` is not an int of at
            least 0.
    """

    def __init__(
        self,
        components: Sequence[Component],
        *,
        done: Callable[[], bool],
        max_cycles: int,
        label: str = "simulation",
        dense: bool = False,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if require_int("max_cycles", max_cycles) < 0:
            raise ConfigurationError(
                f"max_cycles must be at least 0, got {max_cycles}"
            )
        self.components: List[Component] = list(components)
        self.max_cycles = max_cycles
        self.label = label
        self.dense = dense
        self.obs = obs
        self._done = done
        if obs is not None and getattr(obs, "telemetry_window", None):
            # The probe is passive (it cannot mask a deadlock) and only
            # forces window-boundary visits, which the dense/skip
            # equivalence contract proves cannot change results.
            self.components.append(
                TelemetryProbe(
                    obs.telemetry_window,  # type: ignore[arg-type]
                    obs.metrics,
                    tuple(
                        component
                        for component in self.components
                        if isinstance(component, TelemetrySource)
                    ),
                )
            )
        # Per-cycle hot path: precompute which components count as
        # forward progress so the loop avoids getattr each visit.
        self._progress_pairs: List[Tuple[Component, bool]] = [
            (component, bool(getattr(component, "breaks_deadlock", True)))
            for component in self.components
        ]
        if obs is not None:
            for component in self.components:
                if isinstance(component, ObservableComponent):
                    component.attach_obs(obs)

    def run(self) -> int:
        """Drive the loop to completion.

        Returns:
            The final visited cycle (the cycle at which the
            termination predicate first held).

        Raises:
            SchedulingError: On watchdog expiry, or on deadlock (no
            progress-making component has a next action).
        """
        components = self.components
        pairs = self._progress_pairs
        done = self._done
        obs = self.obs
        dense = self.dense
        max_cycles = self.max_cycles
        cycle = 0
        while True:
            if obs is not None:
                obs.now = cycle
            for component in components:
                component.tick(cycle)
            if done():
                return cycle
            # Computed in dense mode too: the deadlock check must fire
            # regardless of how the clock advances.
            best: Optional[int] = None
            passive_best: Optional[int] = None
            for component, progresses in pairs:
                action = component.next_action_cycle
                if action is None:
                    continue
                if progresses:
                    if best is None or action < best:
                        best = action
                elif passive_best is None or action < passive_best:
                    # A pending action that cannot unblock the
                    # computation (e.g. a refresh) does not count as
                    # forward progress, so it cannot mask a deadlock.
                    passive_best = action
            if best is None:
                raise SchedulingError(
                    "deadlock: every component is blocked and no data "
                    f"is in flight ({self.label})"
                )
            if dense:
                cycle += 1
            else:
                if passive_best is not None and passive_best < best:
                    best = passive_best
                cycle = best if best > cycle else cycle + 1
            if cycle > max_cycles:
                raise SchedulingError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"({self.label})"
                )

    def finish(self, end_cycle: int) -> None:
        """Close open observation spans on every component.

        No-op for uninstrumented runs; callers invoke it with the
        run's logical end cycle once that is known.
        """
        if self.obs is None:
            return
        for component in self.components:
            if isinstance(component, FinishingComponent):
                component.finish_observation(end_cycle)


class BackgroundEngine(Protocol):
    """What :class:`BackgroundComponent` adapts (e.g. a refresh engine)."""

    obs: Optional[Instrumentation]

    def tick(self, cycle: int) -> bool:
        """Act at ``cycle``; return True if device state was perturbed."""
        ...

    @property
    def next_action_cycle(self) -> int:
        """Cycle at which the engine next wants to act."""
        ...


class BackgroundComponent:
    """Adapts a background engine into a kernel component.

    Background work (refresh is the canonical case) perturbs device
    state on its own cadence but does not constitute forward progress
    for the computation, so it never breaks a deadlock.  The optional
    ``on_fire`` callback runs whenever the engine acted — wirings use
    it to wake a scheduler whose bank state may have changed under it,
    or to hand each refresh to the traffic server that attributes
    latency to it.
    """

    breaks_deadlock = False

    def __init__(
        self,
        engine: BackgroundEngine,
        on_fire: Optional[Callable[[], None]] = None,
    ) -> None:
        self.engine = engine
        self._on_fire = on_fire

    def tick(self, cycle: int) -> None:
        if self.engine.tick(cycle) and self._on_fire is not None:
            self._on_fire()

    @property
    def next_action_cycle(self) -> Optional[int]:
        return self.engine.next_action_cycle

    def attach_obs(self, obs: Instrumentation) -> None:
        self.engine.obs = obs


class TransactionPump:
    """Drives a transaction-level controller as a kernel component.

    Adapts a generator of transaction steps: the generator yields the
    lower-bound start cycle of its next transaction, the kernel skips
    to that cycle (or the next visited cycle after it), and the pump
    resumes the generator, which issues the transaction against the
    device at its *stored* lower bound — the device's earliest-legal-
    issue interface makes the outcome independent of which later cycle
    the pump was actually visited on, so dense and skip modes agree.

    Args:
        steps: Generator yielding each transaction's start lower
            bound; issuing happens inside the generator between
            yields.
        on_attach_obs: Called with the instrumentation when the
            simulation attaches it (controllers point their device's
            ``obs`` here).
        on_finish: Called with the end cycle from
            :meth:`Simulation.finish`.
    """

    def __init__(
        self,
        steps: Iterator[int],
        on_attach_obs: Optional[Callable[[Instrumentation], None]] = None,
        on_finish: Optional[Callable[[int], None]] = None,
    ) -> None:
        self._steps = steps
        self._on_attach_obs = on_attach_obs
        self._on_finish = on_finish
        self._next_start: Optional[int] = next(steps, None)

    @property
    def done(self) -> bool:
        """True once the generator is exhausted."""
        return self._next_start is None

    def tick(self, cycle: int) -> None:
        if self._next_start is not None and cycle >= self._next_start:
            self._next_start = next(self._steps, None)

    @property
    def next_action_cycle(self) -> Optional[int]:
        return self._next_start

    def attach_obs(self, obs: Instrumentation) -> None:
        if self._on_attach_obs is not None:
            self._on_attach_obs(obs)

    def finish_observation(self, end_cycle: int) -> None:
        if self._on_finish is not None:
            self._on_finish(end_cycle)


@dataclass
class ResultBuilder:
    """Uniform accumulation and assembly of a :class:`SimulationResult`.

    Every controller reports through the same counter set: the run's
    identity fields are fixed at construction, the wiring accumulates
    into the counter fields while the simulation runs, and
    :meth:`build` assembles the final record — controller-specific
    values (stall cycles, FIFO switches, refresh counts) ride in as
    keyword overrides.

    Attributes:
        first_data: Cycle of the first DATA packet noted via
            :meth:`note_first_data` (becomes ``startup_cycles``).
        last_data_end: Latest DATA packet end noted via
            :meth:`note_data_end`.
        transactions: Line-granularity transactions issued (used by
            cacheline controllers to derive ``packets_issued``).
        packets_issued: COL packets issued.
        activations: ROW ACT packets issued.
        bank_conflicts: Conflict precharges (or the controller's
            conflict analogue, e.g. L2 refetches).
        page_hits: Accesses that hit an open row.
        page_misses: Accesses that had to activate.
        channel_transferred_bytes: Per-channel DATA-bus byte tallies
            noted via :meth:`note_channel_bytes` (empty for
            single-channel runs).
    """

    kernel: str
    organization: str
    length: int
    stride: int
    fifo_depth: int
    alignment: str
    policy: str
    first_data: Optional[int] = None
    last_data_end: int = 0
    transactions: int = 0
    packets_issued: int = 0
    activations: int = 0
    bank_conflicts: int = 0
    page_hits: int = 0
    page_misses: int = 0
    channel_transferred_bytes: Tuple[int, ...] = ()

    def note_channel_bytes(self, device: Any) -> None:
        """Record cross-channel DATA tallies from a memory model.

        Multi-channel fabrics expose ``channel_bytes()``; for any
        other memory model this is a no-op, keeping single-channel
        results byte-identical to their historical form.
        """
        channel_bytes = getattr(device, "channel_bytes", None)
        if channel_bytes is not None:
            self.channel_transferred_bytes = tuple(channel_bytes())

    def note_first_data(self, cycle: int) -> None:
        """Record the start of the run's first DATA packet."""
        if self.first_data is None:
            self.first_data = cycle

    def note_data_end(self, cycle: int) -> None:
        """Record a DATA packet end (keeps the latest)."""
        if cycle > self.last_data_end:
            self.last_data_end = cycle

    def build(
        self,
        *,
        cycles: int,
        useful_bytes: int,
        transferred_bytes: int,
        **overrides: int,
    ) -> SimulationResult:
        """Assemble the result from the accumulated counters.

        Args:
            cycles: Total run length in interface-clock cycles.
            useful_bytes: Stream bytes the processor consumed/produced.
            transferred_bytes: Bytes actually moved on the DATA bus.
            **overrides: Any :class:`SimulationResult` counter field to
                set or replace (e.g. ``cpu_stall_cycles=...``,
                ``packets_issued=...`` where the accumulated default is
                not the right accounting for this controller).

        Returns:
            The assembled, frozen result record.
        """
        fields: Dict[str, Any] = dict(
            kernel=self.kernel,
            organization=self.organization,
            length=self.length,
            stride=self.stride,
            fifo_depth=self.fifo_depth,
            alignment=self.alignment,
            policy=self.policy,
            cycles=cycles,
            useful_bytes=useful_bytes,
            transferred_bytes=transferred_bytes,
            startup_cycles=self.first_data or 0,
            packets_issued=self.packets_issued,
            activations=self.activations,
            bank_conflicts=self.bank_conflicts,
            page_hits=self.page_hits,
            page_misses=self.page_misses,
            channel_transferred_bytes=self.channel_transferred_bytes,
        )
        fields.update(overrides)
        return SimulationResult(**fields)
