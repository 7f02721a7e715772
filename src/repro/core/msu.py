"""Memory Scheduling Unit.

"To take advantage of the order sensitivity of the memory system, we
include a scheduling unit that is capable of reordering accesses.
This Memory Scheduling Unit (MSU) prefetches the reads, buffers the
writes, and dynamically reorders the memory accesses to stream
elements, issuing the requests in a sequence that attempts to maximize
effective memory bandwidth."  (Section 3.)

The MSU is a :class:`~repro.sim.kernel.Simulation` component: at each
decision cycle it asks its scheduling policy which FIFO to service and
issues the ROW and COL packets the chosen access needs through the
RDRAM device model.  The read data it issued is its work in flight: it
lands in the FIFO when the DATA packet ends.  Page misses, bank
conflicts and activations are counted for the result report.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Tuple

from repro.core.policies import SchedulingPolicy
from repro.core.sbu import StreamBufferUnit
from repro.obs.core import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.rdram.device import RdramDevice
from repro.rdram.packets import BusDirection

# Read per access: a global costs less than a lookup on the enum class.
_READ = BusDirection.READ
_WRITE = BusDirection.WRITE

#: Sentinel decision time for an idle MSU awaiting a FIFO state change.
IDLE = 1 << 60


class MemorySchedulingUnit:
    """Issues stream accesses through the device under a policy.

    Read data lands in its FIFO at the start of the first tick at or
    after the DATA packet's end.  A landing, or a refresh noted
    through :meth:`note_refresh` earlier in the same cycle, re-arms an
    idle MSU: a landing may let the processor free FIFO space, and a
    refresh may have closed the bank its next access needs.

    Args:
        device: The Direct RDRAM device model.
        sbu: The stream buffer unit holding one FIFO per stream.
        policy: FIFO selection / pacing policy.
    """

    def __init__(
        self,
        device: RdramDevice,
        sbu: StreamBufferUnit,
        policy: SchedulingPolicy,
    ) -> None:
        self.device = device
        self.sbu = sbu
        self.policy = policy
        self.next_decision = 0
        self.current = 0
        self.packets_issued = 0
        self.activations = 0
        self.bank_conflicts = 0
        self.speculative_activations = 0
        self.fifo_switches = 0
        self.page_hits = 0
        self.page_misses = 0
        self.last_data_end = 0
        #: Read data in flight: (cycle, issue order, FIFO index,
        #: elements), a heap.  The issue order breaks ties in cycle.
        self.arrivals: List[Tuple[int, int, int, int]] = []
        #: Optional instrumentation; records access spans, idle spans
        #: (with their cause), scheduling counters, and the occupancy
        #: of a FIFO its arrivals and write issues change.
        self.obs: Optional[Instrumentation] = None
        self._rearm = False
        self._idle_since: Optional[int] = None
        self._idle_reason = ""

    @property
    def done(self) -> bool:
        """True once every stream's access plan has been issued."""
        return all(fifo.exhausted for fifo in self.sbu)

    @property
    def next_action_cycle(self) -> Optional[int]:
        """The next decision or read-data arrival, whichever is first;
        None when idle with no data in flight."""
        decision = self.next_decision
        if self.arrivals:
            arrival = self.arrivals[0][0]
            return arrival if arrival < decision else decision
        return decision if decision < IDLE else None

    def wake(self, cycle: int) -> None:
        """Re-arm an idle MSU after a FIFO state change."""
        if self.next_decision >= IDLE:
            if self.obs is not None:
                self._close_idle_span(cycle)
            self.next_decision = cycle

    def note_refresh(self, span: Tuple[int, int]) -> None:
        """A refresh changed bank state: re-arm an idle MSU at its next
        tick, in the refresh's cycle (refresh engines tick first)."""
        self._rearm = True

    def _close_idle_span(self, cycle: int) -> None:
        """Record the idle interval that a wake (or run end) closes."""
        if self._idle_since is not None and cycle > self._idle_since:
            self.obs.tracer.add_span(
                "msu", f"idle:{self._idle_reason}", self._idle_since, cycle
            )
        self._idle_since = None

    def _idle_cause(self) -> str:
        """Why no FIFO is serviceable right now.

        "done" once every stream's plan has been issued; otherwise
        "fifo" — every live read FIFO is full (counting in-flight data)
        and every live write FIFO lacks a full packet's worth of
        elements.
        """
        if all(fifo.exhausted for fifo in self.sbu):
            return "done"
        return "fifo"

    def attach_obs(self, obs: Instrumentation) -> None:
        """Point the MSU and its device (its ``obs`` and its DATA-bus
        gap log) at ``obs``.  The MSU samples its FIFOs' occupancy
        gauges itself."""
        self.device.obs = obs
        self.device.gap_log = obs.gaps
        self.obs = obs

    def finish_observation(self, end_cycle: int) -> None:
        """Close a still-open idle span, and the device's open spans,
        when the simulation ends."""
        if self.obs is not None:
            self._close_idle_span(end_cycle)
        self.device.finish_observation(end_cycle)

    def sample_telemetry(self, cycle: int, metrics: MetricsRegistry) -> None:
        """Record arrivals in flight, FIFO depths and open banks."""
        metrics.series(
            "telemetry.events_pending",
            help="scheduler events in flight at window boundaries",
        ).sample(cycle, float(len(self.arrivals)))
        for fifo in self.sbu:
            metrics.series(
                "telemetry.fifo_occupancy",
                help="FIFO occupancy in elements at window boundaries",
                stream=fifo.descriptor.name,
            ).sample(cycle, float(fifo.occupancy))
        device = self.device
        open_banks = sum(
            1
            for index in range(device.geometry.num_banks)
            if device.bank(index).is_open
        )
        metrics.series(
            "telemetry.banks_open",
            help="banks holding an open row at window boundaries",
        ).sample(cycle, float(open_banks))

    def tick(self, cycle: int) -> None:
        """Land the read data due by ``cycle``, then make at most one
        scheduling decision."""
        arrivals = self.arrivals
        if arrivals and arrivals[0][0] <= cycle:
            fifos = self.sbu.fifos
            while arrivals and arrivals[0][0] <= cycle:
                _, _, fifo_index, elements = heappop(arrivals)
                fifo = fifos[fifo_index]
                fifo.note_arrival(elements)
                if self.obs is not None:
                    fifo.sample_occupancy(self.obs, cycle)
            self._rearm = True
        if self._rearm:
            self._rearm = False
            self.wake(cycle)
        if cycle < self.next_decision:
            return
        choice = self.policy.choose(cycle, self.sbu, self.current, self.device)
        if choice is None:
            self.next_decision = IDLE
            if self.obs is not None and self._idle_since is None:
                self._idle_since = cycle
                self._idle_reason = self._idle_cause()
            return
        if choice != self.current:
            self.fifo_switches += 1
            if self.obs is not None:
                self.obs.counters.incr("msu.fifo_switches")
            self.current = choice
        fifo = self.sbu.fifos[choice]
        unit = fifo.next_unit()
        bank, row, column, elements, precharge = unit
        direction = _READ if fifo.is_read else _WRITE
        # The open/conflict/precharge decision lives in the device's
        # access path (issue_access), shared with every controller.
        _, col_start, _, data_end, conflicts, page_hit = (
            self.device.issue_access(
                bank, row, column, cycle, direction, precharge
            )
        )
        self.bank_conflicts += conflicts
        if page_hit:
            self.page_hits += 1
        else:
            # A miss issues exactly one ACT.
            self.activations += 1
            self.page_misses += 1
        fifo.note_issue()
        if self.obs is not None:
            if not fifo.is_read:
                fifo.sample_occupancy(self.obs, cycle)
            self.obs.counters.incr("msu.decisions")
            if conflicts:
                self.obs.counters.incr("msu.bank_conflicts", conflicts)
            self.obs.tracer.add_span(
                "msu",
                f"{'RD' if fifo.is_read else 'WR'} {fifo.descriptor.name}",
                col_start,
                data_end,
                bank=bank,
                row=row,
                column=column,
                decided=cycle,
            )
        self.packets_issued += 1
        self.last_data_end = max(self.last_data_end, data_end)
        self.next_decision = max(
            cycle + 1, self.policy.pace(col_start, cycle, self.device.timing)
        )
        self.policy.speculate(self, cycle, choice, unit)
        if fifo.is_read:
            heappush(
                arrivals, (data_end, self.packets_issued, choice, elements)
            )
