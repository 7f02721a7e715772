"""Memory Scheduling Unit.

"To take advantage of the order sensitivity of the memory system, we
include a scheduling unit that is capable of reordering accesses.
This Memory Scheduling Unit (MSU) prefetches the reads, buffers the
writes, and dynamically reorders the memory accesses to stream
elements, issuing the requests in a sequence that attempts to maximize
effective memory bandwidth."  (Section 3.)

The MSU is driven by the simulation engine: at each decision cycle it
asks its scheduling policy which FIFO to service, issues the ROW and
COL packets the chosen access needs through the RDRAM device model,
and reports read-data arrival events back to the engine.  Page misses,
bank conflicts and activations are counted for the result report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.policies import SchedulingPolicy
from repro.core.sbu import StreamBufferUnit
from repro.obs.core import Instrumentation
from repro.rdram.device import RdramDevice
from repro.rdram.packets import BusDirection

#: Sentinel decision time for an idle MSU awaiting a FIFO state change.
IDLE = 1 << 60


@dataclass(frozen=True)
class ArrivalEvent:
    """Read data landing in a FIFO when its DATA packet completes.

    Attributes:
        cycle: Interface-clock cycle at which the data is available.
        fifo_index: The read FIFO receiving the elements.
        elements: Number of 64-bit elements arriving.
    """

    cycle: int
    fifo_index: int
    elements: int


class MemorySchedulingUnit:
    """Issues stream accesses through the device under a policy.

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
        #: Optional instrumentation; records access spans, idle spans
        #: (with their cause), and scheduling counters.
        self.obs: Optional[Instrumentation] = None
        self._idle_since: Optional[int] = None
        self._idle_reason = ""

    @property
    def done(self) -> bool:
        """True once every stream's access plan has been issued."""
        return all(fifo.exhausted for fifo in self.sbu)

    def wake(self, cycle: int) -> None:
        """Re-arm an idle MSU after a FIFO state change."""
        if self.next_decision >= IDLE:
            if self.obs is not None:
                self._close_idle_span(cycle)
            self.next_decision = cycle

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

    def finish_observation(self, end_cycle: int) -> None:
        """Close a still-open idle span when the simulation ends."""
        if self.obs is not None:
            self._close_idle_span(end_cycle)

    def tick(self, cycle: int) -> Tuple[ArrivalEvent, ...]:
        """Make at most one scheduling decision at ``cycle``.

        Returns:
            Arrival events for any read data the issued access will
            deliver (empty for writes or when idling).
        """
        if cycle < self.next_decision:
            return ()
        choice = self.policy.choose(cycle, self.sbu, self.current, self.device)
        if choice is None:
            self.next_decision = IDLE
            if self.obs is not None and self._idle_since is None:
                self._idle_since = cycle
                self._idle_reason = self._idle_cause()
            return ()
        if choice != self.current:
            self.fifo_switches += 1
            if self.obs is not None:
                self.obs.counters.incr("msu.fifo_switches")
            self.current = choice
        fifo = self.sbu[choice]
        unit = fifo.next_unit()
        bank, row, column, elements, precharge = unit
        direction = BusDirection.READ if fifo.is_read else BusDirection.WRITE
        # The open/conflict/precharge decision lives in the device's
        # access path (issue_access), shared with every controller.
        _, col_start, _, data_end, conflicts, page_hit = (
            self.device.issue_access(
                bank, row, column, cycle, direction, precharge=precharge
            )
        )
        self.bank_conflicts += conflicts
        if page_hit:
            self.page_hits += 1
        else:
            # A miss issues exactly one ACT.
            self.activations += 1
            self.page_misses += 1
        if self.obs is not None:
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
        fifo.note_issue()
        self.packets_issued += 1
        self.last_data_end = max(self.last_data_end, data_end)
        self.next_decision = max(
            cycle + 1, self.policy.pace(col_start, cycle, self.device.timing)
        )
        self.policy.speculate(self, cycle, choice, unit)
        if fifo.is_read:
            return (
                ArrivalEvent(
                    cycle=data_end,
                    fifo_index=choice,
                    elements=elements,
                ),
            )
        return ()
