"""Dynamic access ordering into and out of an L2 cache.

The paper's conclusion sketches an alternative to the FIFO-based SBU:
"We are investigating the performance tradeoffs of using dynamic
access ordering to stream data into and out of the L2 cache, which
simplifies the coherence mechanism, but which opens up the
possibility for cache conflicts to evict needed data prematurely."

This module builds that design point.  The stream controller
prefetches each read-stream's cachelines into a real L2 cache model
(instead of private FIFOs) with a bounded per-stream prefetch window;
the processor consumes elements from the L2 in natural order; store
streams write-validate lines in the L2 and dirty evictions stream
back to memory.  All memory traffic goes through the same RDRAM
device model and ordering rules as the rest of the library.

The failure mode the paper predicts is measurable here: when streams
alias in the L2's sets (low associativity, aligned placement, or deep
prefetch windows), prefetched lines are evicted before the processor
reaches them and must be *refetched* — the `refetches` statistic —
and effective bandwidth falls below the FIFO-based SMC's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, require_int
from repro.cache.model import CacheConfig, CacheModel
from repro.cpu.kernels import Kernel
from repro.cpu.processor import MATCHED_ACCESS_INTERVAL
from repro.cpu.streams import Alignment, Direction, place_streams
from repro.memsys.config import ELEMENT_BYTES, MemorySystemConfig
from repro.naturalorder.line import LineController
from repro.rdram.packets import BusDirection
from repro.sim.kernel import ResultBuilder
from repro.sim.results import SimulationResult

#: Concurrent line fetches in flight, matching the device pipeline.
MAX_OUTSTANDING_LINES = 4


@dataclass
class _StreamState:
    """Prefetch bookkeeping for one stream."""

    name: str
    direction: Direction
    lines: List[int]           # unique line addresses, in element order
    element_lines: List[int]   # line address of each element
    element_line_index: List[int]  # index into `lines` per element
    prefetch_cursor: int = 0


class L2StreamingController(LineController):
    """SMC variant that stages stream data in an L2 cache.

    Args:
        config: Memory organization.
        l2_config: L2 geometry; line size must match the memory
            system's cacheline.
        prefetch_window: Lines the controller may run ahead per
            read-stream (the FIFO-depth analogue).
        record_trace: Record device packets for auditing.
        refresh: Run a background refresh engine alongside the run.
    """

    def __init__(
        self,
        config: MemorySystemConfig,
        l2_config: Optional[CacheConfig] = None,
        prefetch_window: int = 8,
        record_trace: bool = False,
        refresh: bool = False,
    ) -> None:
        if require_int("prefetch_window", prefetch_window) < 1:
            raise ConfigurationError(
                f"prefetch_window must be at least 1, got {prefetch_window}"
            )
        super().__init__(config, record_trace=record_trace, refresh=refresh)
        self.l2_config = l2_config or CacheConfig(
            size_bytes=64 * 1024,
            associativity=2,
            line_bytes=config.cacheline_bytes,
        )
        if self.l2_config.line_bytes != config.cacheline_bytes:
            raise ConfigurationError(
                "L2 line size must match the memory system cacheline"
            )
        self.prefetch_window = prefetch_window
        self.l2: Optional[CacheModel] = None
        self.refetches = 0
        self.writebacks_streamed = 0

    # ------------------------------------------------------------------

    def run(
        self,
        kernel: Kernel,
        length: int,
        stride: int = 1,
        alignment: Alignment = Alignment.STAGGERED,
        max_cycles: Optional[int] = None,
        dense: bool = False,
    ) -> SimulationResult:
        """Execute one kernel, streaming through the L2.

        Args:
            kernel: The inner loop.
            length: Vector length in elements.
            stride: Stride in elements.
            alignment: Vector base placement.
            max_cycles: Watchdog limit; defaults to a bound derived
                from the line traffic.
            dense: Visit every cycle in the simulation kernel instead
                of skipping ahead while waiting on line arrivals.

        Returns:
            The result; ``fifo_depth`` reports the prefetch window and
            ``bank_conflicts`` the number of refetches forced by
            premature evictions.
        """
        self.device.reset()
        self.l2 = CacheModel(self.l2_config)
        self.refetches = 0
        self.writebacks_streamed = 0
        descriptors = place_streams(
            kernel.streams,
            self.config,
            length=length,
            stride=stride,
            alignment=alignment,
        )
        line_bytes = self.config.cacheline_bytes
        streams = []
        for descriptor in descriptors:
            element_lines = [
                descriptor.element_address(i) // line_bytes * line_bytes
                for i in range(length)
            ]
            unique: List[int] = []
            line_index: List[int] = []
            for line in element_lines:
                if not unique or unique[-1] != line:
                    unique.append(line)
                line_index.append(len(unique) - 1)
            streams.append(
                _StreamState(
                    name=descriptor.name,
                    direction=descriptor.direction,
                    lines=unique,
                    element_lines=element_lines,
                    element_line_index=line_index,
                )
            )
        if max_cycles is None:
            max_cycles = 20_000 + 200 * sum(len(s.lines) for s in streams)

        run_state = _L2Run(self, streams, length)
        final_cycle = self._drive(
            run_state,
            max_cycles=max_cycles,
            label=(
                f"l2-streaming: kernel={kernel.name}, "
                f"org={self.config.describe()}"
            ),
            dense=dense,
        )

        # Stream out the remaining dirty lines.
        for line_address in self.l2.flush_dirty_lines():
            run_state.issue(line_address, BusDirection.WRITE, final_cycle)
            self.writebacks_streamed += 1

        useful = len(descriptors) * length * ELEMENT_BYTES
        builder = ResultBuilder(
            kernel=kernel.name,
            organization=self.config.describe(),
            length=length,
            stride=stride,
            fifo_depth=self.prefetch_window,
            alignment=alignment.value,
            policy="l2-streaming",
            first_data=run_state.first_retire,
            last_data_end=run_state.last_data_end,
            transactions=run_state.transactions,
            bank_conflicts=self.refetches,
            page_hits=run_state.page_hits,
            page_misses=run_state.page_misses,
        )
        return builder.build(
            cycles=max(run_state.last_data_end, run_state.last_retire),
            useful_bytes=useful,
            transferred_bytes=self.device.bytes_transferred,
            cpu_stall_cycles=run_state.stall_cycles,
            packets_issued=(
                run_state.transactions * self.config.packets_per_cacheline
            ),
            refreshes=self.refreshes_issued,
        )

    # ------------------------------------------------------------------

    def _pick_prefetch(
        self,
        streams: List[_StreamState],
        position: int,
        schedule: List[Tuple[int, int]],
    ) -> Optional[Tuple[_StreamState, int]]:
        """Next read-stream line within the prefetch window."""
        # The CPU's current iteration bounds how far ahead each
        # stream's consumption pointer sits.
        iteration = position // len(streams) if streams else 0
        for stream in streams:
            if stream.direction is not Direction.READ:
                continue
            if stream.prefetch_cursor >= len(stream.lines):
                continue
            element = min(iteration, len(stream.element_line_index) - 1)
            consumed_lines = stream.element_line_index[element] + 1
            if stream.prefetch_cursor < consumed_lines + self.prefetch_window:
                return stream, stream.lines[stream.prefetch_cursor]
        return None


class _L2Run:
    """One L2-streaming run as a simulation-kernel component.

    Each visited cycle performs the controller's four phases in order:
    land arrivals, drain one pending writeback, issue one prefetch,
    and let the CPU consume.  Between visits the kernel skips ahead;
    the only cycles that can change state are the next line arrival,
    the cycle after one with immediate work still queued (another
    writeback or an eligible prefetch), and the CPU's next attempt —
    which, when the CPU is blocked, is the arrival it waits on.
    """

    def __init__(
        self,
        controller: L2StreamingController,
        streams: List[_StreamState],
        length: int,
    ) -> None:
        self.controller = controller
        self.streams = streams
        self.schedule: List[Tuple[int, int]] = [
            (stream_index, i)
            for i in range(length)
            for stream_index in range(len(streams))
        ]
        self.inflight: Dict[int, int] = {}  # line address -> arrival cycle
        self.present: Set[int] = set()      # lines resident in L2
        self.pending_writebacks: List[int] = []
        self.position = 0
        self.next_cpu_attempt = 0
        self.last_data_end = 0
        self.first_retire: Optional[int] = None
        self.last_retire = 0
        self.transactions = 0
        self.page_hits = 0
        self.page_misses = 0
        self.stall_cycles = 0
        self._blocked_since: Optional[int] = None
        self._blocked_on_arrival = False
        self._last_cycle = -1

    @property
    def done(self) -> bool:
        """All accesses retired and no line traffic left in flight."""
        return (
            self.position >= len(self.schedule)
            and not self.inflight
            and not self.pending_writebacks
        )

    def issue(
        self, line_address: int, direction: BusDirection, cycle: int
    ) -> int:
        """Issue one full-cacheline transfer; returns its data end."""
        _, _, data_end, _, hits, misses = self.controller.issue_line(
            line_address, direction, cycle
        )
        self.page_hits += hits
        self.page_misses += misses
        self.transactions += 1
        self.last_data_end = max(self.last_data_end, data_end)
        return data_end

    def _insert_into_l2(self, line_address: int, dirty: bool) -> None:
        """Line lands in the L2; the victim may stream out."""
        l2 = self.controller.l2
        assert l2 is not None
        outcome = l2.access(line_address, is_write=dirty)
        self.present.add(line_address)
        if outcome.evicted_line is not None:
            self.present.discard(outcome.evicted_line)
        if outcome.writeback_line is not None:
            self.pending_writebacks.append(outcome.writeback_line)

    def tick(self, cycle: int) -> None:
        controller = self.controller
        self._last_cycle = cycle
        # Land arrivals.
        for line_address, arrival in list(self.inflight.items()):
            if arrival <= cycle:
                del self.inflight[line_address]
                self._insert_into_l2(line_address, dirty=False)
        # Drain one pending writeback per cycle slot.
        if self.pending_writebacks:
            line_address = self.pending_writebacks.pop(0)
            self.issue(line_address, BusDirection.WRITE, cycle)
            controller.writebacks_streamed += 1
        # Prefetch round-robin: one line issue per cycle at most.
        if len(self.inflight) < MAX_OUTSTANDING_LINES:
            target = controller._pick_prefetch(
                self.streams, self.position, self.schedule
            )
            if target is not None:
                stream, line_address = target
                stream.prefetch_cursor += 1
                if (
                    line_address in self.present
                    or line_address in self.inflight
                ):
                    pass  # already here (shared vector) — free
                else:
                    arrival = self.issue(
                        line_address, BusDirection.READ, cycle
                    )
                    self.inflight[line_address] = arrival
        # CPU consumes in natural order.
        if (
            self.position < len(self.schedule)
            and cycle >= self.next_cpu_attempt
        ):
            stream_index, element = self.schedule[self.position]
            stream = self.streams[stream_index]
            line_address = stream.element_lines[element]
            if stream.direction is Direction.WRITE:
                # Write-validate into the L2; no fetch needed.
                self._insert_into_l2(line_address, dirty=True)
                ready = True
            elif line_address in self.present:
                l2 = controller.l2
                assert l2 is not None
                l2.access(line_address, is_write=False)
                ready = True
            elif line_address not in self.inflight:
                # Prematurely evicted (or never prefetched):
                # demand refetch — the cost the paper predicts.
                controller.refetches += 1
                self.inflight[line_address] = self.issue(
                    line_address, BusDirection.READ, cycle
                )
                ready = False
            else:
                ready = False
            if ready:
                if self._blocked_since is not None:
                    self.stall_cycles += cycle - self._blocked_since
                    self._blocked_since = None
                if self.first_retire is None:
                    self.first_retire = cycle
                self.last_retire = cycle
                self.position += 1
                self.next_cpu_attempt = cycle + MATCHED_ACCESS_INTERVAL
            elif self._blocked_since is None:
                self._blocked_since = cycle
            self._blocked_on_arrival = not ready

    @property
    def next_action_cycle(self) -> Optional[int]:
        """Earliest cycle at which this run can change state again.

        While the CPU waits on a line it (or a demand refetch) put in
        flight, its re-attempt is covered by that line's arrival
        cycle; a queued writeback or an eligible prefetch makes the
        very next cycle interesting because each is throttled to one
        per cycle.
        """
        candidates: List[int] = []
        if self.inflight:
            candidates.append(min(self.inflight.values()))
        if self.pending_writebacks:
            candidates.append(self._last_cycle + 1)
        elif len(self.inflight) < MAX_OUTSTANDING_LINES:
            if (
                self.controller._pick_prefetch(
                    self.streams, self.position, self.schedule
                )
                is not None
            ):
                candidates.append(self._last_cycle + 1)
        if (
            self.position < len(self.schedule)
            and not self._blocked_on_arrival
        ):
            candidates.append(self.next_cpu_attempt)
        if not candidates:
            return None
        return min(candidates)
