"""In-order, bandwidth-matched processor model.

Section 4.1: "We model the processor as a generator of only loads and
stores of stream elements.  All non-stream accesses are assumed to hit
in cache, and all computation is assumed to be infinitely fast." and
"the CPU can consume data items at the memory's maximum rate of
supply".

The processor walks the kernel's accesses in natural program order —
one element of each stream per iteration — and completes at most one
64-bit element access every :data:`MATCHED_ACCESS_INTERVAL`
interface-clock cycles.  At the Direct RDRAM peak of 4 bytes/cycle, an
8-byte element every 2 cycles exactly matches peak bandwidth (Section
4.1).  A read retires by popping the head of the corresponding FIFO
(the memory-mapped head register of Section 3); a write retires by
pushing into the write FIFO.  If the FIFO is not ready, the processor
stalls and retries every cycle.
The processor is a :class:`~repro.sim.kernel.Simulation` component.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Protocol, Tuple

from repro.cpu.kernels import Kernel
from repro.cpu.streams import Direction
from repro.obs.core import Instrumentation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fifo import StreamFifo

#: Cycles per element access at which CPU bandwidth equals the memory's
#: peak bandwidth (8-byte element / 4 bytes-per-cycle).
MATCHED_ACCESS_INTERVAL = 2


class StreamPort(Protocol):
    """What the processor needs from the stream buffer unit."""

    def cpu_can_pop(self, stream_index: int) -> bool:
        """True if the head of the read FIFO holds valid data."""

    def cpu_pop(self, stream_index: int) -> None:
        """Dequeue one element from a read FIFO."""

    def cpu_can_push(self, stream_index: int) -> bool:
        """True if the write FIFO can accept one element."""

    def cpu_push(self, stream_index: int) -> None:
        """Enqueue one element into a write FIFO."""

    def __getitem__(self, stream_index: int) -> "StreamFifo":
        """The FIFO of a stream; only an instrumented processor reads
        it, to sample the occupancy gauge after a retire."""


class StreamProcessor:
    """Generates the kernel's element accesses in natural order.

    Args:
        kernel: The inner loop being executed.
        length: Vector length in elements (the paper's L_s).
        port: The stream buffer unit the accesses pop and push.
        on_retire: Called after each retire with the next cycle, at
            which the FIFO change it made is visible (the SMC wiring
            passes the MSU's ``wake``: a pop frees read-FIFO space and
            a push feeds a write FIFO).
    """

    def __init__(
        self,
        kernel: Kernel,
        length: int,
        port: StreamPort,
        on_retire: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.kernel = kernel
        self.length = length
        self.port = port
        self._on_retire = on_retire
        #: One iteration's accesses, in order: (stream index, read?).
        #: Access ``p`` of the loop is ``_pattern[p % len(_pattern)]``.
        self._pattern: List[Tuple[int, bool]] = [
            (stream_index, spec.direction is Direction.READ)
            for stream_index, spec in enumerate(kernel.streams)
        ]
        self._accesses = length * len(self._pattern)
        self._position = 0
        self._next_attempt = 0
        self._blocked_since: Optional[int] = None
        self.stall_cycles = 0
        self.first_element_cycle: Optional[int] = None
        self.last_retire_cycle: Optional[int] = None
        #: Optional instrumentation; records retire counters, one
        #: "cpu" span per blocked interval (a FIFO-not-ready stall),
        #: and the occupancy of the FIFO each retire changes.
        self.obs: Optional[Instrumentation] = None

    @property
    def done(self) -> bool:
        """True once every access in the loop has retired."""
        return self._position >= self._accesses

    @property
    def accesses_retired(self) -> int:
        """Element accesses completed so far."""
        return self._position

    def tick(self, cycle: int) -> None:
        """Attempt to retire the next access at ``cycle``.

        The processor retires at most one element access per call and
        honors the pacing interval.  A blocked access is retried on
        every visited cycle; blocked spans are accumulated into
        :attr:`stall_cycles` from the cycle the block began, so the
        count is exact even when the simulation engine skips over
        cycles in which no component can act.
        """
        position = self._position
        if position >= self._accesses or cycle < self._next_attempt:
            return
        port = self.port
        pattern = self._pattern
        stream_index, reading = pattern[position % len(pattern)]
        if reading:
            ready = port.cpu_can_pop(stream_index)
        else:
            ready = port.cpu_can_push(stream_index)
        if not ready:
            if self._blocked_since is None:
                self._blocked_since = cycle
            return
        if self._blocked_since is not None:
            self.stall_cycles += cycle - self._blocked_since
            if self.obs is not None and cycle > self._blocked_since:
                self.obs.tracer.add_span(
                    "cpu",
                    "stall:read" if reading else "stall:write",
                    self._blocked_since,
                    cycle,
                    stream=stream_index,
                )
            self._blocked_since = None
        if reading:
            port.cpu_pop(stream_index)
        else:
            port.cpu_push(stream_index)
        if self.obs is not None:
            self.obs.counters.incr("cpu.retires")
            port[stream_index].sample_occupancy(self.obs, cycle)
        if self.first_element_cycle is None:
            self.first_element_cycle = cycle
        self.last_retire_cycle = cycle
        self._position = position + 1
        self._next_attempt = cycle + MATCHED_ACCESS_INTERVAL
        if self._on_retire is not None:
            self._on_retire(cycle + 1)

    @property
    def next_action_cycle(self) -> Optional[int]:
        """Next cycle at which the processor can act on its own, or
        None when it is blocked (it must be woken by a FIFO change) or
        done."""
        if self._position >= self._accesses or self._blocked_since is not None:
            return None
        return self._next_attempt
