"""Cache-realistic natural-order controller.

Drives the same in-order, pipelined cacheline transaction model as
:class:`~repro.naturalorder.controller.NaturalOrderController`, but
the transactions come from a real cache model instead of the paper's
idealized assumptions: store misses allocate (fetching the line before
dirtying it), dirty victims generate writeback traffic, and strided or
badly-placed vectors produce the conflict misses Section 6 predicts.

Comparing this controller against the idealized bounds and the SMC
quantifies the paper's closing claim: "When we take non-unit strides,
cache conflicts, and cache writebacks into account, the SMC's
advantages become even more significant."
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.cache.model import CacheConfig, CacheModel
from repro.cpu.kernels import Kernel
from repro.cpu.streams import (
    Alignment,
    Direction,
    StreamDescriptor,
    place_streams,
)
from repro.memsys.config import ELEMENT_BYTES, MemorySystemConfig
from repro.naturalorder.controller import MAX_OUTSTANDING, NaturalOrderController
from repro.rdram.packets import BusDirection
from repro.sim.kernel import ResultBuilder
from repro.sim.results import SimulationResult

# Read per line: a global costs less than a lookup on the enum class.
_READ = BusDirection.READ
_WRITE = BusDirection.WRITE


class CachedNaturalOrderController(NaturalOrderController):
    """Natural-order controller behind a write-allocate data cache.

    Args:
        config: Memory organization.
        cache_config: Cache geometry; its line size must match the
            memory system's cacheline.
        record_trace: Record device packets for auditing.
        refresh: Run a background refresh engine alongside the
            transaction stream.
    """

    POLICY = "cached-natural-order"

    def __init__(
        self,
        config: MemorySystemConfig,
        cache_config: Optional[CacheConfig] = None,
        record_trace: bool = False,
        refresh: bool = False,
    ) -> None:
        super().__init__(config, record_trace=record_trace, refresh=refresh)
        self.cache_config = cache_config or CacheConfig(
            line_bytes=config.cacheline_bytes
        )
        if self.cache_config.line_bytes != config.cacheline_bytes:
            raise ConfigurationError(
                "cache line size must match the memory system cacheline: "
                f"{self.cache_config.line_bytes} != {config.cacheline_bytes}"
            )
        self.cache: Optional[CacheModel] = None

    def run(
        self,
        kernel: Kernel,
        length: int,
        stride: int = 1,
        alignment: Alignment = Alignment.STAGGERED,
        dense: bool = False,
    ) -> SimulationResult:
        """Execute one kernel through the cache.

        Every dirty line is written back when the loop finishes,
        charged to the computation, as a following computation would
        observe it.

        Args:
            kernel: The inner loop.
            length: Vector length in elements.
            stride: Stride in elements.
            alignment: Vector base placement.
            dense: Visit every cycle in the simulation kernel instead
                of skipping to the next transaction start.

        Returns:
            The result; ``bank_conflicts`` reports device-level
            conflicts, while the attached :attr:`cache` carries
            hit/miss/writeback statistics.
        """
        self.device.reset()
        self.cache = CacheModel(self.cache_config)
        descriptors = place_streams(
            kernel.streams,
            self.config,
            length=length,
            stride=stride,
            alignment=alignment,
        )
        builder = ResultBuilder(
            kernel=kernel.name,
            organization=self.config.describe(),
            length=length,
            stride=stride,
            fifo_depth=0,
            alignment=alignment.value,
            policy=self.POLICY,
        )
        self._simulate(
            self._cached_steps(length, descriptors, builder),
            # Every miss can carry a writeback, plus the final flush.
            max_steps=3 * length * len(descriptors),
            label=f"{self.POLICY}: kernel={kernel.name}, "
            f"org={self.config.describe()}",
            dense=dense,
        )

        useful = len(descriptors) * length * ELEMENT_BYTES
        return builder.build(
            cycles=builder.last_data_end,
            useful_bytes=useful,
            transferred_bytes=self.device.bytes_transferred,
            packets_issued=(
                builder.transactions * self.config.packets_per_cacheline
            ),
            refreshes=self.refreshes_issued,
        )

    def _cached_steps(
        self,
        length: int,
        descriptors: List[StreamDescriptor],
        builder: ResultBuilder,
    ) -> Iterator[int]:
        """Generate the cache-filtered transaction stream.

        The cache walk is timing-independent — outcomes depend only on
        the access order — so the generator interleaves cache state
        updates with issues and yields each transaction's start lower
        bound for the kernel's :class:`TransactionPump`.
        """
        cache = self.cache
        assert cache is not None
        line_first_data: Dict[str, int] = {d.name: 0 for d in descriptors}
        outstanding: Deque[int] = deque()
        clock = _ProgramClock()

        def prepare(start_at: int) -> int:
            if len(outstanding) >= MAX_OUTSTANDING:
                start_at = max(start_at, outstanding.popleft())
            return start_at

        def issue(
            line_address: int, direction: BusDirection, start_at: int
        ) -> int:
            (first_cmd, first_arrival, data_end,
             forced, hits, misses) = self.issue_line(
                line_address, direction, start_at
            )
            builder.transactions += 1
            builder.bank_conflicts += int(forced > 0)
            builder.page_hits += hits
            builder.page_misses += misses
            clock.value = max(clock.value, first_cmd)
            builder.note_data_end(data_end)
            outstanding.append(data_end)
            if direction is _READ:
                builder.note_first_data(first_arrival)
            return first_arrival

        streams = [
            (descriptor, descriptor.direction is Direction.WRITE)
            for descriptor in descriptors
        ]
        for index in range(length):
            for descriptor, is_write in streams:
                address = descriptor.element_address(index)
                outcome = cache.access(address, is_write)
                if outcome.hit:
                    continue
                start_at = clock.value
                if is_write:
                    # Write-allocate: the fill depends on this
                    # iteration's loads only through program order,
                    # but the line fetch itself is a read.
                    dependence = max(
                        (
                            line_first_data[d.name]
                            for d in descriptors
                            if d.direction is Direction.READ
                        ),
                        default=0,
                    )
                    start_at = max(start_at, dependence)
                start_at = prepare(start_at)
                yield start_at
                arrival = issue(outcome.fill_line, _READ, start_at)
                if not is_write:
                    line_first_data[descriptor.name] = arrival
                if outcome.writeback_line is not None:
                    start_at = prepare(clock.value)
                    yield start_at
                    issue(outcome.writeback_line, _WRITE, start_at)

        for line_address in cache.flush_dirty_lines():
            start_at = prepare(clock.value)
            yield start_at
            issue(line_address, _WRITE, start_at)


class _ProgramClock:
    """Mutable program-order clock shared by the generator's closures."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0
