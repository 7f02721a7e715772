"""Stream Buffer Unit: the SMC's bank of per-stream FIFOs.

"To avoid polluting the cache, we provide a separate Stream Buffer
Unit (SBU) for stream elements; all stream data — and only stream
data — use these buffers.  From the processor's point of view, each
buffer is a FIFO ... the head of which is a memory-mapped register."
(Section 3.)

The SBU implements the :class:`~repro.cpu.processor.StreamPort`
protocol for the processor side and gives the MSU indexed access to
the same FIFOs on the memory side.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from repro.errors import StreamError
from repro.cpu.streams import StreamDescriptor
from repro.core.fifo import StreamFifo, build_plan
from repro.memsys.config import MemorySystemConfig


class StreamBufferUnit:
    """The SMC's FIFO array.

    Args:
        fifos: One FIFO per stream, in kernel access order (the MSU's
            round-robin tour follows this order).
    """

    def __init__(self, fifos: Sequence[StreamFifo]) -> None:
        if not fifos:
            raise StreamError("SBU needs at least one FIFO")
        names = [f.descriptor.name for f in fifos]
        if len(set(names)) != len(names):
            raise StreamError(f"duplicate stream names in SBU: {names}")
        self.fifos: List[StreamFifo] = list(fifos)

    @classmethod
    def from_descriptors(
        cls,
        descriptors: Sequence[StreamDescriptor],
        config: MemorySystemConfig,
        fifo_depth: int,
    ) -> "StreamBufferUnit":
        """Build a FIFO and its :func:`~repro.core.fifo.build_plan`
        access plan for each placed stream."""
        return cls(
            [
                StreamFifo(descriptor, fifo_depth, build_plan(descriptor, config))
                for descriptor in descriptors
            ]
        )

    def __len__(self) -> int:
        return len(self.fifos)

    def __iter__(self) -> Iterator[StreamFifo]:
        return iter(self.fifos)

    def __getitem__(self, index: int) -> StreamFifo:
        return self.fifos[index]

    @property
    def all_drained(self) -> bool:
        """True once every FIFO has finished its stream completely."""
        return all(fifo.fully_drained for fifo in self.fifos)

    # ------------------------------------------------------------------
    # StreamPort protocol (processor side)

    def cpu_can_pop(self, stream_index: int) -> bool:
        return self.fifos[stream_index].cpu_can_pop()

    def cpu_pop(self, stream_index: int) -> None:
        self.fifos[stream_index].cpu_pop()

    def cpu_can_push(self, stream_index: int) -> bool:
        return self.fifos[stream_index].cpu_can_push()

    def cpu_push(self, stream_index: int) -> None:
        self.fifos[stream_index].cpu_push()
