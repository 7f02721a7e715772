"""Indexed (gather/scatter) streams through the SMC.

The paper's related work points at the Impulse memory controller,
which "dynamically remaps physical memory to support scatter/gather
operations to sparse or non-contiguous data structures", and notes
"Our dynamic access ordering approach can be adapted to further
improve bandwidth utilization between the Impulse controller and main
memory."  This module is that adaptation: a stream whose element
addresses come from an explicit index vector instead of an affine
stride, run through the unmodified SBU/MSU/device stack.

Because the MSU's access planning works from element addresses, the
entire machinery — packet merging, page-run detection, closed-page
precharge flags, bank accounting — applies to gathers unchanged, and
the experiments show exactly the paper's thesis transplanted to
irregular access: *order determines bandwidth*.  A gather over a
sorted index vector enjoys page locality; the same gather with a
shuffled index vector pays a row activation per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import StreamError
from repro.core.policies import SchedulingPolicy
from repro.core.smc import SmcSystem, build_smc_system
from repro.cpu.kernels import Kernel
from repro.cpu.streams import Direction, StreamSpec
from repro.memsys.config import ELEMENT_BYTES, MemorySystemConfig
from repro.sim.results import SimulationResult


@dataclass(frozen=True)
class IndexedStreamDescriptor:
    """A stream addressed through an explicit index vector.

    Duck-compatible with
    :class:`~repro.cpu.streams.StreamDescriptor` everywhere the SMC
    needs one; ``stride`` reports 0 to mark the access pattern as
    indexed.

    Attributes:
        name: Stream name.
        base: Byte address of the underlying vector's element 0.
        indices: Element index touched on each iteration.
        direction: READ (gather) or WRITE (scatter).
    """

    name: str
    base: int
    indices: Tuple[int, ...]
    direction: Direction

    def __post_init__(self) -> None:
        if self.base % ELEMENT_BYTES:
            raise StreamError(
                f"stream {self.name}: base {self.base:#x} not aligned to "
                f"{ELEMENT_BYTES}-byte elements"
            )
        if not self.indices:
            raise StreamError(f"stream {self.name}: empty index vector")
        if any(index < 0 for index in self.indices):
            raise StreamError(f"stream {self.name}: negative index")

    @property
    def length(self) -> int:
        return len(self.indices)

    @property
    def stride(self) -> int:
        """Reported stride; 0 flags an indexed access pattern."""
        return 0

    @property
    def is_read(self) -> bool:
        return self.direction is Direction.READ

    @property
    def footprint_bytes(self) -> int:
        return (max(self.indices) + 1) * ELEMENT_BYTES

    def element_address(self, position: int) -> int:
        if not 0 <= position < len(self.indices):
            raise StreamError(
                f"stream {self.name}: position {position} outside "
                f"0..{len(self.indices) - 1}"
            )
        return self.base + self.indices[position] * ELEMENT_BYTES


def build_gather_system(
    descriptors: Sequence[object],
    config: MemorySystemConfig,
    fifo_depth: int,
    policy: Optional[SchedulingPolicy] = None,
    record_trace: bool = False,
    name: str = "gather",
) -> SmcSystem:
    """Wire indexed and/or dense streams into an SMC system.

    All descriptors must have equal length (the processor touches one
    element of each per iteration, as in the paper's loop model).  The
    system is :func:`~repro.core.smc.build_smc_system`'s, on the same
    memory, page manager and address mapping a dense kernel gets.

    Args:
        descriptors: Placed stream descriptors, indexed or dense, in
            access order.
        config: Memory organization.
        fifo_depth: FIFO depth in elements.
        policy: MSU policy (paper round-robin by default).
        record_trace: Record packets for auditing.
        name: Kernel name for reports.

    Returns:
        A system ready for :func:`repro.sim.engine.run_smc`.
    """
    descriptors = list(descriptors)
    if not descriptors:
        raise StreamError("gather system needs at least one stream")
    lengths = {d.length for d in descriptors}
    if len(lengths) != 1:
        raise StreamError(
            f"streams must have equal length, got {sorted(lengths)}"
        )
    length = lengths.pop()
    kernel = Kernel(
        name=name,
        expression="indexed gather/scatter",
        streams=tuple(
            StreamSpec(name=d.name, vector=d.name, direction=d.direction)
            for d in descriptors
        ),
    )
    return build_smc_system(
        kernel,
        config,
        length=length,
        fifo_depth=fifo_depth,
        policy=policy,
        record_trace=record_trace,
        descriptors=descriptors,
    )


def simulate_gather(
    indices: Sequence[int],
    organization: MemorySystemConfig,
    fifo_depth: int = 64,
    vector_base: int = 0,
    output_base: Optional[int] = None,
    policy: Optional[SchedulingPolicy] = None,
    record_trace: bool = False,
) -> SimulationResult:
    """Simulate ``y[i] = x[indices[i]]`` — a gather into a dense vector.

    Args:
        indices: Element indices into the source vector x.
        organization: Memory organization.
        fifo_depth: FIFO depth in elements.
        vector_base: Byte address of x.
        output_base: Byte address of y; defaults to a bank-rotation-
            aligned region past x's footprint.
        policy: MSU policy.
        record_trace: Record packets for auditing.

    Returns:
        The simulation result.
    """
    from repro.cpu.streams import StreamDescriptor
    from repro.sim.engine import run_smc

    gather = IndexedStreamDescriptor(
        name="x.gather",
        base=vector_base,
        indices=tuple(indices),
        direction=Direction.READ,
    )
    if output_base is None:
        rotation = (
            organization.geometry.num_banks * organization.geometry.page_bytes
        )
        past = vector_base + gather.footprint_bytes
        output_base = -(-past // rotation) * rotation
    dense = StreamDescriptor(
        name="y",
        base=output_base,
        stride=1,
        length=len(indices),
        direction=Direction.WRITE,
    )
    system = build_gather_system(
        [gather, dense],
        organization,
        fifo_depth=fifo_depth,
        policy=policy,
        record_trace=record_trace,
    )
    return run_smc(system, audit=record_trace)
