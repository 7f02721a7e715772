"""SMC vs natural order on the fast-page-mode system.

Replays the Section 3 comparison on the serial FPM memory: the
natural-order processor touches one element of each stream per
iteration (thrashing the open rows whenever streams share a bank),
while the SMC's MSU services one FIFO at a time in bursts of up to the
FIFO depth, turning almost every access into a page hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import ConfigurationError, require_int
from repro.cpu.kernels import Kernel
from repro.cpu.streams import Alignment, StreamDescriptor, check_extent
from repro.fpm.device import FpmGeometry, FpmMemorySystem
from repro.memsys.config import ELEMENT_BYTES


@dataclass(frozen=True)
class FpmResult:
    """Outcome of one FPM run.

    Attributes:
        kernel: Kernel name.
        scheme: "natural-order" or "smc".
        total_ns: Time to complete every access.
        accesses: Word accesses performed.
        page_hit_rate: Fraction of accesses that hit an open row.
        percent_of_attainable: Delivered fraction of the all-hits
            bandwidth (the paper's §3 "attainable bandwidth").
    """

    kernel: str
    scheme: str
    total_ns: float
    accesses: int
    page_hit_rate: float
    percent_of_attainable: float


def _place(kernel: Kernel, geometry: FpmGeometry, length: int, stride: int,
           alignment: Alignment) -> List[StreamDescriptor]:
    """Vector placement for the FPM system.

    Staggered: vector k starts in bank k mod num_banks (its own page
    run); aligned: every vector starts in bank 0's page space, so
    natural-order accesses thrash a single open row.
    """
    rotation = geometry.num_banks * geometry.page_bytes
    footprint = ((length - 1) * stride + 1) * ELEMENT_BYTES
    region = -(-footprint // rotation) * rotation
    vectors = {}
    placed = []
    for spec in kernel.streams:
        if spec.vector not in vectors:
            index = len(vectors)
            offset = (
                (index % geometry.num_banks) * geometry.page_bytes
                if alignment is Alignment.STAGGERED
                else 0
            )
            vectors[spec.vector] = index * region + offset
        placed.append(
            StreamDescriptor(
                name=spec.name,
                base=vectors[spec.vector] + spec.offset * stride * ELEMENT_BYTES,
                stride=stride * spec.stride_factor,
                length=length,
                direction=spec.direction,
            )
        )
    return placed


def run_fpm(
    kernel: Kernel,
    scheme: str = "smc",
    length: int = 1024,
    fifo_depth: int = 32,
    stride: int = 1,
    alignment: Alignment = Alignment.ALIGNED,
    memory: Optional[FpmMemorySystem] = None,
) -> FpmResult:
    """Run one kernel on the FPM system under a given scheme.

    Args:
        kernel: The inner loop.
        scheme: "natural-order" (element accesses in program order) or
            "smc" (round-robin FIFO bursts of up to ``fifo_depth``).
        length: Vector length in elements.
        fifo_depth: SMC burst size, in elements.
        stride: Stride in elements.
        alignment: ALIGNED puts every vector in bank 0's pages (the
            worst case the paper's §3 hardware faced); STAGGERED gives
            each vector its own starting bank.
        memory: A pre-built memory system (defaults to the paper's
            2-bank, 1 KB-page configuration).

    Returns:
        The run's bandwidth accounting.

    Raises:
        ConfigurationError: On an unknown scheme, or a ``fifo_depth``
            that is not an int of at least 1.
        StreamError: On a ``length`` or ``stride`` that is not a
            positive int.
    """
    if scheme not in ("natural-order", "smc"):
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    check_extent(kernel.streams[0].name, length, stride)
    if require_int("fifo_depth", fifo_depth) < 1:
        raise ConfigurationError(
            f"fifo_depth must be at least 1, got {fifo_depth}"
        )
    memory = memory or FpmMemorySystem()
    memory.reset()
    descriptors = _place(kernel, memory.geometry, length, stride, alignment)
    if scheme == "natural-order":
        addresses = (
            descriptor.element_address(index)
            for index in range(length)
            for descriptor in descriptors
        )
    else:
        addresses = _smc_access_order(descriptors, length, fifo_depth)
    # The FPM memory is serial (one access at a time, float-ns clock):
    # each access starts when the previous one ends.
    now = 0.0
    for address in addresses:
        now = memory.access(address, now)
    accesses = memory.accesses
    attainable_ns = accesses * memory.timing.t_pc_ns
    return FpmResult(
        kernel=kernel.name,
        scheme=scheme,
        total_ns=now,
        accesses=accesses,
        page_hit_rate=memory.page_hits / accesses if accesses else 0.0,
        percent_of_attainable=100.0 * attainable_ns / now if now else 0.0,
    )


def _smc_access_order(
    descriptors: List[StreamDescriptor], length: int, fifo_depth: int
) -> Iterator[int]:
    """Addresses in the MSU's round-robin burst order."""
    cursors = [0] * len(descriptors)
    while any(c < length for c in cursors):
        for which, descriptor in enumerate(descriptors):
            burst_end = min(cursors[which] + fifo_depth, length)
            while cursors[which] < burst_end:
                yield descriptor.element_address(cursors[which])
                cursors[which] += 1

