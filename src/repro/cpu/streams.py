"""Stream (vector) descriptors and data placement.

A *stream* is the unit the SMC schedules: a base address, a stride (in
64-bit elements), a length, and a direction.  Following the paper's
footnote, a read-modify-write vector constitutes two streams — a
read-stream and a write-stream over the same addresses — so kernels
tag each stream with the *vector* it traverses and placement assigns
one base per vector.

Placement implements the two layouts Section 4.2 simulates:

* **aligned** — every vector's base maps to the same RDRAM bank, the
  worst case: the MSU incurs a bank conflict whenever it switches
  FIFOs.
* **staggered** — bases are offset so vectors start in different,
  maximally separated banks (vector *k* of *n* starts at bank
  ``k * num_banks // n``), the favorable case.

Section 4.1's assumptions are honored: vectors are aligned to
cacheline boundaries, are a multiple of the cacheline size in length,
and distinct vectors share no DRAM pages (each vector gets its own
bank-aligned region).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.errors import ConfigurationError, StreamError, require_int
from repro.memsys.config import ELEMENT_BYTES, Interleaving, MemorySystemConfig


class Direction(enum.Enum):
    """Whether the processor reads or writes a stream."""

    READ = "read"
    WRITE = "write"


class Alignment(enum.Enum):
    """Relative placement of vector base addresses (Section 4.2)."""

    ALIGNED = "aligned"
    STAGGERED = "staggered"


@dataclass(frozen=True)
class StreamSpec:
    """A stream as declared by a kernel, before placement.

    A subscript of the form ``v[s*i + c]`` in the loop body becomes a
    stream over vector ``v`` with ``stride_factor`` s and ``offset`` c;
    the hand-written paper kernels all use the default s=1, c=0 (the
    Section 4.1 simplification), while the compiler front end emits
    the general form (e.g. hydro's ``zx[i+10]`` / ``zx[i+11]``).

    Attributes:
        name: Unique stream name within the kernel (e.g. ``"y.rd"``).
        vector: Vector identifier; streams sharing a vector share a
            base address (read-modify-write, offset reads).
        direction: READ or WRITE.
        offset: Constant element offset from the vector base (c).
        stride_factor: Index coefficient (s); the placed stream's
            stride is ``s`` times the computation's stride.
    """

    name: str
    vector: str
    direction: Direction
    offset: int = 0
    stride_factor: int = 1


def check_extent(name: str, length: object, stride: object) -> None:
    """Reject a length or stride of stream ``name`` that is not a positive int.

    Raises:
        StreamError: Naming the stream and the bad field.
    """
    if require_int(f"stream {name}: stride", stride, StreamError) <= 0:
        raise StreamError(f"stream {name}: stride must be positive")
    if require_int(f"stream {name}: length", length, StreamError) <= 0:
        raise StreamError(f"stream {name}: length must be positive")


@dataclass(frozen=True)
class StreamDescriptor:
    """A placed stream: what the compiler transmits to the SMC.

    This is the run-time information Section 3 describes the compiler
    sending to the hardware: base address, stride, number of elements,
    and whether the stream is read or written.

    Attributes:
        name: Stream name.
        base: Byte address of element 0; must be element-aligned.
        stride: Distance between consecutive elements, in 64-bit words.
        length: Number of elements.
        direction: READ or WRITE.
    """

    name: str
    base: int
    stride: int
    length: int
    direction: Direction

    def __post_init__(self) -> None:
        if self.base % ELEMENT_BYTES:
            raise StreamError(
                f"stream {self.name}: base {self.base:#x} not aligned to "
                f"{ELEMENT_BYTES}-byte elements"
            )
        check_extent(self.name, self.length, self.stride)

    def element_address(self, index: int) -> int:
        """Byte address of element ``index``.

        Raises:
            StreamError: If ``index`` is outside the stream.
        """
        if not 0 <= index < self.length:
            raise StreamError(
                f"stream {self.name}: element {index} outside 0..{self.length - 1}"
            )
        return self.base + index * self.stride * ELEMENT_BYTES

    @property
    def footprint_bytes(self) -> int:
        """Bytes from the base through the last element, inclusive."""
        return ((self.length - 1) * self.stride + 1) * ELEMENT_BYTES

    @property
    def is_read(self) -> bool:
        return self.direction is Direction.READ


def place_streams(
    specs: Iterable[StreamSpec],
    config: MemorySystemConfig,
    length: int,
    stride: int = 1,
    alignment: Alignment = Alignment.STAGGERED,
) -> List[StreamDescriptor]:
    """Assign base addresses to a kernel's streams.

    Each distinct vector receives a region aligned to a full
    bank-rotation boundary (num_banks * page_bytes), guaranteeing that
    distinct vectors share no pages.  ALIGNED placement leaves every
    base at the start of its region (all in bank 0); STAGGERED offsets
    vector *k* by *k* interleave units (cachelines for CLI, pages for
    PI) so consecutive vectors begin in different banks.

    Args:
        specs: Stream declarations in kernel order.
        config: Memory-system configuration (supplies the address map
            granularities and capacity check).
        length: Elements per stream.
        stride: Stride in elements, shared by all streams (Section 4.1
            models all vectors with equal stride, length and size).
        alignment: ALIGNED or STAGGERED placement.

    Returns:
        Placed descriptors, in the order of ``specs``.

    Raises:
        ConfigurationError: If the placement exceeds device capacity.
    """
    specs = list(specs)
    if specs:
        # The placement arithmetic below needs int extents; check them
        # first, as the first stream's descriptor would.
        check_extent(specs[0].name, length, stride)
    num_banks = config.geometry.num_banks
    rotation = num_banks * config.geometry.page_bytes
    max_factor = max((spec.stride_factor for spec in specs), default=1)
    max_offset = max((spec.offset for spec in specs), default=0)
    footprint = (
        (length - 1) * stride * max_factor + max_offset + 1
    ) * ELEMENT_BYTES
    if config.interleaving is Interleaving.CACHELINE:
        stagger_unit = config.cacheline_bytes
    else:
        stagger_unit = config.geometry.page_bytes
    num_vectors = len({spec.vector for spec in specs})
    max_stagger = stagger_unit * (num_banks - 1)
    region = -(-(footprint + max_stagger) // rotation) * rotation

    def stagger(index: int) -> int:
        """Offset spreading vector bases evenly across the banks."""
        if alignment is Alignment.ALIGNED:
            return 0
        return (index * num_banks // num_vectors) * stagger_unit

    vectors: Dict[str, int] = {}
    for spec in specs:
        if spec.vector not in vectors:
            index = len(vectors)
            vectors[spec.vector] = index * region + stagger(index)

    total = len(vectors) * region
    if total > config.geometry.capacity_bytes:
        raise ConfigurationError(
            f"placement needs {total} bytes but the device holds "
            f"{config.geometry.capacity_bytes}"
        )

    return [
        StreamDescriptor(
            name=spec.name,
            base=vectors[spec.vector] + spec.offset * stride * ELEMENT_BYTES,
            stride=stride * spec.stride_factor,
            length=length,
            direction=spec.direction,
        )
        for spec in specs
    ]
