"""Set-associative writeback cache model.

The paper's natural-order bounds deliberately idealize the cache: they
"ignore the time to write dirty cachelines back to memory" and assume
no conflict misses, while Section 6 notes that strided vectors "are
likely to generate many cache conflicts" and that measuring the impact
"is beyond the scope of this study."  This package goes there: a
plain LRU, write-allocate, writeback cache whose misses and evictions
drive the natural-order controller, so the idealized bounds can be
compared against cache-realistic traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, require_int


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of the modeled data cache.

    Defaults approximate a late-90s L1: 16 KB, direct-mapped, 32-byte
    lines (matching the memory system's cacheline).

    Attributes:
        size_bytes: Total capacity.
        associativity: Ways per set (1 = direct-mapped).
        line_bytes: Line size; must match the memory system's
            cacheline for the traffic model to line up.

    Raises:
        ConfigurationError: If a field is not a positive int (naming
            the field), or the size is not a whole number of sets.
    """

    size_bytes: int = 16 * 1024
    associativity: int = 1
    line_bytes: int = 32

    def __post_init__(self) -> None:
        for name in ("size_bytes", "associativity", "line_bytes"):
            value = require_int(name, getattr(self, name))
            if value <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {value}"
                )
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ConfigurationError(
                "cache size must be a whole number of sets: "
                f"{self.size_bytes} % "
                f"({self.associativity} * {self.line_bytes}) != 0"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one cache access.

    Attributes:
        hit: True if the line was present.
        fill_line: Line address to fetch from memory (None on hit).
        evicted_line: Victim line address displaced by the fill
            (clean or dirty), or None.
        writeback_line: Dirty victim line address to write back, or
            None (implies ``evicted_line`` when set).
    """

    hit: bool
    fill_line: Optional[int] = None
    evicted_line: Optional[int] = None
    writeback_line: Optional[int] = None


#: The outcome of every hit; frozen, so one instance serves them all.
_HIT = AccessOutcome(hit=True)


class CacheModel:
    """LRU, write-allocate, writeback cache.

    Args:
        config: Cache geometry.
    """

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        self.config = config or CacheConfig()
        # The geometry every access reads, fixed for the model's life.
        self._num_sets = self.config.num_sets
        self._ways = self.config.associativity
        self._line_bytes = self.config.line_bytes
        # Per set: line address -> dirty flag; dict order is LRU order
        # (oldest first), maintained by re-insertion on touch.
        self._sets: List[Dict[int, bool]] = [
            {} for __ in range(self._num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def access(self, address: int, is_write: bool) -> AccessOutcome:
        """Perform one byte-granularity access.

        Every hit returns the same frozen ``AccessOutcome(hit=True)``,
        so a hit allocates nothing.

        Returns:
            The fill/writeback traffic the access generates.
        """
        line = address // self._line_bytes
        lines = self._sets[line % self._num_sets]
        if line in lines:
            lines[line] = lines.pop(line) or is_write  # move to MRU
            self.hits += 1
            return _HIT
        self.misses += 1
        evicted_line = None
        writeback_line = None
        if len(lines) >= self._ways:
            victim = next(iter(lines))
            evicted_line = victim * self._line_bytes
            if lines.pop(victim):
                self.writebacks += 1
                writeback_line = evicted_line
        lines[line] = is_write
        return AccessOutcome(
            hit=False,
            fill_line=line * self._line_bytes,
            evicted_line=evicted_line,
            writeback_line=writeback_line,
        )

    def flush_dirty_lines(self) -> List[int]:
        """Drain every dirty line (end-of-computation writebacks).

        Returns:
            Byte addresses of the flushed lines, in set order.
        """
        flushed = []
        for lines in self._sets:
            for line, dirty in list(lines.items()):
                if dirty:
                    flushed.append(line * self._line_bytes)
                    lines[line] = False
        self.writebacks += len(flushed)
        return flushed

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
