"""How fast the host runs Python right now, from a fixed reference loop.

The benchmark shares its machine with other work, and the speed at
which the machine runs the interpreter drifts by ten percent or more
within seconds.  That drift moves every host-time measurement of the
simulator together with the time of a fixed pure-Python loop, so the
harness times the loop right before each public call and reports the
call's host time scaled to a host on which :func:`reference` takes
:data:`REFERENCE_S` seconds.  The loop exercises what the simulator
spends its time on (object creation, attribute and dict access, deque
operations, integer arithmetic) and must never change: editing it or
:data:`REFERENCE_S` rescales every end-to-end timing.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict

#: Seconds :func:`reference` took on the machine the baseline was
#: measured on (x86_64, Python 3.11); host times are scaled to it.
REFERENCE_S = 0.0135


class _Item:
    __slots__ = ("key", "value", "due")

    def __init__(self, key: int, value: int, due: int) -> None:
        self.key = key
        self.value = value
        self.due = due


def reference(iterations: int = 16_000) -> int:
    """A fixed event-queue-like loop; returns a checksum."""
    queue: Deque[_Item] = deque()
    table: Dict[int, int] = {}
    total = 0
    clock = 0
    for i in range(iterations):
        clock += (i * 2654435761) % 7 + 1
        item = _Item(i % 61, i, clock + i % 13)
        queue.append(item)
        table[item.key] = table.get(item.key, 0) + 1
        while queue and queue[0].due <= clock:
            head = queue.popleft()
            total += head.value if head.key & 1 else -head.value
            total += max(head.due, clock) - min(head.due, clock)
    return total + len(table)


def reference_seconds() -> float:
    """Host seconds one :func:`reference` run takes now."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start
