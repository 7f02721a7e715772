"""Synthetic multi-client request generation.

Models an open-loop population of clients: arrivals form a merged
Poisson process (exponential inter-arrival gaps at the aggregate
rate), each arrival is attributed to a uniformly chosen client, and
the client picks a cacheline from its private Zipf-distributed hot
set — or, with probability ``1 - hot_fraction``, from the whole
address space.  Everything is drawn from seeded PRNGs in a fixed
order, so a workload is bit-reproducible per seed.

Zipf hot sets concentrate traffic: with exponent ``s``, the k-th
hottest line of a client's set is drawn with weight ``1/k^s``, so a
handful of lines (and therefore banks) absorb most of a hot client's
traffic — the contention pattern bank-budget regulation exists to
contain.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from itertools import accumulate
from math import isfinite, log
from typing import Callable, Dict, List, Optional, Tuple, cast

from repro.errors import ConfigurationError, require_int
from repro.memsys.address import AddressMapping
from repro.rdram.packets import BusDirection


@dataclass(frozen=True)
class Request:
    """One client's cacheline request.

    Attributes:
        arrival: Interface-clock cycle the request enters the system.
        client: Issuing client's index.
        address: Cacheline-aligned byte address.
        direction: READ or WRITE.
    """

    arrival: int
    client: int
    address: int
    direction: BusDirection


@dataclass(frozen=True)
class TrafficWorkload:
    """Parameters of one synthetic client population.

    Attributes:
        clients: Number of concurrent clients.
        requests: Total requests offered over the run.
        mean_gap: Mean cycles between successive arrivals (aggregate
            Poisson rate is ``1 / mean_gap`` requests per cycle).
        zipf_s: Zipf exponent of each client's hot-set distribution
            (larger = more skewed; 0 = uniform over the hot set).
        hot_lines: Cachelines in each client's private hot set.
        hot_fraction: Probability a request targets the client's hot
            set rather than a uniformly random line.
        write_fraction: Fraction of requests that are writes.
        seed: PRNG seed; workloads are bit-reproducible per seed.
    """

    clients: int = 1024
    requests: int = 2048
    mean_gap: float = 4.0
    zipf_s: float = 1.2
    hot_lines: int = 64
    hot_fraction: float = 0.9
    write_fraction: float = 0.25
    seed: int = 1

    def __post_init__(self) -> None:
        for name in ("clients", "requests", "hot_lines"):
            value = getattr(self, name)
            if require_int(name, value) < 1:
                raise ConfigurationError(
                    f"{name} must be at least 1, got {value}"
                )
        for name in ("mean_gap", "zipf_s"):
            value = getattr(self, name)
            if not isfinite(value):
                raise ConfigurationError(
                    f"{name} must be finite, got {value!r}"
                )
        if self.mean_gap <= 0:
            raise ConfigurationError("mean_gap must be positive")
        if self.zipf_s < 0:
            raise ConfigurationError("zipf_s must be non-negative")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigurationError("hot_fraction must be in [0, 1]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError("write_fraction must be in [0, 1]")


def _zipf_cdf(hot_lines: int, s: float) -> List[float]:
    """Cumulative Zipf weights for ranks 1..hot_lines."""
    weights = [1.0 / (rank ** s) for rank in range(1, hot_lines + 1)]
    total = sum(weights)
    return [w / total for w in accumulate(weights)]


def _randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform draw from ``range(n)``, consuming the generator exactly
    as ``Random.randrange(n)`` does.

    For every ``n > 0``, CPython 3.9 through 3.13 implement
    ``randrange(n)`` as ``Random._randbelow_with_getrandbits``: draw
    ``getrandbits(n.bit_length())`` and redraw while the result is
    ``>= n``.  Calling ``getrandbits`` here skips the two Python frames
    around it.  ``tests/test_traffic.py::TestDrawIdentity`` pins the
    equality against the stdlib calls.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _client_hot_set(
    seed: int, client: int, hot_lines: int, total_lines: int
) -> Tuple[int, ...]:
    """The first ``hot_lines`` lines of a client's private hot set,
    deterministic per (seed, client).

    The set has its own generator, so its first k lines are the same
    whatever depth is drawn: a shallower draw is a prefix of a deeper
    one.
    """
    rng = random.Random(seed * 1_000_003 + client * 7_919 + 17)
    getrandbits = rng.getrandbits
    return tuple([_randbelow(getrandbits, total_lines) for _ in range(hot_lines)])


def generate_requests(
    workload: TrafficWorkload, mapping: AddressMapping
) -> List[Request]:
    """Draw the workload's full request list, sorted by arrival.

    Each request draws, in order: its arrival gap, its client, hot or
    cold, then its Zipf rank or cold line, then its direction.  The
    draws are those of ``Random.expovariate``, ``randrange`` and
    ``random`` made without their Python frames (see
    :func:`_randbelow`), so the stream is the one those calls give.

    Hot requests are resolved once the stream is drawn: each client's
    hot set is drawn only as deep as the deepest rank its requests
    use.  Hot sets come from per-client generators, independent of the
    stream's, so the lines are those of a full-depth set.

    Args:
        workload: Population parameters.
        mapping: The system's address mapping; its capacity bounds the
            address space and its config fixes the cacheline size.

    Returns:
        ``workload.requests`` requests in arrival order.
    """
    line_bytes = mapping.config.cacheline_bytes
    total_lines = mapping.capacity_bytes // line_bytes
    hot_lines = min(workload.hot_lines, total_lines)
    last_rank = hot_lines - 1
    rng = random.Random(workload.seed)
    getrandbits = rng.getrandbits
    draw = rng.random
    bisect_left = bisect.bisect_left
    cdf = _zipf_cdf(hot_lines, workload.zipf_s)
    # Random.expovariate(lambd) is -log(1.0 - random()) / lambd; keep
    # the division so the gaps round exactly as it rounds them.
    lambd = 1.0 / workload.mean_gap
    clients = workload.clients
    hot_fraction = workload.hot_fraction
    write_fraction = workload.write_fraction
    read, write = BusDirection.READ, BusDirection.WRITE
    # Client -> hot-set depth its requests need (deepest rank + 1).
    depths: Dict[int, int] = {}
    # (index, client, rank, arrival, direction) of each hot request,
    # whose slot in `requests` holds None until its line is known.
    hot: List[Tuple[int, int, int, int, BusDirection]] = []
    requests: List[Optional[Request]] = []
    append = requests.append
    clock = 0.0
    for index in range(workload.requests):
        clock += -log(1.0 - draw()) / lambd
        client = _randbelow(getrandbits, clients)
        if draw() < hot_fraction:
            # bisect can land one past the end when rounding leaves
            # cdf[-1] marginally below 1.0; clamp to the coldest rank.
            rank = min(bisect_left(cdf, draw()), last_rank)
            if depths.get(client, 0) <= rank:
                depths[client] = rank + 1
            hot.append(
                (
                    index,
                    client,
                    rank,
                    int(clock),
                    write if draw() < write_fraction else read,
                )
            )
            append(None)
        else:
            line = _randbelow(getrandbits, total_lines)
            append(
                Request(
                    int(clock),
                    client,
                    line * line_bytes,
                    write if draw() < write_fraction else read,
                )
            )
    seed = workload.seed
    hot_sets = {
        client: _client_hot_set(seed, client, depth, total_lines)
        for client, depth in depths.items()
    }
    for index, client, rank, arrival, direction in hot:
        requests[index] = Request(
            arrival, client, hot_sets[client][rank] * line_bytes, direction
        )
    return cast(List[Request], requests)
