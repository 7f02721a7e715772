"""Request-scheduling strategies (the scheduler registry).

The order a channel serves its pending requests used to be hard-coded
FCFS inside :class:`~repro.traffic.driver.ChannelServer`.  This module
makes the decision a first-class strategy with the same
register/list/factory shape as the address-mapping and page-policy
registries (all built on :mod:`repro.registry`): a
:class:`Scheduler` owns the pick, the server calls it in exactly one
place, and configurations select one by registry name.

Built-in schedulers:

* **fcfs** — first-come first-served: the historical behavior,
  byte-identical to the pre-registry server (including the regulator
  scan order and deferral accounting).
* **frfcfs** — first-ready FCFS: within a bounded window at the head
  of the queue, the oldest request whose target row is already open
  in its bank goes first; with no ready request, plain FCFS.
* **mars** — MARS-style batch reordering: requests in the window are
  grouped by (bank, row); the server keeps draining the batch it last
  served (page hits back to back), otherwise starts the largest
  batch.  A starvation age cap bounds the reordering: once the oldest
  request has waited ``age_cap`` cycles the scheduler reverts to
  strict FCFS until it drains.

Schedulers may carry per-channel state (``mars`` remembers its active
batch), so each :class:`~repro.traffic.driver.ChannelServer` owns one
instance — build them through :func:`make_scheduler`, once per server.

A pick costs O(window + positions scanned), never O(queue): the
reordering schedulers inspect only the window, and hand
:meth:`Scheduler._first_admitted` a lazy candidate order (preferred
positions first, then the rest of the queue in arrival order), which
stops at the first request the regulator admits — at once when there
is no regulator.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple, Type

from repro.errors import ConfigurationError
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.traffic.driver import ChannelServer
    from repro.traffic.workload import Request


class Scheduler:
    """Base strategy picking the next request a channel serves.

    One scheduler instance serves one channel for one run; any
    reordering state lives on the instance.

    Attributes:
        name: Registry name; also the ``scheduler`` spelling selecting
            it in :func:`~repro.traffic.driver.run_traffic`.
    """

    name = "base"

    def pick(self, server: "ChannelServer", cycle: int) -> Optional["Request"]:
        """Remove and return the request to serve now, or None.

        None means either the queue is empty or (with a regulator
        attached) every queued client is over budget; the server then
        sleeps to the next regulator window.
        """
        raise NotImplementedError

    def _first_admitted(
        self,
        server: "ChannelServer",
        positions: Iterable[int],
        cycle: int,
    ) -> Optional["Request"]:
        """Serve the first position the regulator admits.

        With no regulator the first position wins outright.  Rejected
        candidates count a regulator deferral each, matching the
        historical FCFS accounting.
        """
        regulator = server.regulator
        if regulator is None:
            for position in positions:
                request = server.queue[position]
                del server.queue[position]
                return request
            return None
        line_bytes = server.config.cacheline_bytes
        for position in positions:
            request = server.queue[position]
            bank = server.bank_row(request)[0]
            if regulator.allows(request.client, bank, line_bytes, cycle):
                del server.queue[position]
                return request
            regulator.deferrals += 1
        return None

    @staticmethod
    def _preferred_first(
        server: "ChannelServer", preferred: List[int]
    ) -> Iterable[int]:
        """``preferred`` positions, then every other queue position in
        arrival order, generated lazily."""
        skip = set(preferred)
        rest = (
            position
            for position in range(len(server.queue))
            if position not in skip
        )
        return chain(preferred, rest)


#: Registry of scheduling strategies by name (see :mod:`repro.registry`).
SCHEDULERS: Registry[Type[Scheduler]] = Registry(
    "scheduler",
    class_label="scheduler class",
    unknown_template=(
        "unknown scheduler {name!r}; registered schedulers: {names}"
    ),
)


def register_scheduler(cls: Type[Scheduler]) -> Type[Scheduler]:
    """Class decorator adding a scheduler to the registry by its name."""
    return SCHEDULERS.register(cls)


def list_schedulers() -> List[str]:
    """Registered scheduler names, sorted."""
    return SCHEDULERS.names()


def make_scheduler(name: str, **params) -> Scheduler:
    """Instantiate the named scheduler (one instance per channel).

    Keyword arguments are forwarded to the scheduler's constructor
    (e.g. ``make_scheduler("mars", window=16, age_cap=256)``).

    Raises:
        ConfigurationError: If no scheduler is registered under
            ``name`` (the message lists the registered names).
    """
    cls = SCHEDULERS.resolve(name)
    return cls(**params)


@register_scheduler
class FcfsScheduler(Scheduler):
    """First-come first-served: the historical server behavior."""

    name = "fcfs"

    def pick(self, server: "ChannelServer", cycle: int) -> Optional["Request"]:
        if server.regulator is None:
            return server.queue.popleft() if server.queue else None
        return self._first_admitted(server, range(len(server.queue)), cycle)


@register_scheduler
class FrFcfsScheduler(Scheduler):
    """First-ready FCFS: oldest open-row hit in the window goes first.

    Args:
        window: Queue positions eligible for reordering; requests
            beyond it are served in arrival order only.
    """

    name = "frfcfs"

    def __init__(self, window: int = 16) -> None:
        if window < 1:
            raise ConfigurationError(
                f"reorder window must be at least 1, got {window}"
            )
        self.window = window

    def _row_hit(
        self, server: "ChannelServer", request: "Request", cycle: int
    ) -> bool:
        bank, row = server.bank_row(request)
        local = bank - server.bank_offset
        server.memory.sync_bank(local, cycle)
        return server.memory.open_row(local) == row

    def pick(self, server: "ChannelServer", cycle: int) -> Optional["Request"]:
        queue = server.queue
        if not queue:
            return None
        # Every window position is checked (and its bank synced) even
        # when an early one hits, so runtime page managers see the
        # same sync calls whatever the pick.
        hits = [
            position
            for position in range(min(self.window, len(queue)))
            if self._row_hit(server, queue[position], cycle)
        ]
        return self._first_admitted(
            server, self._preferred_first(server, hits), cycle
        )


@register_scheduler
class MarsScheduler(Scheduler):
    """MARS-style batching: group the window by (bank, row), drain
    batches back to back, bounded by a starvation age cap.

    Requests in the reorder window are grouped by their target
    (bank, row).  The scheduler keeps serving the batch it served
    last — turning a hot row's requests into consecutive page hits —
    and when that batch drains, starts the largest remaining one.
    Fairness is bounded: once the oldest queued request has waited
    ``age_cap`` cycles, the scheduler serves strictly in arrival
    order until the backlog clears.

    Args:
        window: Queue positions eligible for batching.
        age_cap: Cycles the oldest request may wait before the
            scheduler reverts to FCFS.
    """

    name = "mars"

    def __init__(self, window: int = 32, age_cap: int = 512) -> None:
        if window < 1:
            raise ConfigurationError(
                f"reorder window must be at least 1, got {window}"
            )
        if age_cap < 1:
            raise ConfigurationError(
                f"starvation age cap must be at least 1, got {age_cap}"
            )
        self.window = window
        self.age_cap = age_cap
        self._active_batch: Optional[Tuple[int, int]] = None

    def pick(self, server: "ChannelServer", cycle: int) -> Optional["Request"]:
        queue = server.queue
        if not queue:
            return None
        if cycle - queue[0].arrival >= self.age_cap:
            order: Iterable[int] = range(len(queue))
        else:
            batches: dict = {}
            for position in range(min(self.window, len(queue))):
                batches.setdefault(
                    server.bank_row(queue[position]), []
                ).append(position)
            if self._active_batch in batches:
                chosen = self._active_batch
            else:
                # Largest batch; ties break toward the older batch head.
                chosen = max(
                    batches,
                    key=lambda key: (len(batches[key]), -batches[key][0]),
                )
            order = self._preferred_first(server, batches[chosen])
        request = self._first_admitted(server, order, cycle)
        if request is not None:
            self._active_batch = server.bank_row(request)
        return request
