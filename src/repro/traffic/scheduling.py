"""Request-scheduling strategies (the scheduler registry).

The order a channel serves its pending requests used to be hard-coded
FCFS inside :class:`~repro.traffic.driver.ChannelServer`.  This module
makes the decision a first-class strategy in a
:class:`~repro.registry.Registry`, like the address-mapping and
page-policy tables: a
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

A pick costs O(window + positions scanned), never O(queue).  The
reordering schedulers read their window in one
:meth:`~repro.traffic.driver.ChannelServer.head_bank_rows` call (the
cached plans of a static mapping).  ``frfcfs`` then syncs the window's
banks in one :meth:`~repro.rdram.device.RdramDevice.sync_banks` call
(a no-op unless the page manager has runtime behavior) and reads the
open rows in one :meth:`~repro.rdram.device.RdramDevice.open_rows`
call.  Every scheduler hands :meth:`Scheduler._first_admitted` its
preferred positions: with no regulator the first of them (or the
queue head) is served outright; a regulator is offered them first,
then the rest of the queue in arrival order, generated lazily, and
the scan stops at the first request it admits.

Parameters are checked when a scheduler is built: ``window`` and
``age_cap`` must be ints of at least 1 (bools rejected), or a
:class:`~repro.errors.ConfigurationError` names the parameter.
:meth:`Scheduler.reset` clears reordering state, and
:func:`~repro.traffic.driver.run_traffic` calls it as a run starts.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type

from repro.errors import ConfigurationError, require_int
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

    def reset(self) -> None:
        """Forget any reordering state (default: none to forget).

        :func:`~repro.traffic.driver.run_traffic` calls this as a run
        starts, so an instance passed to several runs gives each the
        result a fresh one would.
        """

    def _first_admitted(
        self,
        server: "ChannelServer",
        preferred: List[int],
        cycle: int,
    ) -> Optional["Request"]:
        """Remove and return the first admitted request, ``preferred``
        positions first.

        The queue must not be empty.  With no regulator the first
        preferred position (the queue head when none is preferred)
        wins outright.  A regulator is offered the preferred positions,
        then every other queue position in arrival order, generated
        lazily; the scan stops at the first request it admits, and each
        rejected candidate counts a regulator deferral, matching the
        historical FCFS accounting.  Returns None when the regulator
        admits none.
        """
        queue = server.queue
        regulator = server.regulator
        if regulator is None:
            position = preferred[0] if preferred else 0
        else:
            skip = set(preferred)
            rest = (
                other for other in range(len(queue)) if other not in skip
            )
            line_bytes = server.config.cacheline_bytes
            for position in chain(preferred, rest):
                request = queue[position]
                bank = server.bank_row(request)[0]
                if regulator.allows(request.client, bank, line_bytes, cycle):
                    break
                regulator.deferrals += 1
            else:
                return None
        if position == 0:
            return queue.popleft()
        request = queue[position]
        del queue[position]
        return request


#: Registry of scheduling strategies by name (see :mod:`repro.registry`).
SCHEDULERS: Registry[Type[Scheduler]] = Registry("scheduler")


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


def _check_count(name: str, label: str, value: object) -> int:
    """``value`` if it is an int of at least 1 (not a bool)."""
    if require_int(f"{name} (the {label})", value) < 1:
        raise ConfigurationError(
            f"{name} (the {label}) must be at least 1, got {value}"
        )
    return value


@SCHEDULERS.register
class FcfsScheduler(Scheduler):
    """First-come first-served: the historical server behavior."""

    name = "fcfs"

    def pick(self, server: "ChannelServer", cycle: int) -> Optional["Request"]:
        if not server.queue:
            return None
        return self._first_admitted(server, [], cycle)


@SCHEDULERS.register
class FrFcfsScheduler(Scheduler):
    """First-ready FCFS: oldest open-row hit in the window goes first.

    Args:
        window: Queue positions eligible for reordering; requests
            beyond it are served in arrival order only.
    """

    name = "frfcfs"

    def __init__(self, window: int = 16) -> None:
        self.window = _check_count("window", "reorder window", window)

    def pick(self, server: "ChannelServer", cycle: int) -> Optional["Request"]:
        if not server.queue:
            return None
        window = server.head_bank_rows(self.window)
        offset = server.bank_offset
        memory = server.memory
        # Every window position's bank is synced, in order, even when
        # an early one hits, so runtime page managers see the same sync
        # calls whatever the pick.
        memory.sync_banks((bank - offset for bank, _ in window), cycle)
        open_rows = memory.open_rows()
        hits = [
            position
            for position, (bank, row) in enumerate(window)
            if open_rows[bank - offset] == row
        ]
        return self._first_admitted(server, hits, cycle)


@SCHEDULERS.register
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
        self.window = _check_count("window", "reorder window", window)
        self.age_cap = _check_count("age_cap", "starvation age cap", age_cap)
        self._active_batch: Optional[Tuple[int, int]] = None

    def reset(self) -> None:
        self._active_batch = None

    def pick(self, server: "ChannelServer", cycle: int) -> Optional["Request"]:
        queue = server.queue
        if not queue:
            return None
        if cycle - queue[0].arrival >= self.age_cap:
            preferred: List[int] = []
        else:
            batches: Dict[Tuple[int, int], List[int]] = {}
            for position, key in enumerate(
                server.head_bank_rows(self.window)
            ):
                batches.setdefault(key, []).append(position)
            if self._active_batch in batches:
                chosen = self._active_batch
            else:
                # Largest batch; ties break toward the older batch head.
                chosen = max(
                    batches,
                    key=lambda key: (len(batches[key]), -batches[key][0]),
                )
            preferred = batches[chosen]
        request = self._first_admitted(server, preferred, cycle)
        if request is not None:
            self._active_batch = server.bank_row(request)
        return request
