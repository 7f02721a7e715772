"""Page-management strategies (the page-policy registry).

Whether a bank's sense amps are precharged after an access is a
first-class strategy here, rather than a branch in every consumer (the
SBU's access-plan builder, the MSU, the natural-order controller, the
L2 streamer and the random driver): a :class:`PageManager` owns the
precharge policy and the device model consults it in exactly one place
(:meth:`repro.rdram.device.RdramDevice.issue_access`).

A manager can act at two points:

* **plan time** — a manager with ``plans_precharge = True`` (the
  classic closed-page policy) has the precharge ride the last COL
  packet of each same-row run, at zero ROW-bus cost.  The flag is all
  a policy sets: the SMC's access plan
  (:func:`repro.core.fifo.build_plan`), the line controllers and the
  traffic server each read it and mark those packets themselves.
* **run time** — managers with ``runtime = True`` are consulted on
  every access: :meth:`~PageManager.sync` materializes any precharge
  that became due while the bank sat untouched (the ``timeout``
  policy), :meth:`~PageManager.observe` feeds the access history to a
  predictor, and :meth:`~PageManager.close_after` decides whether this
  access's COL packet carries a precharge flag (the ``hybrid``
  policy).

Built-in policies: ``closed``, ``open``, ``timeout``
(auto-precharge after ``page_timeout_cycles`` idle cycles) and
``hybrid`` (a HAPPY-style per-row open/closed predictor with
saturating 2-bit counters).  To add one, subclass :class:`PageManager`
and decorate with ``@PAGE_POLICIES.register`` (see
``docs/architecture.md``).
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from repro.errors import ConfigurationError
from repro.memsys.config import MemorySystemConfig
from repro.registry import Registry


class PageManager:
    """Base strategy deciding when banks precharge.

    One manager instance serves all banks of one memory model for one
    run; per-bank state lives in instance dictionaries and is cleared
    by :meth:`reset` (called from the memory model's own ``reset``).

    Attributes:
        name: Registry name; also the ``page_policy`` spelling
            selecting it.
        plans_precharge: True if the last access of each same-row run
            carries a precharge on its COL packet, planned before the
            access issues (consumers use this where the historical
            code asked "is this a closed-page system?").
        runtime: True if the manager must be consulted on every access
            (sync/observe/close_after); False lets the paper's two
            policies skip all per-access overhead.
    """

    name = "base"
    plans_precharge = False
    runtime = False

    def sync(self, memory, bank_index: int, now: int) -> None:
        """Materialize any policy action that became due before ``now``.

        Called before a bank's state is inspected.  The event-driven
        model cannot act on a bank spontaneously, so time-based
        policies close due banks lazily here (the bank was untouched
        since the action came due, so the late materialization is
        exact).
        """

    def observe(self, memory, bank_index: int, row: int) -> None:
        """Feed one access (about to issue) to the predictor state."""

    def close_after(self, memory, bank_index: int, row: int) -> bool:
        """True to carry a precharge flag on this access's COL packet."""
        return False

    def reset(self) -> None:
        """Clear per-run state (called by the memory model's reset)."""


#: Registry of page-management strategies by name (see
#: :mod:`repro.registry`).
PAGE_POLICIES: Registry[Type[PageManager]] = Registry("page policy")


def make_page_manager(config: MemorySystemConfig) -> PageManager:
    """Instantiate the page manager the configuration names."""
    cls = PAGE_POLICIES[config.page_policy]
    if cls is TimeoutPageManager:
        return TimeoutPageManager(timeout=config.page_timeout_cycles)
    return cls()


@PAGE_POLICIES.register
class ClosedPageManager(PageManager):
    """The paper's closed-page policy, acting at plan time.

    The last access unit of every consecutive same-(bank, row) run
    carries a precharge flag on its COL packet, so the bank closes
    immediately after each burst with no ROW-bus traffic.
    """

    name = "closed"
    plans_precharge = True


@PAGE_POLICIES.register
class OpenPageManager(PageManager):
    """The paper's open-page policy: never precharge proactively.

    Banks close only when a conflicting access forces a precharge.
    """

    name = "open"


@PAGE_POLICIES.register
class TimeoutPageManager(PageManager):
    """Auto-precharge a bank left idle for ``timeout`` cycles.

    The middle ground between open and closed: row bursts still hit
    the open page, but a bank nobody revisits closes on its own, so
    the next conflicting access pays only t_RP-from-the-past instead
    of a full precharge/activate turnaround.  The precharge is
    materialized lazily at the bank's next inspection (see
    :meth:`PageManager.sync`) and is modeled like a COL-riding
    precharge: it consumes no ROW-bus bandwidth.

    Args:
        timeout: Idle cycles (since the later of the opening ACT and
            the last COL packet) before the bank closes.
    """

    name = "timeout"
    runtime = True

    def __init__(self, timeout: int = 64) -> None:
        if timeout <= 0:
            raise ConfigurationError(
                f"timeout must be positive, got {timeout}"
            )
        self.timeout = timeout

    def sync(self, memory, bank_index: int, now: int) -> None:
        bank = memory.bank(bank_index)
        if not bank.is_open:
            return
        due = max(bank.last_act_start, bank.last_col_end) + self.timeout
        if due <= now:
            memory.autoclose(bank_index, due)


@PAGE_POLICIES.register
class HybridPageManager(PageManager):
    """HAPPY-style per-row open/closed predictor.

    Each (bank, row) pair has a saturating 2-bit counter starting
    weakly open (2).  An access that re-touches the bank's previous
    row strengthens that row toward open; an access that switches the
    bank to a different row weakens the *previous* row (it would have
    been cheaper closed).  An access whose row predicts closed
    (counter < 2) carries a precharge flag on its COL packet — and if
    the prediction was wrong, the very next same-row access corrects
    the counter back toward open.
    """

    name = "hybrid"
    runtime = True

    #: Counter bounds and the open/closed decision threshold.
    SATURATION = 3
    THRESHOLD = 2

    def __init__(self) -> None:
        self._counters: Dict[Tuple[int, int], int] = {}
        self._last_row: Dict[int, int] = {}

    def observe(self, memory, bank_index: int, row: int) -> None:
        previous = self._last_row.get(bank_index)
        if previous == row:
            key = (bank_index, row)
            self._counters[key] = min(
                self.SATURATION,
                self._counters.get(key, self.THRESHOLD) + 1,
            )
        else:
            if previous is not None:
                key = (bank_index, previous)
                self._counters[key] = max(
                    0, self._counters.get(key, self.THRESHOLD) - 1
                )
            self._last_row[bank_index] = row

    def close_after(self, memory, bank_index: int, row: int) -> bool:
        return (
            self._counters.get((bank_index, row), self.THRESHOLD)
            < self.THRESHOLD
        )

    def reset(self) -> None:
        self._counters.clear()
        self._last_row.clear()
