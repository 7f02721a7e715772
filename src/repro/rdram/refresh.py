"""Distributed refresh engine for the Direct RDRAM device.

The paper ignores refresh ("refresh delays and page miss overheads
... are ignored", Section 4.1).  This engine exists to *validate* that
assumption: DRAM cells need every row refreshed within the retention
window (32 ms for the 64 Mbit generation), which a controller meets by
issuing one activate/precharge pair per (bank, row) on a fixed cadence
— 8 banks x 1024 rows over 32 ms is one refresh every ~3.9 us, i.e.
every ~1562 interface-clock cycles.  The refresh ablation experiment
shows the resulting bandwidth loss is well under the paper's noise
floor.

The engine refreshes in the background: when a refresh comes due and
its target bank (or, on double-bank cores, a neighbor) is busy, the
refresh is deferred briefly; after :data:`FORCE_AFTER` deferrals the
engine closes the page itself, modeling a real controller's refresh
deadline taking priority over open-page policy.

The engine is a passive :class:`~repro.sim.kernel.Simulation`
component: a pending refresh is not forward progress for the
computation, so it never masks a deadlock.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.errors import ConfigurationError, require_int
from repro.obs.core import Instrumentation
from repro.rdram.device import RdramDevice

#: Cycles between refreshes so all banks x rows fit in a 32 ms
#: retention window at 400 MHz: 32e-3 / (8 * 1024) / 2.5e-9.
DEFAULT_INTERVAL_CYCLES = 1562

#: Cycles to wait before retrying a deferred refresh.
RETRY_CYCLES = 16

#: Deferrals tolerated before the engine precharges a busy bank itself
#: to meet the retention deadline.
FORCE_AFTER = 8


class RefreshEngine:
    """Issues one row refresh (ACT + PRER) every ``interval`` cycles.

    Args:
        device: The device being refreshed.
        interval: Cycles between refreshes; the default meets a 32 ms
            retention window for the paper's 8x1024-row geometry.
        on_fire: Called with :attr:`last_refresh` after each refresh,
            e.g. to re-arm a scheduler whose bank state the refresh
            changed, or to hand the span to the traffic server that
            attributes latency to it.

    Raises:
        ConfigurationError: If ``interval`` is not an int of at least
            1.
    """

    #: A pending refresh cannot unblock a stalled computation.
    breaks_deadlock = False

    def __init__(
        self,
        device: RdramDevice,
        interval: int = DEFAULT_INTERVAL_CYCLES,
        on_fire: Optional[Callable[[Tuple[int, int]], None]] = None,
    ) -> None:
        if require_int("refresh interval", interval) < 1:
            raise ConfigurationError(
                f"refresh interval must be at least 1, got {interval}"
            )
        self.device = device
        self.interval = interval
        self._on_fire = on_fire
        self._next_due = interval
        self._bank_cursor = 0
        self._row_cursor = 0
        self._deferrals_in_a_row = 0
        self.refreshes_issued = 0
        self.deferrals = 0
        self.forced_precharges = 0
        #: ``(start, end)`` of the refresh issued last: ACT start
        #: through bank recovery at PRER + t_RP.  None before the
        #: first refresh.
        self.last_refresh: Optional[Tuple[int, int]] = None
        #: Optional instrumentation; records one "refresh" span per
        #: issued refresh (:attr:`last_refresh`) plus
        #: deferral/forced-precharge counters.
        self.obs: Optional[Instrumentation] = None

    @property
    def next_action_cycle(self) -> int:
        """Cycle at which the engine next wants to act."""
        return self._next_due

    def tick(self, cycle: int) -> None:
        """Perform at most one refresh action at ``cycle``.

        The target bank and its double-bank neighbors are synced at
        ``cycle`` first, so page-manager closes already due (a timeout
        policy's) count before the engine reads which banks are open.
        A refresh that is issued (after any forced precharge) is
        handed to ``on_fire``; a deferred one is not.
        """
        if cycle < self._next_due:
            return
        device = self.device
        target = self._bank_cursor
        banks = (target, *device.geometry.neighbors(target))
        for index in banks:
            device.sync_bank(index, cycle)
        if any(device.open_row(index) is not None for index in banks):
            if self._deferrals_in_a_row < FORCE_AFTER:
                self._deferrals_in_a_row += 1
                self.deferrals += 1
                if self.obs is not None:
                    self.obs.counters.incr("refresh.deferrals")
                self._next_due = cycle + RETRY_CYCLES
                return
            # Deadline: close the in-use page (and, on double-bank
            # cores, any open neighbor) to get the refresh through.
            for index in banks:
                if device.open_row(index) is not None:
                    device.issue_prer(index, cycle)
                    self.forced_precharges += 1
                    if self.obs is not None:
                        self.obs.counters.incr("refresh.forced_precharges")
                        self.obs.tracer.add_instant(
                            "refresh", "forced_precharge", cycle, bank=index
                        )
        activate = self.device.issue_act(
            self._bank_cursor, self._row_cursor, cycle
        )
        prer = self.device.issue_prer(self._bank_cursor, activate)
        self.refreshes_issued += 1
        self.last_refresh = (activate, prer + self.device.timing.t_rp)
        if self.obs is not None:
            self.obs.counters.incr("refresh.issued")
            self.obs.tracer.add_span(
                "refresh",
                f"refresh b{self._bank_cursor} r{self._row_cursor}",
                *self.last_refresh,
                bank=self._bank_cursor,
                row=self._row_cursor,
            )
        self._deferrals_in_a_row = 0
        self._advance_cursor()
        self._next_due += self.interval
        if self._next_due <= cycle:
            self._next_due = cycle + 1
        if self._on_fire is not None:
            self._on_fire(self.last_refresh)

    def _advance_cursor(self) -> None:
        self._bank_cursor += 1
        if self._bank_cursor >= self.device.geometry.num_banks:
            self._bank_cursor = 0
            self._row_cursor = (
                self._row_cursor + 1
            ) % self.device.geometry.rows_per_bank
