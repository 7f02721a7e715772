"""MSU scheduling policies.

The paper's MSU "considers each FIFO in turn, performing as many
accesses as possible for the current FIFO before moving on.  This
simple round-robin scheduling strategy represents a reasonable
compromise between design complexity and performance, but it prevents
the MSU from fully exploiting the independent banks of the RDRAM when
a FIFO is ready for a data transfer but the associated memory bank is
busy."  (Section 4.2.)

Three policies are provided:

* :class:`RoundRobinPolicy` — the paper's policy, including its
  wait-on-busy-bank deficiency.
* :class:`BankAwarePolicy` — the more sophisticated scheduler the
  paper attributes to Hong's thesis: when the current FIFO's bank is
  busy, service another serviceable FIFO whose bank is ready.
* :class:`SpeculativePrechargePolicy` — the Section 6 suggestion: "a
  scheduling policy that speculatively precharges a page and issues a
  ROW ACT command before the stream crosses the page boundary would
  mitigate some of these costs".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.fifo import AccessUnit
from repro.core.sbu import StreamBufferUnit
from repro.rdram.device import BankState, RdramDevice
from repro.rdram.timing import RdramTiming

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.msu import MemorySchedulingUnit

#: Access units :class:`SpeculativePrechargePolicy` looks ahead in the
#: current stream's plan for the next page crossing.
LOOKAHEAD_UNITS = 4


def _act_ready(bank: BankState, cycle: int, timing: RdramTiming) -> int:
    """Earliest cycle >= ``cycle`` the closed ``bank`` allows an ACT:
    t_RP after its last PRER and t_RC after its last ACT."""
    return max(
        cycle,
        bank.last_prer_start + timing.t_rp,
        bank.last_act_start + timing.t_rc,
    )


class SchedulingPolicy:
    """Base policy: FIFO selection, decision pacing, speculation hook."""

    #: Registry name used by configuration and the experiment CLI.
    name = "base"

    def choose(
        self,
        cycle: int,
        sbu: StreamBufferUnit,
        current: int,
        device: RdramDevice,
    ) -> Optional[int]:
        """Pick the FIFO to issue the next access for, or None to idle."""
        raise NotImplementedError

    def pace(self, col_start: int, cycle: int, timing: RdramTiming) -> int:
        """Cycle at which the MSU makes its next decision.

        ``col_start`` is the just-issued access's COL packet start.
        The default lets the controller prepare its next access up to
        t_RCD cycles before that COL packet goes out — enough
        command pipelining for the next cacheline's ROW ACT to overlap
        the current line's data transfer (Figure 5 shows ACT packets
        paced by t_RR while data flows), and consistent with the
        Direct RDRAM's four outstanding requests.  When the just-issued
        access was pushed far into the future by a busy bank, the next
        decision is deferred with it: the MSU waits on the current
        FIFO's bank, which is the paper's stated round-robin
        deficiency.
        """
        return max(cycle + 1, col_start - timing.t_rcd)

    def speculate(
        self,
        msu: "MemorySchedulingUnit",
        cycle: int,
        fifo_index: int,
        unit: AccessUnit,
    ) -> None:
        """Optional hook run after each issued access."""


class RoundRobinPolicy(SchedulingPolicy):
    """The paper's MSU: stay on the current FIFO while it can accept
    accesses, then advance to the next serviceable FIFO in order."""

    name = "round-robin"

    def choose(
        self,
        cycle: int,
        sbu: StreamBufferUnit,
        current: int,
        device: RdramDevice,
    ) -> Optional[int]:
        fifos = sbu.fifos
        count = len(fifos)
        for offset in range(current, current + count):
            index = offset % count
            if fifos[index].serviceable:
                return index
        return None


class BankAwarePolicy(SchedulingPolicy):
    """Service the FIFO whose bank can deliver data soonest.

    The paper's round-robin MSU waits whenever the current FIFO's bank
    is busy; Hong's thesis policy avoids those waits.  At each decision
    this policy estimates, for every serviceable FIFO, the earliest
    cycle its next COL packet could go out — a page hit costs only the
    column timing, a closed bank adds the activate, and a bank holding
    the wrong row adds a full precharge/activate turnaround — and
    services the minimum.  The current FIFO is kept while its estimate
    is within t_RCD cycles (hysteresis, so committed row bursts are
    not abandoned), and ties go to round-robin order for fairness.

    The paper's conclusion anticipates that such policies "warrant
    further study to determine how robust their performances are";
    the ablation benchmarks bear that out — this heuristic recovers
    bandwidth in bank-conflict-heavy configurations (e.g. aligned
    vectors on shallow-FIFO CLI systems) but can lose to plain
    round-robin in placements whose conflict pattern resonates with
    the service order.
    """

    name = "bank-aware"

    def _estimate_col_start(
        self, device: RdramDevice, fifo, cycle: int
    ) -> int:
        """Earliest cycle the FIFO's next COL could plausibly issue."""
        timing = device.timing
        bank_index, row, _, _, _ = fifo.next_unit()
        device.sync_bank(bank_index, cycle)
        bank = device.bank(bank_index)
        if bank.open_row == row:
            return max(cycle, bank.last_act_start + timing.t_rcd)
        if not bank.is_open:
            return _act_ready(bank, cycle, timing) + timing.t_rcd
        precharge = max(
            cycle,
            bank.last_act_start + timing.t_ras,
            bank.last_col_end - timing.t_cpol,
        )
        return precharge + timing.t_rp + timing.t_rcd

    def choose(
        self,
        cycle: int,
        sbu: StreamBufferUnit,
        current: int,
        device: RdramDevice,
    ) -> Optional[int]:
        count = len(sbu)
        t_rcd = device.timing.t_rcd
        best: Optional[int] = None
        best_estimate = 0
        for offset in range(current, current + count):
            index = offset % count
            fifo = sbu[index]
            if not fifo.serviceable:
                continue
            estimate = self._estimate_col_start(device, fifo, cycle)
            if index == current and estimate <= cycle + t_rcd:
                return current
            if best is None or estimate < best_estimate:
                best = index
                best_estimate = estimate
        return best


class SpeculativePrechargePolicy(RoundRobinPolicy):
    """Round-robin plus early precharge/activate across page crossings.

    After each access, look ahead in the current stream's access plan;
    if a different (bank, row) is coming up within
    :data:`LOOKAHEAD_UNITS` units, open that row now so the t_RP +
    t_RCD latency overlaps the remaining transfers of the current
    page.  Designed for open-page
    (PI) systems, where the paper identifies page-crossing overhead as
    the factor keeping long-stream SMC performance below its bound.
    """

    name = "speculative-precharge"

    def speculate(
        self,
        msu: "MemorySchedulingUnit",
        cycle: int,
        fifo_index: int,
        unit: AccessUnit,
    ) -> None:
        fifo = msu.sbu[fifo_index]
        bank_here, row_here, _, _, _ = unit
        for bank, row, _, _, _ in fifo.upcoming_units(LOOKAHEAD_UNITS):
            if bank == bank_here and row == row_here:
                continue
            msu.device.sync_bank(bank, cycle)
            open_row = msu.device.open_row(bank)
            if open_row == row:
                return
            if any(
                msu.device.open_row(neighbor) is not None
                for neighbor in msu.device.geometry.neighbors(bank)
            ):
                # Double-bank core with a busy neighbor: speculating
                # would force a precharge on live data; leave it to the
                # demand path.
                return
            if open_row is not None:
                msu.device.issue_prer(bank, cycle)
            msu.device.issue_act(bank, row, cycle)
            msu.speculative_activations += 1
            return


#: Registry for configuration by name.
POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    BankAwarePolicy.name: BankAwarePolicy,
    SpeculativePrechargePolicy.name: SpeculativePrechargePolicy,
}
