"""The bank-local rules, as the device applies them on its bank state.

t_RC, t_RCD, t_RAS, t_RP and t_CPOL, COL only to the open row, ACT
only to a closed bank, PRER only to an open one.  Each rule is checked
through the device's ``earliest_*`` queries and ``issue_*`` commands,
and the state through :meth:`RdramDevice.bank` snapshots.  The
"before legal cycle" cases feed the device a wrong schedule, to show
that its re-checks catch one.
"""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.rdram.device import NEVER, BankState
from repro.rdram.packets import BusDirection

READ = BusDirection.READ


class TestActivate:
    def test_fresh_bank_activates_immediately(self, device):
        assert device.earliest_act(0, 5) == 5

    def test_act_opens_row(self, device):
        device.issue_act(0, 7, 0)
        assert device.bank(0).is_open
        assert device.bank(0).open_row == 7
        assert device.open_row(0) == 7

    def test_act_while_open_rejected(self, device):
        device.issue_act(0, 7, 0)
        with pytest.raises(ProtocolError, match="open"):
            device.earliest_act(0, 100)
        with pytest.raises(ProtocolError, match="open"):
            device.issue_act(0, 8, 100)

    def test_act_respects_t_rp_after_precharge(self, device, timing):
        device.issue_act(0, 1, 0)
        # Precharge late enough that t_RP (not t_RC) is the binding
        # constraint on the next activate.
        assert device.issue_prer(0, 40) == 40
        assert device.earliest_act(0, 0) == 40 + timing.t_rp

    def test_act_respects_t_rc(self, device, timing):
        device.issue_act(0, 1, 0)
        device.issue_prer(0, timing.t_ras)
        # t_RC (34) dominates t_RAS + t_RP (30) here.
        assert device.earliest_act(0, 0) == timing.t_rc

    def test_act_before_legal_cycle_rejected(
        self, device, timing, monkeypatch
    ):
        device.issue_act(0, 1, 0)
        device.issue_prer(0, timing.t_ras)
        # A scheduling bug: the ACT goes out when asked.
        monkeypatch.setattr(device, "earliest_act", lambda bank, now: now)
        with pytest.raises(ProtocolError, match="before legal"):
            device.issue_act(0, 2, timing.t_rc - 1)


class TestColumn:
    def test_col_requires_matching_open_row(self, device):
        device.issue_act(0, 3, 0)
        with pytest.raises(ProtocolError, match="open row"):
            device.earliest_col(0, 4, 50, READ)
        with pytest.raises(ProtocolError, match="open row"):
            device.issue_col(0, 4, 0, 50, READ)

    def test_col_to_closed_bank_rejected(self, device):
        with pytest.raises(ProtocolError):
            device.earliest_col(0, 0, 0, READ)

    def test_col_respects_t_rcd(self, device, timing):
        device.issue_act(0, 3, 10)
        assert device.earliest_col(0, 3, 0, READ) == 10 + timing.t_rcd

    def test_col_after_t_rcd_is_immediate(self, device, timing):
        device.issue_act(0, 3, 0)
        assert device.earliest_col(0, 3, 40, READ) == 40

    def test_col_before_legal_rejected(self, device, timing, monkeypatch):
        device.issue_act(0, 3, 0)
        monkeypatch.setattr(
            device, "earliest_col", lambda bank, row, now, direction: now
        )
        with pytest.raises(ProtocolError, match="before legal"):
            device.issue_col(0, 3, 0, timing.t_rcd - 1, READ)


class TestPrecharge:
    def test_prer_requires_open_bank(self, device):
        with pytest.raises(ProtocolError, match="closed"):
            device.earliest_prer(0, 0)
        with pytest.raises(ProtocolError, match="closed"):
            device.issue_prer(0, 0)

    def test_prer_respects_t_ras(self, device, timing):
        device.issue_act(0, 1, 0)
        assert device.earliest_prer(0, 0) == timing.t_ras

    def test_prer_respects_t_cpol(self, device, timing):
        device.issue_act(0, 1, 0)
        device.issue_col(0, 1, 0, 30, READ)  # COL occupies cycles 30-33
        # PRER may overlap at most t_cpol = 1 cycle with the COL packet.
        assert device.earliest_prer(0, 0) == 34 - timing.t_cpol == 33

    def test_prer_closes_bank(self, device, timing):
        device.issue_act(0, 1, 0)
        device.issue_prer(0, timing.t_ras)
        assert not device.bank(0).is_open
        assert device.open_row(0) is None

    def test_prer_before_t_ras_rejected(self, device, timing, monkeypatch):
        device.issue_act(0, 1, 0)
        monkeypatch.setattr(device, "earliest_prer", lambda bank, now: now)
        with pytest.raises(ProtocolError, match="before legal"):
            device.issue_prer(0, timing.t_ras - 1)


class TestReset:
    def test_reset_clears_all_state(self, device, timing):
        device.issue_act(0, 1, 0)
        device.issue_col(0, 1, 0, timing.t_rcd, READ)
        device.issue_prer(0, timing.t_ras)
        device.reset()
        assert device.bank(0) == BankState(None, NEVER, NEVER, NEVER)
        assert device.earliest_act(0, 0) == 0

    def test_never_sentinel_unbinds_constraints(self, device):
        assert NEVER < -(10**8)
        assert device.earliest_act(0, 0) == 0
