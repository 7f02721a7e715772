"""Tests for the background refresh engine."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.memsys.pagemanager import TimeoutPageManager
from repro.rdram.audit import audit_trace
from repro.rdram.packets import BusDirection, RowCommand, RowPacket
from repro.rdram.refresh import (
    DEFAULT_INTERVAL_CYCLES,
    FORCE_AFTER,
    RefreshEngine,
)
from repro.sim.runner import RunSpec, simulate


class TestEngineMechanics:
    def test_interval_meets_retention_window(self):
        # 8 banks x 1024 rows x interval must fit in 32 ms at 2.5 ns.
        total = 8 * 1024 * DEFAULT_INTERVAL_CYCLES * 2.5e-9
        assert total <= 32e-3

    def test_no_refresh_before_interval(self, device):
        fired = []
        engine = RefreshEngine(device, interval=100, on_fire=fired.append)
        engine.tick(99)
        assert engine.refreshes_issued == engine.deferrals == 0
        assert fired == []
        assert device.trace == []

    def test_refresh_issues_act_prer_pair(self, device):
        fired = []
        engine = RefreshEngine(device, interval=50, on_fire=fired.append)
        engine.tick(50)
        assert engine.refreshes_issued == 1
        assert fired == [engine.last_refresh]
        assert not device.bank(0).is_open
        audit_trace(device.trace)

    def test_cursor_walks_banks_then_rows(self, device):
        engine = RefreshEngine(device, interval=10)
        cycle = 0
        while engine.refreshes_issued < 9:
            engine.tick(cycle)
            cycle += 1
        acts = [p for p in device.trace if getattr(p, "command", None) is not None
                and p.command.value == "ACT"]
        assert [a.bank for a in acts] == [0, 1, 2, 3, 4, 5, 6, 7, 0]
        assert acts[-1].row == 1  # second lap refreshes the next row

    def test_busy_bank_defers(self, device):
        device.issue_act(0, 3, 0)
        fired = []
        engine = RefreshEngine(device, interval=10, on_fire=fired.append)
        engine.tick(10)
        assert engine.deferrals == 1
        assert engine.refreshes_issued == 0
        assert fired == []
        assert engine.next_action_cycle > 10

    def test_deadline_forces_precharge(self, device):
        device.issue_act(0, 3, 0)
        fired = []
        engine = RefreshEngine(device, interval=10, on_fire=fired.append)
        cycle = 10
        for deferrals in range(1, FORCE_AFTER + 1):
            engine.tick(cycle)
            assert (engine.deferrals, engine.refreshes_issued) == (deferrals, 0)
            cycle = engine.next_action_cycle
        engine.tick(cycle + 30)
        assert engine.deferrals == FORCE_AFTER
        assert engine.forced_precharges == 1
        assert engine.refreshes_issued == 1
        assert fired == [engine.last_refresh]
        audit_trace(device.trace)

    def test_due_page_manager_close_counts_before_deferring(self, device):
        device.page_manager = TimeoutPageManager(timeout=50)
        device.issue_access(0, 3, 0, 0, BusDirection.READ)
        # The COL packet ends at cycle 15, so the timeout closed bank 0
        # at 65, long before the refresh comes due.
        engine = RefreshEngine(device, interval=1000)
        engine.tick(1000)
        assert engine.refreshes_issued == 1
        assert engine.deferrals == engine.forced_precharges == 0
        assert RowPacket(RowCommand.PRER, 0, None, 65, True) in device.trace
        audit_trace(device.trace)

    def test_invalid_interval(self, device):
        with pytest.raises(ConfigurationError):
            RefreshEngine(device, interval=0)

    @pytest.mark.parametrize("interval", [2.5, True, "64"])
    def test_interval_must_be_an_int_of_at_least_one(self, device, interval):
        with pytest.raises(ConfigurationError, match="interval"):
            RefreshEngine(device, interval=interval)


class TestRefreshInSimulation:
    @pytest.mark.parametrize("org", ["cli", "pi"])
    def test_refreshed_runs_stay_legal_and_close(self, org):
        base = simulate(RunSpec("daxpy", org, length=1024, fifo_depth=64))
        refreshed = simulate(RunSpec(
            "daxpy", org, length=1024, fifo_depth=64, refresh=True, audit=True
        ))
        assert refreshed.refreshes > 0
        # The paper's ignore-refresh assumption: cost under 4 points.
        assert refreshed.percent_of_peak > base.percent_of_peak - 4

    def test_refresh_count_scales_with_runtime(self):
        short = simulate(RunSpec(
            "copy", "cli", length=256, fifo_depth=32, refresh=True
        ))
        long = simulate(RunSpec(
            "copy", "cli", length=2048, fifo_depth=32, refresh=True
        ))
        assert long.refreshes > short.refreshes

    def test_no_refreshes_by_default(self):
        result = simulate(RunSpec("copy", "cli", length=256, fifo_depth=32))
        assert result.refreshes == 0
