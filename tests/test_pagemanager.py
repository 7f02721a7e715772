"""Tests for the page-management strategy registry.

Covers the plan-time behavior of the paper's closed policy, the lazy
materialization of the timeout policy, the hybrid predictor's counter
dynamics, resolving a policy from its enum or name spelling, and
end-to-end runs of the new policies (and the swizzle mapping) through
both controllers.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.cpu.kernels import get_kernel
from repro.cpu.streams import Alignment, place_streams
from repro.core.fifo import build_plan
from repro.core.smc import build_smc_system
from repro.memsys.config import MemorySystemConfig, PagePolicy
from repro.memsys.pagemanager import (
    PAGE_POLICIES,
    HybridPageManager,
    OpenPageManager,
    PageManager,
    TimeoutPageManager,
    list_page_policies,
    make_page_manager,
    register_page_policy,
)
from repro.naturalorder.controller import NaturalOrderController
from repro.rdram.device import RdramDevice
from repro.rdram.packets import BusDirection, RowCommand, RowPacket
from repro.rdram.timing import RdramTiming
from repro.sim.engine import run_smc


@pytest.fixture
def daxpy_descriptor(cli_config):
    return place_streams(
        get_kernel("daxpy").streams,
        cli_config,
        length=64,
        stride=1,
        alignment=Alignment.STAGGERED,
    )[0]


class TestPlanTime:
    def test_closed_plan_flags_last_unit_of_each_row_run(
        self, cli_config, daxpy_descriptor
    ):
        units = build_plan(daxpy_descriptor, cli_config)
        for index, (bank, row, _, _, precharge) in enumerate(units):
            is_last_of_run = (
                index + 1 == len(units) or units[index + 1][:2] != (bank, row)
            )
            assert precharge == is_last_of_run

    def test_enum_and_name_spellings_plan_identically(
        self, cli_config, daxpy_descriptor
    ):
        def plan(page_policy):
            config = dataclasses.replace(cli_config, page_policy=page_policy)
            return build_plan(daxpy_descriptor, config)

        assert plan(PagePolicy.CLOSED) == plan("closed")
        assert plan(PagePolicy.OPEN) == plan("open")

    def test_open_plan_never_flags(self, cli_config, daxpy_descriptor):
        config = dataclasses.replace(cli_config, page_policy="open")
        units = build_plan(daxpy_descriptor, config)
        assert not any(precharge for *_, precharge in units)

    def test_paper_policies_have_no_runtime_overhead(self):
        assert not PAGE_POLICIES["closed"].runtime
        assert not PAGE_POLICIES["open"].runtime
        assert PAGE_POLICIES["timeout"].runtime
        assert PAGE_POLICIES["hybrid"].runtime


class TestTimeout:
    def test_idle_bank_closes_after_the_timeout(self):
        device = RdramDevice(timing=RdramTiming())
        device.page_manager = TimeoutPageManager(timeout=50)
        first_cmd, *_, page_hit = device.issue_access(
            0, 3, 0, 0, BusDirection.READ
        )
        bank = device.bank(0)
        assert bank.is_open and bank.open_row == 3
        due = max(bank.last_act_start, bank.last_col_end) + 50
        device.sync_bank(0, due - 1)
        assert device.bank(0).is_open
        device.sync_bank(0, due)
        assert not device.bank(0).is_open
        assert not page_hit
        assert device.trace[0] == RowPacket(
            RowCommand.ACT, bank=0, row=3, start=first_cmd
        )

    def test_retouch_within_the_timeout_keeps_the_page_open(self):
        device = RdramDevice(timing=RdramTiming())
        device.page_manager = TimeoutPageManager(timeout=500)
        device.issue_access(0, 3, 0, 0, BusDirection.READ)
        *_, page_hit = device.issue_access(
            0, 3, 1, device.bank(0).last_col_end + 100, BusDirection.READ
        )
        assert page_hit

    def test_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            TimeoutPageManager(timeout=0)

    def test_make_page_manager_honors_the_config_knob(self):
        config = MemorySystemConfig.pi(
            page_policy="timeout", page_timeout_cycles=123
        )
        manager = make_page_manager(config)
        assert isinstance(manager, TimeoutPageManager)
        assert manager.timeout == 123


class TestHybrid:
    def test_starts_weakly_open(self):
        manager = HybridPageManager()
        assert not manager.close_after(None, 0, 7)

    def test_row_switches_weaken_the_abandoned_row(self):
        manager = HybridPageManager()
        manager.observe(None, 0, 1)
        manager.observe(None, 0, 2)  # abandons row 1
        assert manager.close_after(None, 0, 1)
        assert not manager.close_after(None, 0, 2)

    def test_retouches_strengthen_toward_open(self):
        manager = HybridPageManager()
        manager.observe(None, 0, 1)
        manager.observe(None, 0, 1)
        manager.observe(None, 0, 1)
        # One later abandonment must not flip a well-reinforced row.
        manager.observe(None, 0, 2)
        assert not manager.close_after(None, 0, 1)

    def test_banks_predict_independently(self):
        manager = HybridPageManager()
        manager.observe(None, 0, 1)
        manager.observe(None, 0, 2)
        assert manager.close_after(None, 0, 1)
        assert not manager.close_after(None, 1, 1)

    def test_reset_clears_the_predictor(self):
        manager = HybridPageManager()
        manager.observe(None, 0, 1)
        manager.observe(None, 0, 2)
        manager.reset()
        assert not manager.close_after(None, 0, 1)


class TestCoercion:
    def test_enum_and_string_coerce(self):
        for page_policy in (PagePolicy.OPEN, "open"):
            config = MemorySystemConfig(page_policy=page_policy)
            assert isinstance(make_page_manager(config), OpenPageManager)

    def test_unknown_policy_lists_registered_names(self):
        config = MemorySystemConfig(interleaving="cli", page_policy="zorp")
        with pytest.raises(ConfigurationError) as err:
            make_page_manager(config)
        for name in list_page_policies():
            assert name in str(err.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="registered twice"):

            @register_page_policy
            class Duplicate(PageManager):
                name = "open"


@pytest.mark.parametrize("interleaving", ("cli", "pi", "swizzle"))
@pytest.mark.parametrize("page_policy", ("timeout", "hybrid"))
class TestEndToEnd:
    def _config(self, interleaving, page_policy):
        return MemorySystemConfig(
            interleaving=interleaving, page_policy=page_policy
        )

    def test_smc_runs_to_completion(self, interleaving, page_policy):
        result = run_smc(
            build_smc_system(
                get_kernel("daxpy"),
                self._config(interleaving, page_policy),
                length=64,
                fifo_depth=16,
            )
        )
        assert result.cycles > 0
        assert 0 < result.percent_of_peak <= 100
        assert result.page_hits + result.page_misses == result.packets_issued

    def test_natural_order_runs_to_completion(self, interleaving, page_policy):
        result = NaturalOrderController(
            self._config(interleaving, page_policy)
        ).run(get_kernel("daxpy"), length=64)
        assert result.cycles > 0
        assert 0 < result.percent_of_peak <= 100
        assert result.page_hits + result.page_misses == result.packets_issued
