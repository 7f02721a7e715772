"""Tests for MSU scheduling policies."""

from __future__ import annotations

import inspect

import pytest

from repro.core.policies import (
    POLICIES,
    BankAwarePolicy,
    RoundRobinPolicy,
    SpeculativePrechargePolicy,
)
from repro.core.msu import MemorySchedulingUnit
from repro.core.sbu import StreamBufferUnit
from repro.core.smc import build_smc_system
from repro.cpu.kernels import DAXPY, TRIAD, VAXPY
from repro.cpu.streams import Alignment, place_streams
from repro.memsys.config import MemorySystemConfig
from repro.rdram.device import RdramDevice
from repro.sim.engine import run_smc
from repro.sim.runner import RunSpec, simulate


def make_system(policy, org="cli", alignment=Alignment.STAGGERED, length=32, depth=8):
    config = getattr(MemorySystemConfig, org)()
    descriptors = place_streams(
        DAXPY.streams, config, length=length, alignment=alignment
    )
    device = RdramDevice(timing=config.timing, geometry=config.geometry)
    sbu = StreamBufferUnit.from_descriptors(descriptors, config, depth)
    return device, sbu, MemorySchedulingUnit(device, sbu, policy)


class TestRegistry:
    def test_policy_names(self):
        assert set(POLICIES) == {
            "round-robin", "bank-aware", "speculative-precharge"
        }

    def test_instances_carry_names(self):
        assert RoundRobinPolicy().name == "round-robin"
        assert BankAwarePolicy().name == "bank-aware"
        assert SpeculativePrechargePolicy().name == "speculative-precharge"

    @pytest.mark.parametrize("org, fifo_depth", [("cli", 16), ("pi", 64)])
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_registry_name_fully_names_the_policy(self, name, org, fifo_depth):
        # RunSpec files a registry instance under its bare name, which
        # is right only if the class has nothing else to configure.
        cls = POLICIES[name]
        assert list(inspect.signature(cls).parameters) == []
        spec = dict(
            kernel="vaxpy", organization=org, length=1024, fifo_depth=fifo_depth
        )
        by_instance = RunSpec(policy=cls(), **spec)
        by_name = RunSpec(policy=name, **spec)
        assert by_instance.canonical_key() == by_name.canonical_key()
        direct = run_smc(build_smc_system(
            VAXPY, getattr(MemorySystemConfig, org)(), length=1024,
            fifo_depth=fifo_depth, policy=cls(),
        ))
        assert simulate(by_instance) == direct
        assert simulate(by_name) == direct


class TestRoundRobin:
    def test_stays_on_current_while_serviceable(self):
        device, sbu, msu = make_system(RoundRobinPolicy())
        policy = msu.policy
        assert policy.choose(0, sbu, 0, device) == 0
        sbu[0].note_issue()
        assert policy.choose(0, sbu, 0, device) == 0

    def test_advances_past_full_fifo(self):
        device, sbu, msu = make_system(RoundRobinPolicy(), depth=2)
        sbu[0].note_issue()  # read FIFO 0 now full (2 elements in flight)
        assert not sbu[0].serviceable
        assert msu.policy.choose(0, sbu, 0, device) == 1

    def test_skips_empty_write_fifo(self):
        device, sbu, msu = make_system(RoundRobinPolicy(), depth=2)
        sbu[0].note_issue()
        sbu[1].note_issue()
        # Both read FIFOs full, write FIFO empty: nothing to do.
        assert msu.policy.choose(0, sbu, 0, device) is None

    def test_wraps_around(self):
        device, sbu, msu = make_system(RoundRobinPolicy(), depth=2)
        sbu[2].cpu_push()
        sbu[2].cpu_push()
        sbu[1].note_issue()
        assert msu.policy.choose(0, sbu, 1, device) == 2

    def test_pace_allows_command_lookahead(self, timing):
        device, sbu, msu = make_system(RoundRobinPolicy())
        msu.tick(0)
        # Next decision lands t_RCD before the issued COL goes out.
        first_col = timing.t_rcd  # ACT at 0, COL at t_RCD
        assert msu.next_decision == max(1, first_col - timing.t_rcd + 0) or (
            msu.next_decision <= first_col
        )


class TestBankAware:
    def test_prefers_ready_bank(self):
        device, sbu, msu = make_system(
            BankAwarePolicy(), alignment=Alignment.ALIGNED
        )
        policy = msu.policy
        # Open bank 0 for FIFO 0's row, making only FIFO 0 "ready".
        bank, row, _, _, _ = sbu[0].next_unit()
        device.issue_act(bank, row, 0)
        choice = policy.choose(timing_slack(), sbu, 1, device)
        assert choice == 0

    def test_falls_back_to_round_robin_order(self):
        device, sbu, msu = make_system(BankAwarePolicy())
        # Nothing open: no bank is "ready" beyond plain ACT readiness,
        # which every closed bank satisfies; first serviceable wins.
        assert msu.policy.choose(0, sbu, 0, device) == 0

    def test_bank_holding_other_row_charges_precharge_and_activate(self):
        device, sbu, msu = make_system(
            BankAwarePolicy(), alignment=Alignment.ALIGNED
        )
        timing = device.timing
        bank, row, _, _, _ = sbu[0].next_unit()
        device.issue_act(bank, row + 1, 0)
        estimate = msu.policy._estimate_col_start
        # The precharge waits out t_RAS after the ACT at cycle 0, or
        # goes at the decision cycle once that has passed; t_RP and
        # t_RCD follow before the COL packet.
        assert estimate(device, sbu[0], 5) == (
            timing.t_ras + timing.t_rp + timing.t_rcd
        )
        late = timing.t_ras + 10
        assert estimate(device, sbu[0], late) == (
            late + timing.t_rp + timing.t_rcd
        )


def timing_slack():
    return 40  # comfortably past t_RCD so COL readiness binds


class TestSpeculativePrecharge:
    def test_speculates_upcoming_page(self):
        config = MemorySystemConfig.pi()
        descriptors = place_streams(TRIAD.streams, config, length=256)
        device = RdramDevice(timing=config.timing, geometry=config.geometry)
        sbu = StreamBufferUnit.from_descriptors(descriptors, config, 32)
        msu = MemorySchedulingUnit(device, sbu, SpeculativePrechargePolicy())
        cycle = 0
        while msu.speculative_activations == 0 and cycle < 3000:
            msu.tick(cycle)
            for fifo in sbu:
                if not fifo.is_read and fifo.cpu_can_push():
                    fifo.cpu_push()
            for fifo in sbu:
                while fifo.cpu_can_pop():
                    fifo.cpu_pop()
            msu.wake(cycle + 1)
            cycle += 1
        assert msu.speculative_activations > 0

    def test_inherits_round_robin_choice(self):
        device, sbu, msu = make_system(SpeculativePrechargePolicy())
        assert msu.policy.choose(0, sbu, 0, device) == 0
