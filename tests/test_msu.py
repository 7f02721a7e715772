"""Tests for the Memory Scheduling Unit."""

from __future__ import annotations


from repro.core.msu import IDLE, MemorySchedulingUnit
from repro.core.policies import RoundRobinPolicy
from repro.core.sbu import StreamBufferUnit
from repro.cpu.kernels import COPY, DAXPY
from repro.cpu.streams import Alignment, place_streams
from repro.memsys.config import MemorySystemConfig
from repro.rdram.device import RdramDevice
from repro.rdram.packets import ColPacket
from repro.rdram.refresh import FORCE_AFTER, RefreshEngine


def make_msu(kernel=DAXPY, org="cli", length=32, depth=8, alignment=Alignment.STAGGERED):
    config = getattr(MemorySystemConfig, org)()
    descriptors = place_streams(kernel.streams, config, length=length, alignment=alignment)
    device = RdramDevice(
        timing=config.timing, geometry=config.geometry, record_trace=True
    )
    sbu = StreamBufferUnit.from_descriptors(descriptors, config, depth)
    return device, sbu, MemorySchedulingUnit(device, sbu, RoundRobinPolicy())


class TestIssuing:
    def test_first_tick_issues_act_and_col(self):
        device, sbu, msu = make_msu()
        msu.tick(0)
        assert len(msu.arrivals) == 1
        assert msu.packets_issued == 1
        assert msu.activations == 1

    def test_read_events_report_fifo_and_elements(self):
        device, sbu, msu = make_msu()
        msu.tick(0)
        (cycle, _, fifo_index, elements), = msu.arrivals
        assert fifo_index == 0
        assert elements == 2
        assert cycle > 0
        # The arrival is the MSU's next action until it lands.
        assert msu.next_action_cycle == min(cycle, msu.next_decision)

    def test_writes_produce_no_events(self):
        device, sbu, msu = make_msu(depth=2)
        # Fill the write FIFO and let the reads exhaust FIFO capacity;
        # the third decision must service the write FIFO.
        sbu[2].cpu_push()
        sbu[2].cpu_push()
        while msu.next_decision < IDLE:
            msu.tick(msu.next_decision)
        writes = [
            p for p in device.trace
            if isinstance(p, ColPacket) and p.command.value == "WR"
        ]
        assert len(writes) == 1
        # Only the two read packets put data in flight.
        assert msu.packets_issued == 3
        assert sorted(index for _, _, index, _ in msu.arrivals) == [0, 1]

    def test_arrivals_land_at_their_cycle(self):
        device, sbu, msu = make_msu(depth=2)
        while msu.next_decision < IDLE:
            msu.tick(msu.next_decision)
        first = msu.arrivals[0][0]
        msu.tick(first - 1)
        assert sbu[0].occupancy == 0
        msu.tick(first)
        assert sbu[0].occupancy == 2
        assert [index for _, _, index, _ in msu.arrivals] == [1]

    def test_idle_when_nothing_serviceable(self):
        device, sbu, msu = make_msu(depth=2)
        while msu.next_decision < IDLE:
            msu.tick(msu.next_decision)
        # Both read FIFOs full (2 in flight each), write FIFO empty.
        assert msu.packets_issued == 2
        assert msu.next_decision == IDLE

    def test_wake_rearms_idle_msu(self):
        device, sbu, msu = make_msu(depth=2)
        while msu.next_decision < IDLE:
            msu.tick(msu.next_decision)
        msu.wake(50)
        assert msu.next_decision == 50

    def test_wake_does_not_preempt_pacing(self):
        device, sbu, msu = make_msu()
        msu.tick(0)
        pending = msu.next_decision
        msu.wake(0)
        assert msu.next_decision == pending

    def test_tick_before_decision_time_is_noop(self):
        device, sbu, msu = make_msu()
        msu.tick(0)
        issued = msu.packets_issued
        msu.tick(msu.next_decision - 1)
        assert msu.packets_issued == issued

    def test_refresh_rearms_idle_msu_in_its_cycle(self):
        device, sbu, msu = make_msu(depth=2)
        while msu.next_decision < IDLE:
            msu.tick(msu.next_decision)
        # Land the data in flight: both read FIFOs full, MSU idle.
        msu.tick(max(arrival[0] for arrival in msu.arrivals))
        assert msu.next_decision == IDLE and not msu.arrivals
        # Popping frees space but wakes nothing: an idle MSU stays
        # idle until something re-arms it.
        sbu[0].cpu_pop()
        sbu[0].cpu_pop()
        msu.tick(900)
        assert msu.packets_issued == 2
        engine = RefreshEngine(
            device, interval=1000, on_fire=msu.note_refresh
        )
        # Refresh engines tick before the MSU in each visited cycle.
        # Bank 0 is open, so the engine defers FORCE_AFTER times, which
        # re-arms nothing, then forces the precharge and refreshes.
        cycle = 1000
        for _ in range(FORCE_AFTER):
            engine.tick(cycle)
            msu.tick(cycle)
            assert msu.packets_issued == 2
            cycle = engine.next_action_cycle
        engine.tick(cycle)
        msu.tick(cycle)
        assert engine.deferrals == FORCE_AFTER
        assert engine.forced_precharges == 1
        assert engine.refreshes_issued == 1
        assert msu.packets_issued == 3
        assert msu.next_decision > cycle


class TestStats:
    def test_fifo_switches_counted(self):
        device, sbu, msu = make_msu(depth=2)
        msu.tick(0)
        msu.tick(1)
        assert msu.fifo_switches == 1

    def test_bank_conflicts_counted_on_aligned_pi(self):
        device, sbu, msu = make_msu(
        	kernel=COPY, org="pi", length=64, depth=4, alignment=Alignment.ALIGNED
        )
        cycle = 0
        while not msu.done and cycle < 20000:
            msu.tick(cycle)
            for fifo in sbu:
                while fifo.cpu_can_pop():
                    fifo.cpu_pop()
                if not fifo.is_read and not fifo.exhausted and fifo.cpu_can_push():
                    fifo.cpu_push()
            msu.wake(cycle + 1)
            cycle += 1
        assert msu.done
        # Aligned vectors share bank 0: switching FIFOs must conflict.
        assert msu.bank_conflicts > 0

    def test_done_tracks_exhaustion(self):
        device, sbu, msu = make_msu(kernel=COPY, length=4, depth=8)
        assert not msu.done
        cycle = 0
        while not msu.done and cycle < 1000:
            msu.tick(cycle)
            for fifo in sbu:
                while fifo.cpu_can_pop():
                    fifo.cpu_pop()
                if not fifo.is_read and not fifo.exhausted and fifo.cpu_can_push():
                    fifo.cpu_push()
            msu.wake(cycle + 1)
            cycle += 1
        assert msu.done
        assert msu.last_data_end > 0
