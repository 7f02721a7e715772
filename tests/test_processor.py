"""Tests for the in-order bandwidth-matched processor model."""

from __future__ import annotations

import tracemalloc

from repro.cpu.kernels import COPY, DAXPY
from repro.cpu.processor import MATCHED_ACCESS_INTERVAL, StreamProcessor


class FakePort:
    """A StreamPort with scriptable readiness."""

    def __init__(self, pop_ready=True, push_ready=True):
        self.pop_ready = pop_ready
        self.push_ready = push_ready
        self.pops = []
        self.pushes = []

    def cpu_can_pop(self, index):
        return self.pop_ready

    def cpu_pop(self, index):
        self.pops.append(index)

    def cpu_can_push(self, index):
        return self.push_ready

    def cpu_push(self, index):
        self.pushes.append(index)


class TestPacing:
    def test_matched_interval_is_two_cycles(self):
        assert MATCHED_ACCESS_INTERVAL == 2

    def test_one_access_per_interval(self):
        proc = StreamProcessor(COPY, length=2, port=FakePort())
        retired = []
        for cycle in range(8):
            proc.tick(cycle)
            retired.append(proc.accesses_retired)
        # Accesses retire at cycles 0, 2, 4, 6.
        assert retired == [1, 1, 2, 2, 3, 3, 4, 4]
        assert proc.done

    def test_natural_order_interleaves_streams(self):
        port = FakePort()
        proc = StreamProcessor(COPY, length=2, port=port)
        for cycle in range(8):
            proc.tick(cycle)
        assert port.pops == [0, 0]
        assert port.pushes == [1, 1]

    def test_retire_hook_gets_the_next_cycle(self):
        woken = []
        proc = StreamProcessor(
            COPY, length=2, port=FakePort(), on_retire=woken.append
        )
        for cycle in range(8):
            proc.tick(cycle)
        assert woken == [1, 3, 5, 7]


class TestBlocking:
    def test_blocked_pop_stalls(self):
        proc = StreamProcessor(COPY, length=1, port=FakePort(pop_ready=False))
        for cycle in range(10):
            proc.tick(cycle)
        assert proc.accesses_retired == 0
        assert proc.next_action_cycle is None

    def test_stall_cycles_counted_from_block_start(self):
        port = FakePort(pop_ready=False)
        proc = StreamProcessor(COPY, length=1, port=port)
        proc.tick(0)
        proc.tick(1)
        port.pop_ready = True
        proc.tick(7)
        assert proc.stall_cycles == 7
        assert proc.first_element_cycle == 7

    def test_stall_accounting_is_skip_safe(self):
        # Visiting only the block cycle and the wake cycle must count
        # the same stall as visiting every cycle in between.
        port_dense, port_sparse = FakePort(pop_ready=False), FakePort(pop_ready=False)
        dense = StreamProcessor(COPY, length=1, port=port_dense)
        sparse = StreamProcessor(COPY, length=1, port=port_sparse)
        for cycle in range(6):
            dense.tick(cycle)
        sparse.tick(0)
        port_dense.pop_ready = port_sparse.pop_ready = True
        dense.tick(6)
        sparse.tick(6)
        assert dense.stall_cycles == sparse.stall_cycles == 6

    def test_blocked_push(self):
        port = FakePort(push_ready=False)
        proc = StreamProcessor(COPY, length=1, port=port)
        proc.tick(0)  # pop x[0]
        proc.tick(2)  # blocked push
        assert proc.accesses_retired == 1
        port.push_ready = True
        proc.tick(3)
        assert proc.done


class TestCompletion:
    def test_done_after_all_accesses(self):
        port = FakePort()
        proc = StreamProcessor(DAXPY, length=4, port=port)
        cycle = 0
        while not proc.done:
            proc.tick(cycle)
            cycle += 1
        assert proc.accesses_retired == 12  # 3 streams x 4 elements
        assert len(port.pops) == 8
        assert len(port.pushes) == 4

    def test_done_processor_ignores_ticks(self):
        port = FakePort()
        proc = StreamProcessor(COPY, length=1, port=port)
        for cycle in range(6):
            proc.tick(cycle)
        assert proc.done
        proc.tick(100)
        assert proc.accesses_retired == 2
        assert (port.pops, port.pushes) == ([0], [1])
        assert proc.last_retire_cycle == 2
        assert proc.next_action_cycle is None

    def test_first_and_last_retire_cycles(self):
        proc = StreamProcessor(COPY, length=2, port=FakePort())
        for cycle in range(10):
            proc.tick(cycle)
        assert proc.first_element_cycle == 0
        assert proc.last_retire_cycle == 6


class TestMemory:
    def test_building_does_not_grow_with_length(self):
        # The processor keeps one iteration's access pattern, not one
        # entry per element access (50.6 MB at this length before).
        def allocated(length):
            tracemalloc.start()
            try:
                StreamProcessor(DAXPY, length=length, port=FakePort())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short = allocated(1024)
        assert allocated(262_144) <= short + 1024
