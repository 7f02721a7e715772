"""Microbenchmarks of the simulator substrate itself.

Not a paper figure: these track the cost of the device model, the
protocol auditor, and the cycle engine, so regressions in simulation
throughput are visible alongside the experiment benches.
"""

from __future__ import annotations

from repro.core.smc import build_smc_system
from repro.cpu.kernels import DAXPY
from repro.memsys.config import MemorySystemConfig
from repro.rdram.audit import audit_trace
from repro.rdram.device import RdramDevice
from repro.rdram.packets import BusDirection
from repro.sim.engine import run_smc


def test_device_issue_throughput(benchmark):
    """Raw COL-issue rate of the device model (page-mode burst)."""

    def burst():
        device = RdramDevice(record_trace=False)
        device.issue_act(0, 0, 0)
        t_pack = device.timing.t_pack
        now = 0
        for column in range(64):
            col_start, _, _ = device.issue_col(
                0, 0, column, now, BusDirection.READ
            )
            now = col_start + t_pack
        return device.bytes_transferred

    assert benchmark(burst) == 64 * 16


def test_audit_throughput(benchmark):
    """Auditor cost over a realistic 1024-element daxpy trace."""
    system = build_smc_system(
        DAXPY, MemorySystemConfig.pi(), length=1024, fifo_depth=64,
        record_trace=True,
    )
    run_smc(system)
    trace = system.device.trace

    report = benchmark(audit_trace, trace)
    assert report.data_packets == 3 * 512


def test_engine_cycles_per_second(benchmark):
    """End-to-end SMC simulation throughput (build + run)."""

    def simulate():
        system = build_smc_system(
            DAXPY, MemorySystemConfig.cli(), length=1024, fifo_depth=64
        )
        return run_smc(system)

    result = benchmark(simulate)
    assert result.percent_of_peak > 80
