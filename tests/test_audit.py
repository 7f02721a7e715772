"""Tests for the independent protocol auditor."""

from __future__ import annotations

import pytest

from repro.core.smc import build_smc_system
from repro.cpu.kernels import DAXPY
from repro.errors import ProtocolError
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.rdram.audit import audit_memory, audit_trace
from repro.rdram.fabric import channel_memories
from repro.rdram.packets import (
    BusDirection,
    ColCommand,
    ColPacket,
    DataPacket,
    RowCommand,
    RowPacket,
)
from repro.sim.engine import run_smc


def act(bank, row, start):
    return RowPacket(RowCommand.ACT, bank, row, start)


def prer(bank, start, via_col=False):
    return RowPacket(RowCommand.PRER, bank, None, start, via_col=via_col)


def col(bank, row, column, start, command=ColCommand.RD):
    return ColPacket(command, bank, row, column, start)


def data(bank, start, col_start, direction=BusDirection.READ):
    return DataPacket(direction, bank, start, col_start)


class TestLegalTraces:
    def test_empty_trace(self):
        report = audit_trace([])
        assert report.row_packets == 0

    def test_minimal_read(self, timing):
        report = audit_trace([
            act(0, 0, 0),
            col(0, 0, 0, 11),
            data(0, 21, 11),
        ])
        assert report.row_packets == 1
        assert report.col_packets == 1
        assert report.data_packets == 1

    def test_device_generated_trace_passes(self, device):
        device.issue_act(0, 0, 0)
        device.issue_col(0, 0, 0, 0, BusDirection.WRITE)
        device.issue_col(0, 0, 1, 0, BusDirection.READ, precharge=True)
        device.issue_act(1, 3, 0)
        device.issue_col(1, 3, 5, 0, BusDirection.READ)
        report = audit_trace(device.trace)
        assert report.turnarounds == 1
        assert report.banks_touched == 2

    def test_via_col_precharge_skips_row_bus_check(self):
        # A via-col PRER overlapping an ACT's row-bus slot is legal.
        audit_trace([
            act(0, 0, 0),
            col(0, 0, 0, 11),
            data(0, 21, 11),
            act(1, 0, 20),
            prer(0, 20, via_col=True),
        ])


class TestViolations:
    def test_row_bus_collision(self):
        with pytest.raises(ProtocolError, match="row bus"):
            audit_trace([act(0, 0, 0), act(1, 0, 2)])

    def test_t_rr_violation(self):
        # Packets spaced by t_pack but closer than t_RR.
        with pytest.raises(ProtocolError, match="t_RR"):
            audit_trace([act(0, 0, 0), act(1, 0, 4)])

    def test_act_to_open_bank(self):
        with pytest.raises(ProtocolError, match="ACT to open bank"):
            audit_trace([act(0, 0, 0), act(0, 1, 40)])

    def test_t_rc_violation(self):
        trace = [
            act(0, 0, 0),
            prer(0, 20),
            act(0, 1, 30),  # >= t_RP after PRER but < t_RC after ACT
        ]
        with pytest.raises(ProtocolError, match="t_RC"):
            audit_trace(trace)

    def test_t_rp_violation(self):
        trace = [
            act(0, 0, 0),
            prer(0, 30),
            act(0, 1, 36),  # t_RC ok at 36? no: t_RC=34 ok, t_RP=10 not
        ]
        with pytest.raises(ProtocolError, match="t_RP"):
            audit_trace(trace)

    def test_prer_to_closed_bank(self):
        with pytest.raises(ProtocolError, match="PRER to closed"):
            audit_trace([prer(0, 0)])

    def test_t_ras_violation(self):
        with pytest.raises(ProtocolError, match="t_RAS"):
            audit_trace([act(0, 0, 0), prer(0, 10)])

    def test_t_cpol_violation(self):
        trace = [
            act(0, 0, 0),
            col(0, 0, 0, 30),
            prer(0, 31),  # overlaps the 30-33 COL by 3 > t_CPOL cycles
            data(0, 40, 30),
        ]
        with pytest.raises(ProtocolError, match="t_CPOL"):
            audit_trace(trace)

    def test_col_bus_collision(self):
        trace = [
            act(0, 0, 0),
            col(0, 0, 0, 11),
            col(0, 0, 1, 13),
            data(0, 21, 11),
            data(0, 25, 13),
        ]
        with pytest.raises(ProtocolError, match="col bus"):
            audit_trace(trace)

    def test_t_rcd_violation(self):
        with pytest.raises(ProtocolError, match="t_RCD"):
            audit_trace([act(0, 0, 0), col(0, 0, 0, 5), data(0, 15, 5)])

    def test_col_to_wrong_row(self):
        with pytest.raises(ProtocolError, match="open row"):
            audit_trace([act(0, 0, 0), col(0, 3, 0, 11), data(0, 21, 11)])

    def test_data_bus_collision(self):
        trace = [
            act(0, 0, 0),
            col(0, 0, 0, 11),
            col(0, 0, 1, 15),
            data(0, 21, 11),
            data(0, 23, 15),  # should be 25
        ]
        with pytest.raises(ProtocolError, match="data bus"):
            audit_trace(trace)

    def test_data_latency_mismatch(self):
        with pytest.raises(ProtocolError, match="does not follow"):
            audit_trace([act(0, 0, 0), col(0, 0, 0, 11), data(0, 30, 11)])

    def test_turnaround_violation(self):
        trace = [
            act(0, 0, 0),
            col(0, 0, 0, 11, ColCommand.WR),
            data(0, 19, 11, BusDirection.WRITE),
            col(0, 0, 1, 15, ColCommand.RD),
            data(0, 25, 15, BusDirection.READ),  # needs >= 23 + t_RW
        ]
        with pytest.raises(ProtocolError, match="t_RW"):
            audit_trace(trace)

    def test_unknown_record(self):
        class Bogus:
            start = 0

        with pytest.raises(ProtocolError, match="unknown"):
            audit_trace([Bogus()])

    def test_bank_out_of_range(self):
        with pytest.raises(ProtocolError, match="outside"):
            audit_trace([act(99, 0, 0)])


class TestAuditMemory:
    """Each channel is audited against its own geometry."""

    @staticmethod
    def _fabric():
        config = MemorySystemConfig.cli(
            topology=MemoryTopology(channels=2, devices_per_channel=2)
        )
        system = build_smc_system(
            DAXPY, config, length=256, fifo_depth=32, record_trace=True,
            refresh=True,
        )
        run_smc(system)
        return system.device

    def test_one_report_per_channel(self):
        reports = audit_memory(self._fabric())
        assert len(reports) == 2
        assert all(report.col_packets > 0 for report in reports)

    def test_catches_t_rcd_on_channel_one(self):
        memory = self._fabric()
        channel = channel_memories(memory)[1]
        bank = next(
            index
            for index in range(channel.geometry.num_banks)
            if not channel.bank(index).is_open
        )
        later = max(packet.start for packet in channel.trace) + 1000
        activate = channel.issue_act(bank, 0, later)
        channel.trace.append(
            col(bank, 0, 0, activate + channel.timing.t_rcd - 1)
        )
        with pytest.raises(ProtocolError, match="t_RCD"):
            audit_memory(memory)
