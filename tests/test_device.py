"""Tests for the Direct RDRAM device model (packet engine)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.rdram.device import RdramDevice, RdramGeometry
from repro.rdram.packets import BusDirection, RowCommand, RowPacket


class TestGeometry:
    def test_defaults_match_paper(self):
        g = RdramGeometry()
        assert g.num_banks == 8
        assert g.page_bytes == 1024
        assert g.packets_per_page == 64
        assert g.capacity_bytes == 8 * 1024 * 1024

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            RdramGeometry(num_banks=0)
        with pytest.raises(ConfigurationError):
            RdramGeometry(page_bytes=1000)  # not packet-aligned
        for field, bad in (
            ("num_banks", 8.5),
            ("num_banks", "8"),
            ("num_banks", True),
            ("page_bytes", 1024.0),
            ("rows_per_bank", 2.5),
            ("rows_per_bank", None),
            ("doubled_banks", 1),
            ("doubled_banks", "yes"),
        ):
            with pytest.raises(ConfigurationError, match=field):
                RdramGeometry(**{field: bad})


class TestRowCommands:
    def test_act_at_requested_time(self, device):
        packet = device.issue_act(0, 5, 3)
        assert packet.start == 3
        assert packet.command is RowCommand.ACT
        assert device.bank(0).open_row == 5

    def test_t_rr_between_acts_on_device(self, device, timing):
        device.issue_act(0, 0, 0)
        second = device.issue_act(1, 0, 0)
        assert second.start == timing.t_rr

    def test_row_bus_occupancy_for_prer(self, device, timing):
        device.issue_act(0, 0, 0)
        device.issue_col(0, 0, 0, 0, BusDirection.READ)
        prer = device.issue_prer(0, 0)
        assert prer.start >= timing.t_ras
        # A following ACT cannot share the row bus with the PRER packet.
        act = device.issue_act(1, 0, prer.start)
        assert act.start >= prer.start + timing.t_pack

    def test_act_row_out_of_range(self, device):
        with pytest.raises(ProtocolError, match="row"):
            device.issue_act(0, 99999, 0)

    def test_bank_out_of_range(self, device):
        with pytest.raises(ProtocolError, match="bank"):
            device.issue_act(8, 0, 0)


class TestColumnCommands:
    def test_read_data_follows_col_by_cac_plus_rdly(self, device, timing):
        act = device.issue_act(0, 0, 0)
        access = device.issue_col(0, 0, 0, 0, BusDirection.READ)
        assert access.col.start == act.start + timing.t_rcd
        assert access.data.start == access.col.start + timing.t_cac + timing.t_rdly

    def test_write_data_follows_col_by_cac(self, device, timing):
        device.issue_act(0, 0, 0)
        access = device.issue_col(0, 0, 0, 0, BusDirection.WRITE)
        assert access.data.start == access.col.start + timing.t_cac

    def test_col_bus_serializes_packets(self, device, timing):
        device.issue_act(0, 0, 0)
        first = device.issue_col(0, 0, 0, 0, BusDirection.READ)
        second = device.issue_col(0, 0, 1, 0, BusDirection.READ)
        assert second.col.start == first.col.start + timing.t_pack
        assert second.data.start == first.data.start + timing.t_pack

    def test_column_out_of_range(self, device):
        device.issue_act(0, 0, 0)
        with pytest.raises(ProtocolError, match="column"):
            device.issue_col(0, 0, 64, 0, BusDirection.READ)

    def test_col_to_wrong_row_rejected(self, device):
        device.issue_act(0, 0, 0)
        with pytest.raises(ProtocolError, match="open row"):
            device.issue_col(0, 1, 0, 0, BusDirection.READ)


class TestTurnaround:
    def test_write_to_read_pays_t_rw(self, device, timing):
        device.issue_act(0, 0, 0)
        write = device.issue_col(0, 0, 0, 0, BusDirection.WRITE)
        read = device.issue_col(0, 0, 1, write.col.end, BusDirection.READ)
        assert read.data.start >= write.data.end + timing.t_rw

    def test_read_to_write_has_no_turnaround(self, device, timing):
        device.issue_act(0, 0, 0)
        read = device.issue_col(0, 0, 0, 0, BusDirection.READ)
        write = device.issue_col(0, 0, 1, read.col.end, BusDirection.WRITE)
        # Write data may start as soon as the data bus frees.
        assert write.data.start == read.data.end

    def test_back_to_back_reads_saturate_bus(self, device, timing):
        device.issue_act(0, 0, 0)
        previous = None
        for column in range(8):
            access = device.issue_col(0, 0, column, 0, BusDirection.READ)
            if previous is not None:
                assert access.data.start == previous.data.end
            previous = access


class TestColCarriedPrecharge:
    def test_precharge_flag_closes_bank(self, device):
        device.issue_act(0, 0, 0)
        device.issue_col(0, 0, 0, 0, BusDirection.READ, precharge=True)
        assert not device.bank(0).is_open

    def test_precharge_does_not_occupy_row_bus(self, device, timing):
        device.issue_act(0, 0, 0)
        device.issue_col(0, 0, 0, 0, BusDirection.READ, precharge=True)
        # The very next ACT elsewhere is limited only by t_RR, not by a
        # row-bus PRER packet.
        act = device.issue_act(1, 0, 0)
        assert act.start == timing.t_rr

    def test_precharge_trace_marks_via_col(self, device):
        device.issue_act(0, 0, 0)
        device.issue_col(0, 0, 0, 0, BusDirection.READ, precharge=True)
        prers = [
            p for p in device.trace
            if isinstance(p, RowPacket) and p.command is RowCommand.PRER
        ]
        assert len(prers) == 1
        assert prers[0].via_col


class TestAccounting:
    def test_bytes_transferred_counts_data_packets(self, device):
        device.issue_act(0, 0, 0)
        device.issue_col(0, 0, 0, 0, BusDirection.READ)
        device.issue_col(0, 0, 1, 0, BusDirection.WRITE)
        assert device.bytes_transferred == 32

    def test_trace_disabled(self, timing):
        device = RdramDevice(timing=timing, record_trace=False)
        device.issue_act(0, 0, 0)
        device.issue_col(0, 0, 0, 0, BusDirection.READ)
        assert device.trace == []
        assert device.bytes_transferred == 16

    def test_reset_restores_power_on_state(self, device):
        device.issue_act(0, 0, 0)
        device.issue_col(0, 0, 0, 0, BusDirection.READ)
        device.reset()
        assert device.bytes_transferred == 0
        assert device.trace == []
        assert not device.bank(0).is_open
        assert device.issue_act(0, 0, 0).start == 0

    def test_earliest_queries_do_not_mutate(self, device, timing):
        device.issue_act(0, 0, 0)
        before = device.earliest_col(0, 0, 0, BusDirection.READ)
        after = device.earliest_col(0, 0, 0, BusDirection.READ)
        assert before == after == timing.t_rcd
