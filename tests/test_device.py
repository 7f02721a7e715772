"""Tests for the Direct RDRAM device model (packet engine)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.rdram.channel import make_memory
from repro.rdram.device import NEVER, BankState, RdramDevice, RdramGeometry
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
        start = device.issue_act(0, 5, 3)
        assert start == 3
        packet = device.trace[-1]
        assert packet.command is RowCommand.ACT
        assert packet == RowPacket(RowCommand.ACT, bank=0, row=5, start=3)
        assert device.bank(0).open_row == 5

    def test_t_rr_between_acts_on_device(self, device, timing):
        device.issue_act(0, 0, 0)
        second = device.issue_act(1, 0, 0)
        assert second == timing.t_rr

    def test_row_bus_occupancy_for_prer(self, device, timing):
        device.issue_act(0, 0, 0)
        device.issue_col(0, 0, 0, 0, BusDirection.READ)
        prer = device.issue_prer(0, 0)
        assert prer >= timing.t_ras
        # A following ACT cannot share the row bus with the PRER packet.
        act = device.issue_act(1, 0, prer)
        assert act >= prer + timing.t_pack

    def test_act_row_out_of_range(self, device):
        with pytest.raises(ProtocolError, match="row"):
            device.issue_act(0, 99999, 0)

    def test_bank_out_of_range(self, device):
        with pytest.raises(ProtocolError, match="bank"):
            device.issue_act(8, 0, 0)


class TestColumnCommands:
    def test_read_data_follows_col_by_cac_plus_rdly(self, device, timing):
        act = device.issue_act(0, 0, 0)
        col, data, data_end = device.issue_col(0, 0, 0, 0, BusDirection.READ)
        assert col == act + timing.t_rcd
        assert data == col + timing.t_cac + timing.t_rdly
        assert data_end == data + timing.t_pack

    def test_write_data_follows_col_by_cac(self, device, timing):
        device.issue_act(0, 0, 0)
        col, data, data_end = device.issue_col(0, 0, 0, 0, BusDirection.WRITE)
        assert data == col + timing.t_cac
        assert data_end == data + timing.t_pack

    def test_col_bus_serializes_packets(self, device, timing):
        device.issue_act(0, 0, 0)
        first_col, first_data, _ = device.issue_col(0, 0, 0, 0, BusDirection.READ)
        second_col, second_data, _ = device.issue_col(
            0, 0, 1, 0, BusDirection.READ
        )
        assert second_col == first_col + timing.t_pack
        assert second_data == first_data + timing.t_pack

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
        write_col, _, write_end = device.issue_col(0, 0, 0, 0, BusDirection.WRITE)
        _, read_data, _ = device.issue_col(
            0, 0, 1, write_col + timing.t_pack, BusDirection.READ
        )
        assert read_data >= write_end + timing.t_rw

    def test_read_to_write_has_no_turnaround(self, device, timing):
        device.issue_act(0, 0, 0)
        read_col, _, read_end = device.issue_col(0, 0, 0, 0, BusDirection.READ)
        _, write_data, _ = device.issue_col(
            0, 0, 1, read_col + timing.t_pack, BusDirection.WRITE
        )
        # Write data may start as soon as the data bus frees.
        assert write_data == read_end

    def test_back_to_back_reads_saturate_bus(self, device, timing):
        device.issue_act(0, 0, 0)
        previous_end = None
        for column in range(8):
            _, data, data_end = device.issue_col(
                0, 0, column, 0, BusDirection.READ
            )
            if previous_end is not None:
                assert data == previous_end
            previous_end = data_end


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
        assert act == timing.t_rr

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
        assert device.issue_act(0, 0, 0) == 0

    def test_earliest_queries_do_not_mutate(self, device, timing):
        device.issue_act(0, 0, 0)
        before = device.earliest_col(0, 0, 0, BusDirection.READ)
        after = device.earliest_col(0, 0, 0, BusDirection.READ)
        assert before == after == timing.t_rcd


class TestBankReads:
    def test_bank_is_a_snapshot(self, device, timing):
        device.issue_act(2, 5, 0)
        before = device.bank(2)
        assert before == BankState(5, 0, NEVER, NEVER)
        device.issue_col(2, 5, 0, 0, BusDirection.READ, precharge=True)
        # The snapshot keeps the state it was taken in.
        assert before.is_open and before.last_col_end == NEVER
        after = device.bank(2)
        assert not after.is_open
        assert after.last_col_end == timing.t_rcd + timing.t_pack
        with pytest.raises(AttributeError):
            after.open_row = 5

    def test_open_row_reads_without_a_snapshot(self, device):
        assert device.open_row(3) is None
        device.issue_act(3, 9, 0)
        assert device.open_row(3) == 9 == device.bank(3).open_row

    @pytest.mark.parametrize("read", ["bank", "open_row"])
    def test_reads_are_bounds_checked(self, device, read):
        for index in (-1, 8):
            with pytest.raises(ProtocolError, match="bank index"):
                getattr(device, read)(index)

    def test_fabric_forwards_reads_by_global_bank(self):
        config = MemorySystemConfig.cli(topology=MemoryTopology(channels=2))
        fabric = make_memory(config)
        banks = fabric.geometry.banks_per_channel
        fabric.issue_act(banks + 1, 4, 0)
        assert fabric.open_row(banks + 1) == 4
        assert fabric.bank(banks + 1) == fabric.channel_memories[1].bank(1)
        assert fabric.open_row(1) is None
        with pytest.raises(ProtocolError, match="global bank"):
            fabric.open_row(fabric.geometry.num_banks)
