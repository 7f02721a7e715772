"""Tests for packet record types."""

from __future__ import annotations

from repro.rdram.packets import (
    BusDirection,
    ColCommand,
    ColPacket,
    DataPacket,
    RowCommand,
    RowPacket,
)


class TestPacketArithmetic:
    def test_data_packet_links_source_col(self):
        packet = DataPacket(BusDirection.READ, bank=2, start=30, source_col_start=20)
        assert packet.source_col_start == 20


class TestPacketSemantics:
    def test_prer_has_no_row(self):
        packet = RowPacket(RowCommand.PRER, bank=0, row=None, start=0)
        assert packet.row is None

    def test_via_col_defaults_false(self):
        packet = RowPacket(RowCommand.PRER, bank=0, row=None, start=0)
        assert not packet.via_col

    def test_command_vocabulary(self):
        assert {c.value for c in RowCommand} == {"ACT", "PRER"}
        assert {c.value for c in ColCommand} == {"RD", "WR"}
        assert {d.value for d in BusDirection} == {"read", "write"}

    def test_packets_are_hashable_values(self):
        a = RowPacket(RowCommand.ACT, bank=0, row=1, start=0)
        b = RowPacket(RowCommand.ACT, bank=0, row=1, start=0)
        assert a == b
        assert len({a, b}) == 1

    def test_packet_kinds_never_compare_equal(self):
        # Equal-valued tuples of two kinds differ in their first
        # field's enum type (``via_col=False`` equals a column of 0).
        row = RowPacket(RowCommand.ACT, bank=0, row=0, start=0)
        col = ColPacket(ColCommand.RD, bank=0, row=0, column=0, start=0)
        data = DataPacket(BusDirection.READ, bank=0, start=0, source_col_start=0)
        assert row != col
        assert len({row, col, data}) == 3
