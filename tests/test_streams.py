"""Tests for stream descriptors and data placement."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, StreamError
from repro.cpu.kernels import DAXPY, HYDRO, VAXPY
from repro.cpu.streams import (
    Alignment,
    Direction,
    StreamDescriptor,
    place_streams,
)
from repro.memsys.address import get_address_mapping
from repro.memsys.config import MemorySystemConfig
from repro.sim.runner import RunSpec, simulate


class TestStreamDescriptor:
    def test_element_addresses(self):
        stream = StreamDescriptor("x", base=0, stride=1, length=4, direction=Direction.READ)
        assert [stream.element_address(i) for i in range(4)] == [0, 8, 16, 24]

    def test_strided_addresses(self):
        stream = StreamDescriptor("x", base=64, stride=3, length=3, direction=Direction.READ)
        assert [stream.element_address(i) for i in range(3)] == [64, 88, 112]

    def test_out_of_range_element(self):
        stream = StreamDescriptor("x", base=0, stride=1, length=4, direction=Direction.READ)
        with pytest.raises(StreamError, match="outside"):
            stream.element_address(4)
        with pytest.raises(StreamError):
            stream.element_address(-1)

    def test_footprint(self):
        stream = StreamDescriptor("x", base=0, stride=4, length=10, direction=Direction.READ)
        assert stream.footprint_bytes == (9 * 4 + 1) * 8

    def test_misaligned_base_rejected(self):
        with pytest.raises(StreamError, match="aligned"):
            StreamDescriptor("x", base=4, stride=1, length=4, direction=Direction.READ)

    def test_bad_stride_and_length_rejected(self):
        with pytest.raises(StreamError, match="stride"):
            StreamDescriptor("x", base=0, stride=0, length=4, direction=Direction.READ)
        with pytest.raises(StreamError, match="length"):
            StreamDescriptor("x", base=0, stride=1, length=0, direction=Direction.READ)
        # Non-ints, bools included, fail on construction, on placement
        # (which every controller and both SMC loops use) and so when
        # simulated.
        cli = MemorySystemConfig.cli()
        for field, value in (
            ("length", True), ("length", 2.5), ("length", "64"),
            ("stride", 1.5), ("stride", True),
        ):
            extent = {"length": 4, "stride": 1, field: value}
            match = f"stream x: {field} must be an integer"
            with pytest.raises(StreamError, match=match):
                StreamDescriptor("x", base=0, direction=Direction.READ, **extent)
            with pytest.raises(StreamError, match=match):
                place_streams(DAXPY.streams, cli, **extent)
            with pytest.raises(StreamError, match=match):
                simulate(RunSpec("daxpy", fifo_depth=8, **extent))

    def test_is_read(self):
        read = StreamDescriptor("x", base=0, stride=1, length=1, direction=Direction.READ)
        write = StreamDescriptor("y", base=0, stride=1, length=1, direction=Direction.WRITE)
        assert read.is_read and not write.is_read


class TestPlacement:
    @pytest.mark.parametrize("org", ["cli", "pi"])
    def test_aligned_bases_share_a_bank(self, org):
        config = getattr(MemorySystemConfig, org)()
        mapping = get_address_mapping(config)
        placed = place_streams(
            VAXPY.streams, config, length=1024, alignment=Alignment.ALIGNED
        )
        banks = {mapping.bank_of(d.base) for d in placed}
        assert banks == {0}

    @pytest.mark.parametrize("org", ["cli", "pi"])
    def test_staggered_bases_hit_distinct_banks(self, org):
        config = getattr(MemorySystemConfig, org)()
        mapping = get_address_mapping(config)
        placed = place_streams(
            VAXPY.streams, config, length=1024, alignment=Alignment.STAGGERED
        )
        vector_banks = {
            d.base: mapping.bank_of(d.base) for d in placed
        }
        # vaxpy has three distinct vectors (a, x, y); three banks.
        assert len(set(vector_banks.values())) == 3

    def test_staggered_banks_spread_evenly(self):
        config = MemorySystemConfig.pi()
        mapping = get_address_mapping(config)
        placed = place_streams(
            HYDRO.streams, config, length=1024, alignment=Alignment.STAGGERED
        )
        banks = [mapping.bank_of(d.base) for d in placed]
        # Four vectors over eight banks: 0, 2, 4, 6.
        assert banks == [0, 2, 4, 6]

    def test_rmw_streams_share_base(self):
        config = MemorySystemConfig.cli()
        placed = {d.name: d for d in place_streams(DAXPY.streams, config, length=64)}
        assert placed["y.rd"].base == placed["y.wr"].base
        assert placed["x"].base != placed["y.rd"].base

    def test_distinct_vectors_share_no_pages(self):
        config = MemorySystemConfig.pi()
        placed = place_streams(VAXPY.streams, config, length=1024)
        page = config.geometry.page_bytes
        ranges = {}
        for d in placed:
            pages = set(
                range(d.base // page, (d.base + d.footprint_bytes - 1) // page + 1)
            )
            ranges[d.base] = pages
        page_sets = list(ranges.values())
        for i, a in enumerate(page_sets):
            for b in page_sets[i + 1:]:
                assert not (a & b)

    def test_capacity_exceeded_rejected(self):
        config = MemorySystemConfig.cli()
        with pytest.raises(ConfigurationError, match="device holds"):
            place_streams(VAXPY.streams, config, length=200_000, stride=8)

    def test_strided_footprints_get_larger_regions(self):
        config = MemorySystemConfig.cli()
        unit = place_streams(DAXPY.streams, config, length=1024, stride=1)
        strided = place_streams(DAXPY.streams, config, length=1024, stride=16)
        assert strided[1].base > unit[1].base

    def test_descriptors_preserve_order_and_direction(self):
        config = MemorySystemConfig.cli()
        placed = place_streams(DAXPY.streams, config, length=8)
        assert [d.name for d in placed] == ["x", "y.rd", "y.wr"]
        assert [d.direction for d in placed] == [
            Direction.READ, Direction.READ, Direction.WRITE
        ]
