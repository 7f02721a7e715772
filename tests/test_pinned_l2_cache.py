"""Pinned output of the L2 streamer and the cached natural-order baseline.

``tests/data/pinned_l2_cache.json`` was captured before the L2
streamer's per-visit state was made incremental and before
:meth:`~repro.cache.model.CacheModel.access` began sharing one hit
outcome.  Unlike ``pinned_line_controllers.json``, whose L2 entries
run daxpy on the default 64 KiB 2-way L2 and never refetch, this grid
reaches the demand-refetch branch and mid-run dirty writebacks:

l2-streaming
    copy, daxpy, vaxpy and hydro on CLI and PI, with prefetch windows
    1, 8 and 32, on the default L2 and on a 2 KiB direct-mapped L2
    (``CacheConfig(2048, 1, 32)``), staggered and aligned, at strides
    1 and 4.
cached-natural-order
    the same kernels, organizations, placements and strides behind a
    2 KiB direct-mapped cache and a 4 KiB 4-way cache.

Every run is 256 elements per stream with the packet trace recorded.
A case pins the result's ``to_dict()``, the cache's hits, misses and
writebacks, a sha256 digest of the device packet trace and, for the
L2 streamer, its refetch and streamed-writeback tallies.  Comparisons
are on canonical JSON text, so an int that turned into a float fails.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Optional

import pytest

from repro import KERNELS
from repro.cache.controller import CachedNaturalOrderController
from repro.cache.model import CacheConfig
from repro.core.l2stream import L2StreamingController
from repro.cpu.streams import Alignment
from repro.memsys.config import MemorySystemConfig

FIXTURE = Path(__file__).parent / "data" / "pinned_l2_cache.json"

LENGTH = 256
KERNEL_NAMES = ("copy", "daxpy", "vaxpy", "hydro")
ORGANIZATIONS = ("cli", "pi")
ALIGNMENTS = (Alignment.STAGGERED, Alignment.ALIGNED)
STRIDES = (1, 4)
WINDOWS = (1, 8, 32)

#: L2 geometries: ``None`` is the controller's default (64 KiB, 2-way).
L2_CONFIGS: Dict[str, Optional[CacheConfig]] = {
    "l2-default": None,
    "l2-2k-dm": CacheConfig(2048, 1, 32),
}

CACHE_CONFIGS: Dict[str, CacheConfig] = {
    "cache-2k-dm": CacheConfig(2048, 1, 32),
    "cache-4k-4way": CacheConfig(4096, 4, 32),
}


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _cache_counts(cache) -> dict:
    return {
        "hits": cache.hits,
        "misses": cache.misses,
        "writebacks": cache.writebacks,
    }


def _l2_case(kernel, org, window, l2_name, alignment, stride) -> Callable[[], dict]:
    def run() -> dict:
        controller = L2StreamingController(
            getattr(MemorySystemConfig, org)(),
            l2_config=L2_CONFIGS[l2_name],
            prefetch_window=window,
            record_trace=True,
        )
        result = controller.run(
            KERNELS[kernel], length=LENGTH, stride=stride,
            alignment=alignment,
        )
        return {
            "result": result.to_dict(),
            "refetches": controller.refetches,
            "writebacks_streamed": controller.writebacks_streamed,
            "cache": _cache_counts(controller.l2),
            "trace_sha256": _digest(controller.device.trace),
        }

    return run


def _cached_case(kernel, org, cache_name, alignment, stride) -> Callable[[], dict]:
    def run() -> dict:
        controller = CachedNaturalOrderController(
            getattr(MemorySystemConfig, org)(),
            cache_config=CACHE_CONFIGS[cache_name],
            record_trace=True,
        )
        result = controller.run(
            KERNELS[kernel], length=LENGTH, stride=stride,
            alignment=alignment,
        )
        return {
            "result": result.to_dict(),
            "cache": _cache_counts(controller.cache),
            "trace_sha256": _digest(controller.device.trace),
        }

    return run


CASES: Dict[str, Callable[[], dict]] = {}
for _kernel in KERNEL_NAMES:
    for _org in ORGANIZATIONS:
        for _alignment in ALIGNMENTS:
            for _stride in STRIDES:
                _tail = f"{_alignment.value}/s{_stride}"
                for _l2 in L2_CONFIGS:
                    for _window in WINDOWS:
                        CASES[
                            f"l2-streaming/{_kernel}/{_org}/w{_window}/"
                            f"{_l2}/{_tail}"
                        ] = _l2_case(
                            _kernel, _org, _window, _l2, _alignment, _stride
                        )
                for _cache in CACHE_CONFIGS:
                    CASES[
                        f"cached-natural-order/{_kernel}/{_org}/{_cache}/"
                        f"{_tail}"
                    ] = _cached_case(
                        _kernel, _org, _cache, _alignment, _stride
                    )


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


class TestPinnedL2Cache:
    @pytest.mark.parametrize("key", sorted(CASES))
    def test_identical(self, pinned, key):
        assert _canonical(CASES[key]()) == _canonical(pinned[key])

    def test_fixture_covers_every_case(self, pinned):
        assert sorted(pinned) == sorted(CASES)

    def test_grid_reaches_refetches_and_writebacks(self, pinned):
        """The pins cover the branches the default-L2 pins never reach."""
        l2 = [r for k, r in pinned.items() if k.startswith("l2-streaming/")]
        assert any(record["refetches"] > 0 for record in l2)
        assert any(record["refetches"] == 0 for record in l2)
        # Writebacks streamed mid-run: more than the end-of-run flush,
        # which drains at most the 2 KiB L2's 64 lines.
        assert any(
            record["writebacks_streamed"] > 2048 // 32
            and record["refetches"] > 0
            for key, record in pinned.items()
            if "/l2-2k-dm/" in key
        )
        assert pinned[
            "l2-streaming/daxpy/cli/w8/l2-2k-dm/aligned/s1"
        ]["refetches"] == 511
