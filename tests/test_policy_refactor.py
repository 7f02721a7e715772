"""Tests for the adaptive-policy refactor: schedulers, dream, search.

``tests/data/pinned_policy_refactor.json`` was captured from the
simulator *before* scheduling was extracted out of
:class:`~repro.traffic.driver.ChannelServer`, before the registries
moved onto the shared :class:`repro.registry.Registry`, and before the
observe/epoch hook landed on :class:`~repro.memsys.address.
AddressMapping`.  The identity tests regenerate every pinned
configuration — open-loop traffic (scaled, hot, regulated) and all
five controllers across the static policy registries — and require
byte-identical results: the refactor re-routed the code, not the
behavior.

On top of the identity floor:

* scheduler registry semantics (FCFS equivalence, FR-FCFS/MARS
  parameter validation, the single-channel instance rule),
* the MARS starvation age cap and its matched-load p99 win,
* a Hypothesis property: ``dream`` remains a full bijection after
  every re-arrangement epoch, on random geometries and epoch lengths,
* the policy-search driver: same seed, same winners, warm-cache hit
  rates on generation 2+.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.controller import CachedNaturalOrderController
from repro.core.l2stream import L2StreamingController
from repro.core.smc import build_smc_system
from repro.cpu.kernels import PAPER_KERNELS
from repro.errors import ConfigurationError
from repro.exec import execution
from repro.experiments.multi_client import (
    HOT_WORKLOAD,
    REGULATOR_BUDGET,
    REGULATOR_WINDOW,
    SCALING_WORKLOAD,
)
from repro.memsys.address import get_address_mapping
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.naturalorder.controller import NaturalOrderController
from repro.naturalorder.random_driver import RandomAccessDriver
from repro.obs.ledger import Ledger
from repro.rdram.device import RdramGeometry
from repro.search import PolicyGenome, SearchConfig, mutate, run_search
from repro.sim.engine import run_smc
from repro.traffic import (
    SCHEDULERS,
    BankBudgetRegulator,
    TrafficWorkload,
    make_scheduler,
    run_traffic,
)

FIXTURE = Path(__file__).parent / "data" / "pinned_policy_refactor.json"

LENGTH = 128
FIFO_DEPTH = 32

ORGS = {
    "cli": MemorySystemConfig.cli,
    "pi": MemorySystemConfig.pi,
}

#: The matched-load Zipf hot-set population the scheduler comparisons
#: run on (small enough for the test budget: queues form in bursts,
#: so reordering has material to work with).
MATCHED_WORKLOAD = TrafficWorkload(
    clients=8,
    requests=512,
    mean_gap=32.0,
    zipf_s=2.0,
    hot_lines=4,
    hot_fraction=0.9,
    seed=5,
)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def _assert_matches(got: dict, want: dict) -> None:
    # Fixture keys only: fields added after the capture (e.g. the
    # TrafficResult ``scheduler`` tag) are new surface, not drift.
    # The JSON round trip normalizes tuples to lists, like the capture.
    got = json.loads(json.dumps(got))
    mismatches = {
        field: (got[field], value)
        for field, value in want.items()
        if got[field] != value
    }
    assert not mismatches, mismatches


class TestPinnedPolicyRefactorIdentity:
    """Static-policy results must be byte-identical to pre-refactor."""

    @pytest.mark.parametrize("channels", (1, 2, 4))
    def test_traffic_scaling(self, pinned, channels):
        result = run_traffic(workload=SCALING_WORKLOAD, channels=channels)
        _assert_matches(
            result.to_dict(), pinned[f"traffic/scaling/{channels}ch"]
        )

    def test_traffic_hot_unregulated(self, pinned):
        result = run_traffic(workload=HOT_WORKLOAD)
        _assert_matches(result.to_dict(), pinned["traffic/hot/unregulated"])

    def test_traffic_hot_regulated(self, pinned):
        result = run_traffic(
            workload=HOT_WORKLOAD,
            regulator=BankBudgetRegulator(
                window_cycles=REGULATOR_WINDOW,
                budget_bytes=REGULATOR_BUDGET,
            ),
        )
        _assert_matches(result.to_dict(), pinned["traffic/hot/regulated"])

    @pytest.mark.parametrize("org", sorted(ORGS))
    def test_smc(self, pinned, org):
        result = run_smc(
            build_smc_system(
                PAPER_KERNELS["daxpy"],
                ORGS[org](),
                length=LENGTH,
                fifo_depth=FIFO_DEPTH,
            )
        )
        _assert_matches(
            dataclasses.asdict(result), pinned[f"smc/{org}/daxpy"]
        )

    @pytest.mark.parametrize("org", sorted(ORGS))
    def test_natural_order(self, pinned, org):
        result = NaturalOrderController(ORGS[org]()).run(
            PAPER_KERNELS["daxpy"], length=LENGTH
        )
        _assert_matches(
            dataclasses.asdict(result), pinned[f"natural/{org}/daxpy"]
        )

    @pytest.mark.parametrize("org", sorted(ORGS))
    def test_cached(self, pinned, org):
        result = CachedNaturalOrderController(ORGS[org]()).run(
            PAPER_KERNELS["daxpy"], length=LENGTH
        )
        _assert_matches(
            dataclasses.asdict(result), pinned[f"cached/{org}/daxpy"]
        )

    @pytest.mark.parametrize("org", sorted(ORGS))
    def test_l2_streaming(self, pinned, org):
        result = L2StreamingController(ORGS[org]()).run(
            PAPER_KERNELS["daxpy"], length=LENGTH
        )
        _assert_matches(
            dataclasses.asdict(result), pinned[f"l2/{org}/daxpy"]
        )

    @pytest.mark.parametrize("org", sorted(ORGS))
    def test_random_driver(self, pinned, org):
        result = RandomAccessDriver(ORGS[org]()).run(
            64, write_fraction=0.25, seed=7
        )
        _assert_matches(
            dataclasses.asdict(result), pinned[f"random/{org}/uniform"]
        )

    @pytest.mark.parametrize(
        "interleaving,page_policy",
        (("swizzle", "closed"), ("cli", "timeout"), ("pi", "hybrid")),
    )
    def test_static_policy_combinations(
        self, pinned, interleaving, page_policy
    ):
        config = MemorySystemConfig(
            interleaving=interleaving, page_policy=page_policy
        )
        result = run_smc(
            build_smc_system(
                PAPER_KERNELS["daxpy"],
                config,
                length=LENGTH,
                fifo_depth=FIFO_DEPTH,
            )
        )
        _assert_matches(
            dataclasses.asdict(result),
            pinned[f"smc/{interleaving}+{page_policy}/daxpy"],
        )

    def test_fixture_covers_the_full_matrix(self, pinned):
        assert len(pinned) == 18


class TestSchedulerRegistry:
    @pytest.mark.parametrize("params", ({"window": 0}, {"window": -4}))
    def test_frfcfs_validates_the_window(self, params):
        with pytest.raises(ConfigurationError, match="window.*at least 1"):
            make_scheduler("frfcfs", **params)

    def test_mars_validates_the_window(self):
        with pytest.raises(ConfigurationError, match="window.*at least 1"):
            make_scheduler("mars", window=0)

    def test_mars_validates_the_age_cap(self):
        with pytest.raises(ConfigurationError, match="age_cap.*at least 1"):
            make_scheduler("mars", age_cap=0)

    @pytest.mark.parametrize(
        "name, param, value",
        [
            ("frfcfs", "window", 2.5),
            ("frfcfs", "window", True),
            ("frfcfs", "window", "16"),
            ("mars", "window", 4.0),
            ("mars", "window", False),
            ("mars", "age_cap", "512"),
            ("mars", "age_cap", float("nan")),
            ("mars", "age_cap", 512.0),
            ("mars", "age_cap", True),
        ],
    )
    def test_parameters_must_be_integers(self, name, param, value):
        # Before the check these raised a bare TypeError mid-run, or
        # (a NaN age cap) ran with the starvation cap silently off.
        with pytest.raises(ConfigurationError, match=f"{param}.*integer"):
            make_scheduler(name, **{param: value})

    def test_instance_rejected_across_channels(self):
        with pytest.raises(ConfigurationError, match="prebuilt"):
            run_traffic(
                workload=MATCHED_WORKLOAD,
                channels=2,
                scheduler=make_scheduler("mars"),
            )

    def test_name_accepted_across_channels(self):
        result = run_traffic(
            workload=MATCHED_WORKLOAD, channels=2, scheduler="mars"
        )
        assert result.scheduler == "mars"
        assert result.requests == MATCHED_WORKLOAD.requests


class TestSchedulerBehavior:
    def test_fcfs_is_the_default_and_identical(self):
        baseline = run_traffic(workload=MATCHED_WORKLOAD)
        explicit = run_traffic(workload=MATCHED_WORKLOAD, scheduler="fcfs")
        assert baseline.to_dict() == explicit.to_dict()
        assert baseline.scheduler == "fcfs"

    def test_fcfs_identical_under_regulation(self):
        regulator = lambda: BankBudgetRegulator(  # noqa: E731
            window_cycles=REGULATOR_WINDOW, budget_bytes=REGULATOR_BUDGET
        )
        baseline = run_traffic(workload=HOT_WORKLOAD, regulator=regulator())
        explicit = run_traffic(
            workload=HOT_WORKLOAD, regulator=regulator(), scheduler="fcfs"
        )
        assert baseline.to_dict() == explicit.to_dict()

    def test_mars_cuts_p99_at_matched_load(self):
        # The PR's acceptance criterion: batching the Zipf hot rows
        # into consecutive page hits cuts tail latency vs FCFS at
        # identical offered load (open-page system).
        config = MemorySystemConfig.cli(page_policy="open")
        fcfs = run_traffic(config, MATCHED_WORKLOAD, scheduler="fcfs")
        mars = run_traffic(config, MATCHED_WORKLOAD, scheduler="mars")
        assert mars.p99_latency < fcfs.p99_latency

    def test_mars_with_exhausted_age_cap_degenerates_to_fcfs(self):
        # Age cap 1: the oldest request is always "starved", so every
        # pick takes the strict-arrival-order path.
        config = MemorySystemConfig.cli(page_policy="open")
        fcfs = run_traffic(config, MATCHED_WORKLOAD, scheduler="fcfs")
        capped = run_traffic(
            config,
            MATCHED_WORKLOAD,
            scheduler=make_scheduler("mars", age_cap=1),
        )
        want = {
            k: v for k, v in fcfs.to_dict().items() if k != "scheduler"
        }
        _assert_matches(capped.to_dict(), want)

    def test_reused_scheduler_starts_each_run_fresh(self):
        # MARS used to carry its active batch into the next run; on
        # this tiny all-hot load that changed 23 of seeds 1-59 (seed
        # 2: 1900 cycles instead of 1877).
        for seed in range(1, 60):
            workload = TrafficWorkload(
                clients=2,
                requests=60,
                mean_gap=0.2,
                hot_lines=2,
                hot_fraction=1.0,
                seed=seed,
            )
            reused = make_scheduler("mars")
            run_traffic(workload=workload, scheduler=reused)
            again = run_traffic(workload=workload, scheduler=reused)
            fresh = run_traffic(
                workload=workload, scheduler=make_scheduler("mars")
            )
            assert again.to_dict() == fresh.to_dict(), seed

    def test_reset_clears_only_reordering_state(self):
        for name in SCHEDULERS.names():
            scheduler = make_scheduler(name)
            before = dict(vars(scheduler))
            scheduler.reset()
            assert vars(scheduler) == before
        mars = make_scheduler("mars", window=4, age_cap=7)
        mars._active_batch = (3, 1)
        mars.reset()
        assert mars._active_batch is None
        assert (mars.window, mars.age_cap) == (4, 7)

    def test_scheduler_round_trips_through_to_dict(self):
        from repro.traffic import TrafficResult

        result = run_traffic(workload=MATCHED_WORKLOAD, scheduler="frfcfs")
        assert result.scheduler == "frfcfs"
        restored = TrafficResult.from_dict(result.to_dict())
        assert restored.scheduler == "frfcfs"
        assert restored.to_dict() == result.to_dict()


@st.composite
def dream_histories(draw):
    """A dream mapping plus an access history spanning >= 2 epochs."""
    num_banks = draw(st.integers(min_value=1, max_value=8))
    geometry = RdramGeometry(
        num_banks=num_banks,
        page_bytes=256,
        rows_per_bank=draw(st.integers(min_value=2, max_value=8)),
    )
    epoch = draw(st.integers(min_value=1, max_value=32))
    config = MemorySystemConfig(
        geometry=geometry,
        interleaving="dream",
        page_policy="open",
        remap_epoch_accesses=epoch,
    )
    mapping = get_address_mapping(config)
    accesses = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_banks - 1),
                st.integers(
                    min_value=0, max_value=geometry.rows_per_bank - 1
                ),
            ),
            min_size=2 * epoch,
            max_size=4 * epoch,
        )
    )
    return mapping, epoch, accesses


class TestDreamMapping:
    @given(dream_histories())
    @settings(max_examples=60, deadline=None)
    def test_bijection_survives_every_epoch(self, case):
        # The satellite property: after *every* re-arrangement epoch —
        # whatever skew the history applied — decompose/compose is
        # still an exact bijection over the whole address space.
        mapping, epoch, accesses = case
        for position, (bank, row) in enumerate(accesses):
            mapping.observe_access(bank, row, now=position)
            if (position + 1) % epoch:
                continue
            seen = set()
            for address in range(0, mapping.capacity_bytes, 16):
                location = mapping.decompose(address)
                key = (location.bank, location.row, location.column)
                assert key not in seen
                seen.add(key)
                assert mapping.compose(location) == address
            assert len(seen) == mapping.capacity_bytes // 16

    def test_skewed_history_forces_remaps(self):
        config = MemorySystemConfig(
            geometry=RdramGeometry(
                num_banks=8, page_bytes=256, rows_per_bank=4
            ),
            interleaving="dream",
            page_policy="open",
            remap_epoch_accesses=16,
        )
        mapping = get_address_mapping(config)
        hot = mapping.decompose(0)
        events = sum(
            mapping.observe_access(hot.bank, hot.row, now=cycle)
            for cycle in range(64)
        )
        assert events == 4  # every fully-skewed epoch re-arranges
        assert mapping.remap_events == 4
        # The hot page lands somewhere else after the re-arrangement.
        assert mapping.decompose(0) != hot

    def test_balanced_history_never_remaps(self):
        config = MemorySystemConfig(
            geometry=RdramGeometry(
                num_banks=4, page_bytes=256, rows_per_bank=4
            ),
            interleaving="dream",
            page_policy="open",
            remap_epoch_accesses=8,
        )
        mapping = get_address_mapping(config)
        before = [
            mapping.decompose(a)
            for a in range(0, mapping.capacity_bytes, 16)
        ]
        for cycle in range(64):
            mapping.observe_access(cycle % 4, 0, now=cycle)
        after = [
            mapping.decompose(a)
            for a in range(0, mapping.capacity_bytes, 16)
        ]
        assert mapping.remap_events == 0
        assert before == after

    def test_channel_striping_delegates_observation(self):
        config = MemorySystemConfig(
            geometry=RdramGeometry(
                num_banks=8, page_bytes=256, rows_per_bank=4
            ),
            interleaving="dream",
            page_policy="open",
            remap_epoch_accesses=16,
        )
        striped = get_address_mapping(
            dataclasses.replace(
                config,
                topology=type(config.topology)(channels=2),
            )
        )
        assert striped.stateful
        hot = striped.base.decompose(0)
        for cycle in range(32):
            striped.observe_access(hot.bank, hot.row, now=cycle)
        assert striped.remap_events == striped.base.remap_events > 0
        # Still bijective through the striping composition.
        for address in range(0, striped.capacity_bytes, 256):
            assert striped.compose(striped.decompose(address)) == address

    def test_reset_restores_the_power_on_map(self):
        config = MemorySystemConfig(
            geometry=RdramGeometry(
                num_banks=8, page_bytes=256, rows_per_bank=4
            ),
            interleaving="dream",
            page_policy="open",
            remap_epoch_accesses=16,
            topology=MemoryTopology(channels=2),
        )
        striped = get_address_mapping(config)
        addresses = range(0, striped.capacity_bytes, 64)
        power_on = [striped.decompose(a) for a in addresses]
        hot = striped.base.decompose(0)
        for cycle in range(40):
            striped.observe_access(hot.bank, hot.row, now=cycle)
        assert striped.remap_events > 0
        assert [striped.decompose(a) for a in addresses] != power_on
        striped.reset()
        assert striped.remap_events == striped.base.remap_events == 0
        assert [striped.decompose(a) for a in addresses] == power_on
        # The monitor restarts too: the same history remaps the same way.
        for cycle in range(16):
            assert striped.observe_access(hot.bank, hot.row, now=cycle) == (
                cycle == 15
            )

    def test_epoch_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="remap_epoch"):
            MemorySystemConfig.cli(remap_epoch_accesses=0)

    def test_dream_routes_to_the_event_engine(self):
        from repro.cpu.kernels import KERNELS
        from repro.sim.batch import batch_unsupported_reason, run_smc_batch
        from repro.sim.runner import RunSpec, simulate

        config = MemorySystemConfig.cli(interleaving="dream")
        reason = batch_unsupported_reason(config)
        assert reason is not None and "'dream' is stateful" in reason
        with pytest.raises(ConfigurationError, match="'dream' is stateful"):
            run_smc_batch(KERNELS["daxpy"], config, length=64, fifo_depth=16)
        spec = RunSpec(
            kernel="daxpy", organization=config, length=64, fifo_depth=16
        )
        assert simulate(spec).cycles > 0


def _batch_hit_rates(ledger_path):
    """Per-batch warm-cache hit fraction from lifecycle events."""
    ledger = Ledger.load(ledger_path)
    hits: dict = {}
    done: dict = {}
    for event in ledger.events:
        if event.batch is None:
            continue
        # Traffic runs frame their own single-spec batches; only the
        # run_specs generation batches measure the result cache.
        if event.key is not None and event.key.startswith("traffic/"):
            continue
        if event.event == "cache_hit":
            hits[event.batch] = hits.get(event.batch, 0) + 1
        elif event.event == "completed":
            done[event.batch] = done.get(event.batch, 0) + 1
    return {
        batch: hits.get(batch, 0)
        / (hits.get(batch, 0) + done.get(batch, 0))
        for batch in sorted(set(hits) | set(done))
    }


class TestPolicySearch:
    def _config(self):
        return SearchConfig(generations=3, population=6, length=64)

    def test_same_seed_same_winners(self, tmp_path):
        outcomes = []
        for attempt in range(2):
            with execution(cache=str(tmp_path / "cache")):
                outcomes.append(run_search(self._config()))
        first, second = outcomes
        assert [g.best.genome for g in first.generations] == [
            g.best.genome for g in second.generations
        ]
        assert first.winner.genome == second.winner.genome
        assert first.winner.spec_keys == second.winner.spec_keys
        assert first.to_dict() == second.to_dict()

    def test_generation_two_runs_mostly_from_cache(self, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        with execution(
            cache=str(tmp_path / "cache"), ledger=str(ledger_path)
        ):
            result = run_search(self._config())
        rates = _batch_hit_rates(ledger_path)
        assert len(rates) == 3  # one run_specs batch per generation
        batches = sorted(rates)
        assert rates[batches[0]] == 0.0  # cold start
        for batch in batches[1:]:
            # Elites (and scheduler-only mutations) re-resolve from
            # the warm cache: the PR's >= 50% criterion.
            assert rates[batch] >= 0.5, rates
        ledger = Ledger.load(ledger_path)
        frames = [e for e in ledger.events if e.event == "generation"]
        assert [e.fields["index"] for e in frames] == [0, 1, 2]
        assert frames[-1].fields["best_genome"] == result.winner.genome.key()

    def test_search_runs_without_context(self):
        # No execution() frame: no cache, no ledger, still correct.
        result = run_search(
            SearchConfig(generations=1, population=2, elites=1, length=64)
        )
        assert len(result.generations) == 1
        assert result.winner.score == result.generations[0].best.score

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="generation"):
            SearchConfig(generations=0)
        with pytest.raises(ConfigurationError, match="population"):
            SearchConfig(population=1)
        with pytest.raises(ConfigurationError, match="elites"):
            SearchConfig(population=4, elites=4)
        with pytest.raises(ConfigurationError, match="kernel"):
            SearchConfig(kernels=())

    def test_normalization_collapses_inert_knobs(self):
        import random

        noisy = PolicyGenome(scheduler="fcfs", window=8, age_cap=128)
        assert noisy.normalized() == PolicyGenome()
        live = PolicyGenome(scheduler="mars", age_cap=128)
        assert live.normalized().age_cap == 128
        rng = random.Random(3)
        for _ in range(32):
            genome = mutate(PolicyGenome(), rng)
            assert genome != PolicyGenome()
