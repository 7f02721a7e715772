"""Tests for the open-loop multi-client traffic layer.

Covers workload validation and seeded determinism (identical latency
histograms across repeated runs), request draws equal to the stdlib's
``randrange``/``expovariate`` draws, the arrival-order check, Zipf
hot-set skew concentrating bank traffic, the per-client bank-budget
regulator enforcing its rate bound and starting each run fresh, the
default watchdog, and a four-channel run reporting latency percentiles
and balanced per-channel bandwidth shares.
"""

from __future__ import annotations

import bisect
import json
import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SchedulingError
from repro.memsys.address import AddressMapping, get_address_mapping
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.obs.metrics import MetricsRegistry
from repro.rdram.device import RdramGeometry
from repro.rdram.packets import BusDirection
from repro.sim.kernel import Simulation
from repro.traffic.driver import LATENCY_BUCKETS, ArrivalPump
from repro.traffic import (
    COMPONENTS,
    BankBudgetRegulator,
    Request,
    TrafficResult,
    TrafficWorkload,
    generate_requests,
    run_traffic,
)
from repro.traffic.workload import _client_hot_set, _zipf_cdf

#: Small populations keep each simulated run under a second.
SMALL = TrafficWorkload(clients=64, requests=200, seed=9)

HOT = TrafficWorkload(
    clients=8,
    requests=400,
    mean_gap=1.0,
    zipf_s=2.5,
    hot_lines=2,
    hot_fraction=1.0,
    seed=5,
)


class TestWorkloadValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("clients", 0),
            ("requests", 0),
            ("mean_gap", 0.0),
            ("zipf_s", -1.0),
            ("hot_lines", 0),
            ("hot_fraction", 1.5),
            ("write_fraction", -0.1),
            ("clients", 2.5),
            ("clients", True),
            ("requests", 2.5),
            ("requests", 8.0),
            ("hot_lines", 2.5),
            ("hot_lines", True),
            ("mean_gap", float("nan")),
            ("mean_gap", float("inf")),
            ("zipf_s", float("nan")),
            ("zipf_s", float("inf")),
        ],
    )
    def test_rejects_bad_parameters(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            TrafficWorkload(**{field: value})


class TestRequestGeneration:
    def test_deterministic_per_seed(self, cli_config):
        mapping = get_address_mapping(cli_config)
        first = generate_requests(SMALL, mapping)
        second = generate_requests(SMALL, mapping)
        assert first == second

    def test_different_seeds_differ(self, cli_config):
        mapping = get_address_mapping(cli_config)
        a = generate_requests(SMALL, mapping)
        b = generate_requests(
            TrafficWorkload(clients=64, requests=200, seed=10), mapping
        )
        assert a != b

    def test_arrivals_sorted_and_addresses_in_range(self, cli_config):
        mapping = get_address_mapping(cli_config)
        requests = generate_requests(SMALL, mapping)
        assert len(requests) == SMALL.requests
        arrivals = [request.arrival for request in requests]
        assert arrivals == sorted(arrivals)
        line = cli_config.cacheline_bytes
        for request in requests:
            assert 0 <= request.address < mapping.capacity_bytes
            assert request.address % line == 0

    def test_write_fraction_zero_is_all_reads(self, cli_config):
        mapping = get_address_mapping(cli_config)
        requests = generate_requests(
            TrafficWorkload(
                clients=8, requests=100, write_fraction=0.0, seed=2
            ),
            mapping,
        )
        assert all(r.direction is BusDirection.READ for r in requests)


def _reference_hot_set(
    seed: int, client: int, hot_lines: int, total_lines: int
) -> Tuple[int, ...]:
    """The hot-set draw through the stdlib calls, kept verbatim."""
    rng = random.Random(seed * 1_000_003 + client * 7_919 + 17)
    return tuple(rng.randrange(total_lines) for _ in range(hot_lines))


def _reference_requests(
    workload: TrafficWorkload, mapping: AddressMapping
) -> List[Request]:
    """The request draw made through the stdlib's ``expovariate``,
    ``randrange`` and ``random`` calls: the reference
    ``generate_requests`` must equal draw for draw."""
    line_bytes = mapping.config.cacheline_bytes
    total_lines = mapping.capacity_bytes // line_bytes
    hot_lines = min(workload.hot_lines, total_lines)
    rng = random.Random(workload.seed)
    cdf = _zipf_cdf(hot_lines, workload.zipf_s)
    hot_sets: Dict[int, Tuple[int, ...]] = {}
    requests: List[Request] = []
    clock = 0.0
    for _ in range(workload.requests):
        clock += rng.expovariate(1.0 / workload.mean_gap)
        client = rng.randrange(workload.clients)
        if rng.random() < workload.hot_fraction:
            hot = hot_sets.get(client)
            if hot is None:
                hot = _reference_hot_set(
                    workload.seed, client, hot_lines, total_lines
                )
                hot_sets[client] = hot
            rank = min(bisect.bisect_left(cdf, rng.random()), hot_lines - 1)
            line = hot[rank]
        else:
            line = rng.randrange(total_lines)
        direction = (
            BusDirection.WRITE
            if rng.random() < workload.write_fraction
            else BusDirection.READ
        )
        requests.append(
            Request(
                arrival=int(clock),
                client=client,
                address=line * line_bytes,
                direction=direction,
            )
        )
    return requests


#: 6 banks x 1000 rows x 1 KB pages: 192000 cachelines, not a power of
#: two, so the draws over the address space reject and redraw.
ODD_GEOMETRY = RdramGeometry(num_banks=6, page_bytes=1024, rows_per_bank=1000)

#: cli and pi at 1, 2 and 4 channels, plus the odd geometry.
DRAW_MAPPINGS = [
    get_address_mapping(
        getattr(MemorySystemConfig, org)(
            topology=MemoryTopology(channels=channels)
        )
    )
    for org in ("cli", "pi")
    for channels in (1, 2, 4)
] + [get_address_mapping(MemorySystemConfig.cli(geometry=ODD_GEOMETRY))]


def _with_edges(edges, strategy):
    return st.one_of(st.sampled_from(edges), strategy)


class TestDrawIdentity:
    """``generate_requests`` draws exactly what the stdlib calls draw."""

    @settings(max_examples=150, deadline=None)
    @given(
        clients=_with_edges([1, 3, 7, 64, 100, 1000], st.integers(1, 5000)),
        requests=st.integers(1, 150),
        hot_lines=_with_edges([1, 7, 64], st.integers(1, 200)),
        hot_fraction=_with_edges([0.0, 1.0], st.floats(0.0, 1.0)),
        write_fraction=_with_edges([0.0, 1.0], st.floats(0.0, 1.0)),
        zipf_s=_with_edges([0.0, 1.2], st.floats(0.0, 4.0)),
        mean_gap=_with_edges(
            [0.25, 1.0, 4.0, 36.0, 2000.0], st.floats(0.01, 10_000.0)
        ),
        seed=_with_edges([1, 7], st.integers(0, 2**40)),
        mapping=st.sampled_from(DRAW_MAPPINGS),
    )
    def test_requests_equal_stdlib_draws(
        self,
        clients,
        requests,
        hot_lines,
        hot_fraction,
        write_fraction,
        zipf_s,
        mean_gap,
        seed,
        mapping,
    ):
        workload = TrafficWorkload(
            clients=clients,
            requests=requests,
            mean_gap=mean_gap,
            zipf_s=zipf_s,
            hot_lines=hot_lines,
            hot_fraction=hot_fraction,
            write_fraction=write_fraction,
            seed=seed,
        )
        assert generate_requests(workload, mapping) == _reference_requests(
            workload, mapping
        )

    @pytest.mark.parametrize(
        "total_lines", [1, 2, 3, 1000, 192_000, 262_144, 2**20 + 1]
    )
    def test_hot_set_equals_randrange(self, total_lines):
        for client in (0, 1, 851):
            assert _client_hot_set(
                7, client, 64, total_lines
            ) == _reference_hot_set(7, client, 64, total_lines)

    @pytest.mark.parametrize("total_lines", [3, 192_000, 262_144])
    def test_shallow_hot_set_is_a_prefix(self, total_lines):
        # generate_requests draws each hot set only as deep as it is
        # used; that is bit-identical only if depth k gives the first
        # k lines of the full set.
        for seed, client in ((1, 0), (7, 851)):
            full = _client_hot_set(seed, client, 64, total_lines)
            for depth in range(1, 65):
                assert _client_hot_set(
                    seed, client, depth, total_lines
                ) == full[:depth]

    def test_coldest_rank_is_drawn(self):
        # Uniform ranks over four lines: some client's request uses
        # rank 3, so its hot set is drawn to the full depth.
        mapping = DRAW_MAPPINGS[0]
        workload = TrafficWorkload(
            clients=8,
            requests=200,
            zipf_s=0.0,
            hot_lines=4,
            hot_fraction=1.0,
            seed=3,
        )
        requests = generate_requests(workload, mapping)
        assert requests == _reference_requests(workload, mapping)
        line_bytes = mapping.config.cacheline_bytes
        total_lines = mapping.capacity_bytes // line_bytes
        coldest = []
        for request in requests:
            hot = _reference_hot_set(workload.seed, request.client, 4, total_lines)
            line = request.address // line_bytes
            if line == hot[3] and line not in hot[:3]:
                coldest.append(request)
        assert coldest


class TestArrivalOrder:
    def test_out_of_order_requests_raise(self, cli_config):
        mapping = get_address_mapping(cli_config)
        requests = generate_requests(SMALL, mapping)
        later = next(
            index
            for index in range(1, len(requests))
            if requests[index].arrival > requests[index - 1].arrival
        )
        requests[later - 1], requests[later] = (
            requests[later],
            requests[later - 1],
        )
        released = []

        class Server:
            enqueue = released.append

        pump = ArrivalPump(requests, [Server()], mapping)
        with pytest.raises(SchedulingError, match=rf"request {later} "):
            while not pump.done:
                pump.tick(pump.next_action_cycle)
        assert released == requests[:later]


class TestSeededDeterminism:
    def test_identical_latency_histograms(self):
        registries = [MetricsRegistry(), MetricsRegistry()]
        results = [
            run_traffic(workload=SMALL, channels=2, registry=registry)
            for registry in registries
        ]
        histograms = [
            registry.histogram("traffic.latency_cycles", LATENCY_BUCKETS)
            for registry in registries
        ]
        assert histograms[0].count == SMALL.requests
        assert histograms[0].bucket_counts == histograms[1].bucket_counts
        assert results[0].p50_latency == results[1].p50_latency
        assert results[0].p99_latency == results[1].p99_latency
        assert results[0].channel_bytes == results[1].channel_bytes
        assert results[0].bank_bytes == results[1].bank_bytes


class TestZipfSkew:
    def test_hot_sets_concentrate_bank_traffic(self):
        skewed = run_traffic(
            workload=TrafficWorkload(
                clients=4,
                requests=400,
                zipf_s=2.0,
                hot_lines=8,
                hot_fraction=1.0,
                seed=3,
            )
        )
        uniform = run_traffic(
            workload=TrafficWorkload(
                clients=4,
                requests=400,
                zipf_s=0.0,
                hot_fraction=0.0,
                seed=3,
            )
        )
        top_skewed = max(
            skewed.bank_share(bank) for bank in skewed.bank_bytes
        )
        top_uniform = max(
            uniform.bank_share(bank) for bank in uniform.bank_bytes
        )
        assert top_skewed > top_uniform


class TestRegulator:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BankBudgetRegulator(window_cycles=0)
        with pytest.raises(ConfigurationError):
            BankBudgetRegulator(budget_bytes=0)
        for name in ("window_cycles", "budget_bytes"):
            for value in (2.5, True, "64", 64.5):
                with pytest.raises(
                    ConfigurationError, match=f"{name} must be an integer"
                ):
                    BankBudgetRegulator(**{name: value})

    def test_budget_below_cacheline_rejected(self):
        with pytest.raises(ConfigurationError):
            run_traffic(
                workload=HOT,
                regulator=BankBudgetRegulator(
                    window_cycles=512, budget_bytes=16
                ),
            )

    def test_bounds_hot_client_bank_rate(self):
        free = run_traffic(workload=HOT)
        regulator = BankBudgetRegulator(window_cycles=512, budget_bytes=32)
        capped = run_traffic(workload=HOT, regulator=regulator)
        bound = regulator.budget_bytes / regulator.window_cycles
        # Slack covers the fractional final window.
        assert capped.max_client_bank_rate <= bound * 1.1
        assert capped.max_client_bank_rate < free.max_client_bank_rate
        assert capped.deferrals > 0
        # Regulation defers, never drops: all traffic is still served.
        assert capped.total_bytes == free.total_bytes
        assert capped.cycles > free.cycles

    def test_unregulated_run_reports_no_deferrals(self):
        result = run_traffic(workload=SMALL)
        assert not result.regulated and result.deferrals == 0

    def test_reused_regulator_starts_each_run_fresh(self):
        workload = TrafficWorkload(
            clients=64, requests=16, hot_fraction=0.0, seed=5
        )

        def regulator():
            return BankBudgetRegulator(window_cycles=8192, budget_bytes=32)

        fresh = run_traffic(workload=workload, regulator=regulator())
        reused = regulator()
        runs = [
            run_traffic(workload=workload, regulator=reused)
            for _ in range(2)
        ]
        assert [run.to_dict() for run in runs] == [fresh.to_dict()] * 2
        assert reused.deferrals == fresh.deferrals

    @pytest.mark.parametrize("scheduler", ["fcfs", "frfcfs", "mars"])
    def test_deferrals_do_not_depend_on_visited_cycles(
        self, monkeypatch, scheduler
    ):
        # A blocked server's budgets cannot change before its window
        # rolls over, so making the kernel visit every cycle must not
        # add deferrals.
        def run():
            return run_traffic(
                workload=TrafficWorkload(
                    clients=8, requests=600, mean_gap=4, seed=3, hot_lines=4
                ),
                scheduler=scheduler,
                regulator=BankBudgetRegulator(1024, 64),
            )

        plain = run()
        monkeypatch.setattr(
            "repro.traffic.driver.Simulation", _DenseSimulation
        )
        visited = run()
        assert plain.deferrals > 0
        assert visited.to_dict() == plain.to_dict()


class _DenseSimulation(Simulation):
    """The kernel in dense mode: it visits every cycle."""

    def __init__(self, components, **kwargs) -> None:
        super().__init__(components, dense=True, **kwargs)


class TestWatchdog:
    def test_light_load_runs_past_the_per_request_allowance(self):
        # The last request arrives near cycle 185k, past the 110k that
        # 50,000 + 600 cycles per request alone allows.
        result = run_traffic(
            workload=TrafficWorkload(clients=4, requests=100, mean_gap=2000.0)
        )
        assert result.requests == 100
        assert result.cycles > 50_000 + 600 * 100

    def test_regulated_run_waits_out_its_windows(self):
        # Each request after the first waits for the next 100k-cycle
        # window before its budget lets it through.
        result = run_traffic(
            workload=TrafficWorkload(
                clients=1, requests=4, hot_lines=1, hot_fraction=1.0
            ),
            regulator=BankBudgetRegulator(
                window_cycles=100_000, budget_bytes=32
            ),
        )
        assert result.requests == 4
        assert result.deferrals > 0
        assert result.cycles > 3 * 100_000


class TestFourChannelRun:
    def test_percentiles_and_shares(self):
        result = run_traffic(
            workload=TrafficWorkload(clients=128, requests=400, seed=11),
            channels=4,
        )
        assert result.channels == 4
        assert 0 < result.p50_latency <= result.p90_latency
        assert result.p90_latency <= result.p99_latency
        assert len(result.channel_bytes) == 4
        assert sum(result.channel_shares) == pytest.approx(1.0)
        # Channel striping keeps the load roughly balanced.
        assert max(result.channel_shares) < 2 * min(result.channel_shares)
        assert result.total_bytes == sum(result.bank_bytes.values())
        assert result.total_bytes == sum(result.client_bytes.values())

    def test_more_channels_cut_latency(self):
        workload = TrafficWorkload(
            clients=128, requests=400, mean_gap=2.0, seed=11
        )
        single = run_traffic(workload=workload, channels=1)
        quad = run_traffic(workload=workload, channels=4)
        assert quad.p50_latency < single.p50_latency
        assert quad.cycles < single.cycles


class TestTopologyArguments:
    def test_config_and_arguments_conflict(self):
        config = MemorySystemConfig.cli(
            topology=MemoryTopology(channels=2)
        )
        with pytest.raises(ConfigurationError):
            run_traffic(config=config, workload=SMALL, channels=4)

    def test_config_topology_accepted_directly(self):
        config = MemorySystemConfig.cli(
            topology=MemoryTopology(channels=2)
        )
        result = run_traffic(config=config, workload=SMALL)
        assert result.channels == 2

    def test_summary_mentions_shares(self):
        result = run_traffic(workload=SMALL, channels=2)
        assert "p50=" in result.summary()
        assert "channel shares" in result.summary()
        assert "util" in result.summary()


class TestLatencyAttribution:
    """Per-request latency decomposition and its exactness invariant."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"channels": 2},
            {"channels": 2, "refresh": True},
            {
                "regulator": BankBudgetRegulator(
                    window_cycles=512, budget_bytes=32
                )
            },
        ],
    )
    def test_components_sum_to_total_latency(self, kwargs):
        registry = MetricsRegistry()
        workload = HOT if "regulator" in kwargs else SMALL
        result = run_traffic(
            workload=workload, registry=registry, **kwargs
        )
        assert set(result.component_cycles) == set(COMPONENTS)
        latency = registry.histogram(
            "traffic.latency_cycles", LATENCY_BUCKETS
        )
        # The closure invariant, checked per request inside the
        # driver, must also hold in aggregate.
        assert sum(result.component_cycles.values()) == int(latency.sum)
        for name in COMPONENTS:
            component = registry.histogram(
                "traffic.latency_component_cycles",
                LATENCY_BUCKETS,
                component=name,
            )
            assert component.count == result.requests

    def test_component_shares_and_means(self):
        result = run_traffic(workload=SMALL)
        shares = result.component_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        means = result.mean_component_cycles()
        assert sum(means.values()) * result.requests == pytest.approx(
            sum(result.component_cycles.values())
        )
        assert means["transfer"] > 0

    def test_refresh_shows_up_as_refresh_blocked(self):
        # An aggressive refresh cadence must steal cycles that the
        # attribution pins on refresh_blocked, nowhere else.
        quiet = run_traffic(workload=SMALL)
        noisy = run_traffic(workload=SMALL, refresh=200)
        assert quiet.refreshes == 0
        assert noisy.refreshes > 0
        assert quiet.component_cycles["refresh_blocked"] == 0
        assert noisy.component_cycles["refresh_blocked"] > 0

    @pytest.mark.parametrize("refresh", [2.5, "36"])
    def test_refresh_interval_must_be_an_int(self, refresh):
        # 2.5 used to truncate to a 2-cycle interval and then run
        # until the watchdog raised; "36" was accepted as 36.
        with pytest.raises(ConfigurationError, match="refresh interval"):
            run_traffic(workload=SMALL, refresh=refresh)

    @pytest.mark.parametrize("refresh", [False, 0])
    def test_false_or_zero_refresh_is_off(self, refresh):
        assert run_traffic(workload=SMALL, refresh=refresh).refreshes == 0

    def test_channel_utilization_reported(self):
        result = run_traffic(workload=SMALL, channels=2)
        assert len(result.channel_utilization) == 2
        assert all(0.0 < u <= 1.0 for u in result.channel_utilization)


class TestTelemetryWindow:
    def test_windowed_series_reconcile(self):
        registry = MetricsRegistry()
        result = run_traffic(
            workload=SMALL,
            channels=2,
            registry=registry,
            telemetry_window=256,
        )
        bank_series = [
            metric
            for metric in registry.all()
            if metric.name == "traffic.bank_bytes"
        ]
        assert bank_series
        assert sum(s.total() for s in bank_series) == result.total_bytes
        busy = [
            metric
            for metric in registry.all()
            if metric.name == "traffic.channel_busy_cycles"
        ]
        assert len(busy) == 2
        assert tuple(int(s.total()) for s in busy) == \
            result.channel_busy_cycles
        # Dense series: every window sampled, even all-zero ones.
        windows = {len(s.samples) for s in bank_series + busy}
        assert len(windows) == 1

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            run_traffic(workload=SMALL, telemetry_window=0)
        # Rejected before the run, not after it.
        for window in (2.5, "64", True):
            with pytest.raises(ConfigurationError, match="window.*integer"):
                run_traffic(workload=SMALL, telemetry_window=window)

    def test_window_sampling_is_bit_neutral(self):
        plain = run_traffic(workload=SMALL, channels=2)
        sampled = run_traffic(
            workload=SMALL, channels=2, telemetry_window=64
        )
        assert plain.p50_latency == sampled.p50_latency
        assert plain.cycles == sampled.cycles
        assert plain.bank_bytes == sampled.bank_bytes


class TestResultRoundTrip:
    def test_to_dict_from_dict(self):
        result = run_traffic(
            workload=SMALL, channels=2, telemetry_window=128, refresh=True
        )
        clone = TrafficResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone == result
