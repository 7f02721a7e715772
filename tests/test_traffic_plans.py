"""Identity and property tests for the traffic service path.

``tests/data/pinned_traffic_paths.json`` was captured before request
plans were cached on :class:`~repro.traffic.driver.ChannelServer`,
before the reordering schedulers stopped building whole-queue order
lists, and before the histogram and COL-issue fast paths.  It holds
``TrafficResult.to_dict()`` for every scheduler, with and without a
:class:`~repro.traffic.driver.BankBudgetRegulator`, on a one-channel
CLI system, a four-channel CLI system and a one-channel DReAM system,
all with background refresh.  The identity tests regenerate each case
and require byte-identical results.

On top of that floor:

* static mappings decompose each request address exactly once per
  run, its line's other DATA packets counted up from that one
  location; the stateful DReAM mapping keeps decomposing at service
  time;
* the per-channel attribution state stays bounded on long runs, and
  a traffic run builds no :class:`~repro.obs.core.Instrumentation`;
* :meth:`Histogram.observe` and :meth:`Histogram.observe_counts`
  match a linear bucket scan;
* the ``frfcfs``/``mars`` picks match the whole-queue order-list
  implementation they replaced (kept below as the reference),
  including regulator deferral counts, MARS's active batch and every
  bank's open row, on open and ``timeout`` pages, on the static
  ``pi`` and the remapping ``dream`` mapping, and on channel 0 or 1.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter, deque
from pathlib import Path
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.address import AddressMapping, get_address_mapping
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.obs.core import Instrumentation
from repro.obs.metrics import Histogram
from repro.rdram.channel import make_memory
from repro.rdram.fabric import channel_memories
from repro.rdram.packets import BusDirection
from repro.traffic import (
    BankBudgetRegulator,
    TrafficWorkload,
    make_scheduler,
    run_traffic,
)
from repro.traffic.driver import ChannelServer
from repro.traffic.workload import Request, generate_requests

FIXTURE = Path(__file__).parent / "data" / "pinned_traffic_paths.json"

#: About twice one CLI channel's service rate from six clients with
#: tiny hot sets: queues grow past the reorder windows, and the
#: regulator defers thousands of times, so the regulated scans reach
#: beyond the windows.
PINNED_WORKLOAD = TrafficWorkload(
    clients=6,
    requests=600,
    mean_gap=10.0,
    zipf_s=1.5,
    hot_lines=4,
    hot_fraction=0.9,
    seed=4,
)

SCHEDULERS = ("fcfs", "frfcfs", "mars")

#: Organization name -> (config factory, channel count).  DReAM runs
#: open-page so the row-hit scheduler has open rows to find.
SYSTEMS = {
    "cli-1ch": (MemorySystemConfig.cli, 1),
    "cli-4ch": (MemorySystemConfig.cli, 4),
    "dream-1ch": (
        lambda: MemorySystemConfig.pi(interleaving="dream"),
        1,
    ),
}


def _regulator() -> BankBudgetRegulator:
    return BankBudgetRegulator(window_cycles=512, budget_bytes=64)


def pinned_cases() -> Dict[str, dict]:
    """Every pinned case: fixture key -> ``run_traffic`` arguments
    (the regulator is built fresh per call)."""
    cases = {}
    for system, (config, channels) in SYSTEMS.items():
        for scheduler in SCHEDULERS:
            for regulated in (False, True):
                key = (
                    f"{system}/{scheduler}/"
                    f"{'regulated' if regulated else 'unregulated'}"
                )
                cases[key] = dict(
                    config=config,
                    channels=channels,
                    scheduler=scheduler,
                    regulated=regulated,
                )
    return cases


def run_case(case: dict) -> dict:
    """One pinned case's ``to_dict()``, normalized through JSON."""
    result = run_traffic(
        case["config"](),
        PINNED_WORKLOAD,
        channels=case["channels"],
        scheduler=case["scheduler"],
        regulator=_regulator() if case["regulated"] else None,
        refresh=True,
    )
    return json.loads(json.dumps(result.to_dict()))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


class TestPinnedTrafficPaths:
    @pytest.mark.parametrize("key", sorted(pinned_cases()))
    def test_byte_identical(self, pinned, key):
        assert run_case(pinned_cases()[key]) == pinned[key]

    def test_fixture_covers_the_full_matrix(self, pinned):
        assert sorted(pinned) == sorted(pinned_cases())
        assert len(pinned) == 18

    def test_regulated_cases_defer(self, pinned):
        # The regulated fixtures only prove the deferral accounting if
        # the regulator actually held requests back.
        for key, result in pinned.items():
            if key.endswith("/regulated"):
                assert result["deferrals"] > 0, key


# ---------------------------------------------------------------------------
# Resolve each address once


def _counting_decompose(monkeypatch) -> List[int]:
    """Count every ``AddressMapping.decompose`` call (all mappings and
    the channel-striping stage inherit it)."""
    calls: List[int] = []
    original = AddressMapping.decompose

    def counted(self, address):
        calls.append(address)
        return original(self, address)

    monkeypatch.setattr(AddressMapping, "decompose", counted)
    return calls


#: Shallow-queue population with repeated hot lines, for the counts.
COUNT_WORKLOAD = TrafficWorkload(
    clients=16, requests=400, mean_gap=12.0, hot_lines=8, seed=9
)


class TestPlanCache:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("regulated", (False, True))
    @pytest.mark.parametrize(
        "config,channels",
        (
            (MemorySystemConfig.cli, 1),
            (MemorySystemConfig.cli, 4),
            (MemorySystemConfig.pi, 1),
        ),
        ids=("cli-1ch", "cli-4ch", "pi-1ch"),
    )
    def test_static_mapping_decomposes_each_packet_once(
        self, monkeypatch, config, channels, scheduler, regulated
    ):
        calls = _counting_decompose(monkeypatch)
        built = config()
        run_traffic(
            built,
            COUNT_WORKLOAD,
            channels=channels,
            scheduler=scheduler,
            regulator=_regulator() if regulated else None,
        )
        if channels > 1:
            built = dataclasses.replace(
                built, topology=MemoryTopology(channels=channels)
            )
        requests = generate_requests(
            COUNT_WORKLOAD, get_address_mapping(built)
        )
        distinct = {request.address for request in requests}
        # One decompose per distinct request address, and no other.
        assert sorted(calls) == sorted(distinct)

    def test_stateful_mapping_decomposes_at_service_time(self, monkeypatch):
        calls = _counting_decompose(monkeypatch)
        config = MemorySystemConfig.pi(interleaving="dream")
        result = run_traffic(config, COUNT_WORKLOAD, scheduler="mars")
        # Every served packet is decomposed when it issues, and the
        # scheduler decomposes again for its own decisions.
        packets = config.packets_per_cacheline * result.requests
        assert len(calls) > packets

    def test_plan_matches_the_mapping(self):
        config = MemorySystemConfig.cli()
        server = _server(config, make_scheduler("fcfs"))
        mapping = server.mapping
        for address in (0, 32, 4096, 123 * 32):
            plan = server.plan(address)
            first = mapping.decompose(address)
            assert (plan.bank, plan.row) == (first.bank, first.row)
            assert plan.packets == tuple(
                (loc.bank, loc.row, loc.column)
                for loc in (
                    mapping.decompose(address + 16 * offset)
                    for offset in range(config.packets_per_cacheline)
                )
            )
            assert server.plan(address) is plan


class TestBoundedAttributionMemory:
    def test_live_gap_list_holds_one_request(self, monkeypatch):
        seen = {"gaps": 0, "left": 0, "served": 0}
        attribute = ChannelServer._attribute

        def watched_attribute(self, *args):
            # The gaps the memory recorded for this request alone.
            seen["gaps"] = max(seen["gaps"], len(self.gaps))
            attribute(self, *args)
            seen["served"] += 1
            # What survives a served request: its gaps are gone; only
            # refresh spans it has not passed remain.
            seen["left"] = max(
                seen["left"], len(self.gaps) + len(self.refresh_spans)
            )

        monkeypatch.setattr(ChannelServer, "_attribute", watched_attribute)
        config = MemorySystemConfig.cli()
        workload = TrafficWorkload(
            clients=32, requests=3000, mean_gap=16.0, seed=2
        )
        result = run_traffic(config, workload, channels=2, refresh=200)
        assert result.refreshes > 200
        assert seen["served"] == workload.requests
        # A request's gaps come from its own DATA packets only.
        assert 0 < seen["gaps"] <= config.packets_per_cacheline
        assert seen["left"] <= 2

    def test_no_instrumentation_is_built(self, monkeypatch):
        built: List[Instrumentation] = []
        original = Instrumentation.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Instrumentation, "__init__", counted)
        result = run_traffic(
            MemorySystemConfig.cli(), COUNT_WORKLOAD, channels=2, refresh=True
        )
        assert result.refreshes > 0
        assert result.component_cycles["refresh_blocked"] > 0
        assert built == []


# ---------------------------------------------------------------------------
# Histogram bisection


def _linear_scan_state(bounds, values) -> dict:
    """The linear-scan ``Histogram.observe`` the bisection replaced."""
    bounds = tuple(float(b) for b in bounds)
    counts = [0] * (len(bounds) + 1)
    total, low, high = 0.0, None, None
    for value in values:
        index = len(bounds)
        for i, bound in enumerate(bounds):
            if value <= bound:
                index = i
                break
        counts[index] += 1
        total += value
        low = value if low is None else min(low, value)
        high = value if high is None else max(high, value)
    return {
        "bounds": list(bounds),
        "bucket_counts": counts,
        "count": len(values),
        "sum": total,
        "min": low,
        "max": high,
    }


class TestHistogramBisection:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_linear_scan(self, data):
        """``observe`` on any values, and ``observe_counts`` on an
        integer tally, match the linear scan over the same values."""
        bounds = sorted(
            data.draw(
                st.lists(
                    st.floats(-1e6, 1e6, allow_nan=False),
                    min_size=1,
                    max_size=12,
                    unique=True,
                )
            )
        )
        value = st.one_of(
            st.sampled_from(bounds),
            st.floats(allow_nan=False),
            st.integers(-(10**6), 10**6),
            st.sampled_from([0, 0.0, -0.0, -1.0, bounds[-1] + 1.0]),
        )
        values = data.draw(st.lists(value, max_size=40))
        histogram = Histogram("h", bounds=bounds)
        for observed in values:
            histogram.observe(observed)
        assert repr(histogram.state()) == repr(
            _linear_scan_state(bounds, values)
        )
        # The bulk path sums one product per distinct value, which is
        # exact for integers: a bound, above the last bound, <= 0, or
        # none at all (an empty tally).
        integral = [
            float(int(bound)) for bound in bounds if bound == int(bound)
        ]
        integer = st.one_of(
            st.integers(-(10**6), 10**6).map(float),
            st.sampled_from(
                integral + [0.0, -1.0, float(math.floor(bounds[-1]) + 1)]
            ),
        )
        tally = Counter(
            data.draw(st.lists(integer, max_size=40))
        )
        bulk = Histogram("h", bounds=bounds)
        bulk.observe_counts(tally.items())
        assert repr(bulk.state()) == repr(
            _linear_scan_state(bounds, list(tally.elements()))
        )


# ---------------------------------------------------------------------------
# Scheduler picks against the whole-queue order-list reference


def _server(
    config: MemorySystemConfig,
    scheduler,
    regulator: Optional[BankBudgetRegulator] = None,
    channel: int = 0,
) -> ChannelServer:
    """The server of one channel, as ``run_traffic`` wires it."""
    memory = make_memory(config)
    channel_memory = channel_memories(memory)[channel]
    return ChannelServer(
        index=channel,
        memory=channel_memory,
        mapping=memory.mapping,
        config=config,
        bank_offset=channel * channel_memory.geometry.num_banks,
        regulator=regulator,
        scheduler=scheduler,
    )


def _reference_first_admitted(server, positions, cycle):
    regulator = server.regulator
    if regulator is None:
        for position in positions:
            request = server.queue[position]
            del server.queue[position]
            return request
        return None
    line_bytes = server.config.cacheline_bytes
    for position in positions:
        request = server.queue[position]
        bank = server.mapping.decompose(request.address).bank
        if regulator.allows(request.client, bank, line_bytes, cycle):
            del server.queue[position]
            return request
        regulator.deferrals += 1
    return None


def _reference_fcfs(scheduler, server, cycle):
    if server.regulator is None:
        return server.queue.popleft() if server.queue else None
    return _reference_first_admitted(
        server, list(range(len(server.queue))), cycle
    )


def _reference_frfcfs(scheduler, server, cycle):
    if not server.queue:
        return None

    def row_hit(request):
        location = server.mapping.decompose(request.address)
        local = location.bank - server.bank_offset
        server.memory.sync_bank(local, cycle)
        return server.memory.bank(local).open_row == location.row

    window = min(scheduler.window, len(server.queue))
    hits = [
        position
        for position in range(window)
        if row_hit(server.queue[position])
    ]
    ready = set(hits)
    order = hits + [
        position
        for position in range(len(server.queue))
        if position not in ready
    ]
    return _reference_first_admitted(server, order, cycle)


def _reference_mars(scheduler, server, cycle):
    if not server.queue:
        return None
    if cycle - server.queue[0].arrival >= scheduler.age_cap:
        request = _reference_first_admitted(
            server, range(len(server.queue)), cycle
        )
        if request is not None:
            location = server.mapping.decompose(request.address)
            scheduler._active_batch = (location.bank, location.row)
        return request
    window = min(scheduler.window, len(server.queue))
    batches: dict = {}
    for position in range(window):
        location = server.mapping.decompose(server.queue[position].address)
        batches.setdefault((location.bank, location.row), []).append(
            position
        )
    if scheduler._active_batch in batches:
        chosen = scheduler._active_batch
    else:
        chosen = max(
            batches,
            key=lambda key: (len(batches[key]), -batches[key][0]),
        )
    preferred = set(batches[chosen])
    order = batches[chosen] + [
        position
        for position in range(len(server.queue))
        if position not in preferred
    ]
    request = _reference_first_admitted(server, order, cycle)
    if request is not None:
        location = server.mapping.decompose(request.address)
        scheduler._active_batch = (location.bank, location.row)
    return request


REFERENCE_PICKS = {
    "fcfs": _reference_fcfs,
    "frfcfs": _reference_frfcfs,
    "mars": _reference_mars,
}

#: Page interleaving over the first 16 pages of a channel: 8 banks x
#: 2 rows, 32 lines a page, so random queues form (bank, row) batches
#: and hit open rows.
PICK_LINES = 16 * 32
PICK_CYCLE = 400


@st.composite
def pick_systems(draw):
    """A PI channel the pick reads: open or ``timeout`` pages (the
    runtime manager whose due closes a pick must sync), page or
    stateful ``dream`` interleaving, and channel 0 of one channel or
    channel 1 of two (a nonzero ``bank_offset``)."""
    return dict(
        page_policy=draw(st.sampled_from(("open", "timeout"))),
        page_timeout_cycles=draw(st.integers(1, PICK_CYCLE + 100)),
        interleaving=draw(st.sampled_from(("pi", "dream"))),
        channel=draw(st.sampled_from((0, 1))),
    )


@st.composite
def pick_scenarios(draw):
    scheduler = draw(st.sampled_from(sorted(REFERENCE_PICKS)))
    params = {}
    if scheduler == "frfcfs":
        params["window"] = draw(st.integers(1, 8))
    elif scheduler == "mars":
        params["window"] = draw(st.integers(1, 8))
        params["age_cap"] = draw(st.integers(1, PICK_CYCLE + 50))
    queue = draw(
        st.lists(
            st.tuples(
                st.integers(0, PICK_CYCLE),
                st.integers(0, 5),
                st.integers(0, PICK_LINES - 1),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    queue.sort(key=lambda item: item[0])
    # Per local bank: None (closed) or (row, cycle its ACT was asked
    # for); timeout pages close the early ones by the pick.
    open_rows = draw(
        st.lists(
            st.one_of(
                st.none(),
                st.tuples(st.integers(0, 1), st.integers(0, PICK_CYCLE)),
            ),
            min_size=8,
            max_size=8,
        )
    )
    regulator = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from((32, 64, 96)),
                st.lists(
                    st.tuples(
                        st.integers(0, 5),
                        st.integers(0, 7),
                        st.sampled_from((32, 64, 96)),
                    ),
                    max_size=30,
                ),
            ),
        )
    )
    active = draw(
        st.one_of(
            st.none(),
            st.tuples(st.integers(0, 7), st.integers(0, 1)),
        )
    )
    picks = draw(st.integers(1, 4))
    # DReAM remaps after each pick, so a plan cached by an earlier
    # pick goes stale.
    remaps = draw(st.lists(st.integers(0, 2), min_size=picks, max_size=picks))
    return dict(
        scheduler=scheduler,
        params=params,
        system=draw(pick_systems()),
        queue=queue,
        open_rows=open_rows,
        regulator=regulator,
        active=active,
        remaps=remaps,
    )


def _build_pick_server(scenario) -> ChannelServer:
    system = scenario["system"]
    channel = system["channel"]
    config = MemorySystemConfig.pi(
        page_policy=system["page_policy"],
        page_timeout_cycles=system["page_timeout_cycles"],
        interleaving=system["interleaving"],
        # Every observed access is an epoch: each remap_dream call
        # moves the map.
        remap_epoch_accesses=1,
        topology=MemoryTopology(channels=channel + 1),
    )
    regulator = None
    if scenario["regulator"] is not None:
        regulator = BankBudgetRegulator(
            window_cycles=1 << 20, budget_bytes=scenario["regulator"][0]
        )
    instance = make_scheduler(scenario["scheduler"], **scenario["params"])
    server = _server(config, instance, regulator, channel=channel)
    offset = server.bank_offset
    if regulator is not None:
        for client, bank, nbytes in scenario["regulator"][1]:
            regulator.charge(client, offset + bank, nbytes, PICK_CYCLE)
    if scenario["scheduler"] == "mars" and scenario["active"] is not None:
        bank, row = scenario["active"]
        instance._active_batch = (offset + bank, row)
    for bank, opened in enumerate(scenario["open_rows"]):
        if opened is not None:
            row, cycle = opened
            server.memory.issue_act(bank, row, cycle)
    line_bytes = server.config.cacheline_bytes
    channels = config.topology.channels
    server.queue = deque(
        Request(
            arrival=arrival,
            client=client,
            # Channel striping rotates lines over the channels.
            address=(line * channels + channel) * line_bytes,
            direction=BusDirection.WRITE if write else BusDirection.READ,
        )
        for arrival, client, line, write in scenario["queue"]
    )
    return server


def remap_dream(server: ChannelServer) -> None:
    """Feed the mapping one access; on ``dream`` (one-access epochs)
    that shifts the map, on a static mapping it does nothing."""
    server.mapping.observe_access(0, 0, PICK_CYCLE)


def _open_rows(server: ChannelServer) -> List[Optional[int]]:
    memory = server.memory
    return [memory.open_row(bank) for bank in range(memory.geometry.num_banks)]


class TestPickEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(scenario=pick_scenarios())
    def test_same_request_deferrals_and_batch(self, scenario):
        new = _build_pick_server(scenario)
        old = _build_pick_server(scenario)
        reference = REFERENCE_PICKS[scenario["scheduler"]]
        for remaps in scenario["remaps"]:
            got = new.scheduler.pick(new, PICK_CYCLE)
            want = reference(old.scheduler, old, PICK_CYCLE)
            assert got == want
            assert list(new.queue) == list(old.queue)
            # A pick that skipped a due timeout close leaves its bank
            # open here.
            assert _open_rows(new) == _open_rows(old)
            if new.regulator is not None:
                assert new.regulator.deferrals == old.regulator.deferrals
            assert getattr(new.scheduler, "_active_batch", None) == getattr(
                old.scheduler, "_active_batch", None
            )
            if got is not None and new.regulator is not None:
                # Serve it, as the server would, so later picks see
                # the charge.
                for server in (new, old):
                    server.regulator.charge(
                        got.client,
                        server.mapping.decompose(got.address).bank,
                        server.config.cacheline_bytes,
                        PICK_CYCLE,
                    )
            for _ in range(remaps):
                remap_dream(new)
                remap_dream(old)
