"""Open-loop traffic driver over the channel fabric.

Wires the synthetic workload into the shared simulation kernel as
components:

* an :class:`ArrivalPump` that releases requests into per-channel
  queues at their Poisson arrival cycles (open loop — arrivals do not
  wait for service), and
* one :class:`ChannelServer` per channel, each serving its queue in
  the order its :class:`~repro.traffic.scheduling.Scheduler` picks
  (scheduler-ordered) against that channel's private memory model —
  channels are independent kernel components, exactly as independent
  memory controllers would be.

A server resolves each request address through the mapping once: for
a static mapping it caches the address's :class:`RequestPlan` (first
bank and row, plus every DATA packet's location) for the run, and the
scheduler, the regulator and the issue loop all read that plan.  A
stateful mapping (``dream``) may re-arrange its bijection after any
issued access, so its requests are decomposed afresh at the moment
each decision needs them, exactly as an uncached server would.

Each completed request's latency (arrival to last DATA packet end)
is tallied, and the run fills an :class:`~repro.obs.metrics.Histogram`
from the tallies once at the end, so it reports interpolated
p50/p90/p99; byte tallies are kept per bank, per channel and per
client.  An optional :class:`BankBudgetRegulator` enforces
per-client bank budgets per time window (Sullivan-style bandwidth
regulation): a client over budget on a bank has its requests deferred
to the next window, bounding the bank share any one client can take.

Every request's latency is additionally *attributed*: the per-request
analogue of the seven-bucket DATA-bus stall attribution
(:mod:`repro.obs.attribution`).  No :class:`~repro.obs.core.Instrumentation`
is involved: each channel memory's ``gap_log`` hook appends the
:class:`~repro.obs.core.DataBusGap` records of the request's packets
to its server's own list — the same records the closed-loop
attribution partitions — and each channel's refresh engine hands its
refresh spans to the server as they issue.  The server classifies
them with the shared :func:`~repro.obs.attribution.partition_gap` into
:data:`COMPONENTS`, and the components sum *exactly* to the measured
latency (an :class:`~repro.errors.ObservabilityError` otherwise, so
the accounting can never silently drift).  Latency and component
values are tallied as ``{value: count}`` per server and land in the
run's histograms in bulk at the end.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.errors import (
    ConfigurationError,
    ObservabilityError,
    SchedulingError,
    require_int,
)
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.obs.attribution import CONTROLLER, partition_gap
from repro.obs.core import DataBusGap
from repro.obs.metrics import MetricsRegistry
from repro.rdram.channel import make_memory
from repro.rdram.fabric import channel_memories
from repro.rdram.refresh import DEFAULT_INTERVAL_CYCLES, RefreshEngine
from repro.rdram.timing import DATA_PACKET_BYTES
from repro.sim.kernel import BackgroundComponent, Simulation
from repro.traffic.scheduling import Scheduler, make_scheduler
from repro.traffic.workload import Request, TrafficWorkload, generate_requests

#: Latency histogram bucket bounds, in interface-clock cycles.
LATENCY_BUCKETS = (
    8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
    2048.0, 4096.0, 8192.0, 16384.0, 32768.0, 65536.0,
)

#: Per-request latency components, in reporting order.  For every
#: served request they sum *exactly* to its measured latency:
#:
#: ``queue_wait``
#:     Arrival to service start (FCFS queueing plus regulator holds).
#: ``bank_busy``
#:     Service cycles below the bank-readiness bound — precharge,
#:     activate, and t_RCD of the banks the request touched.
#: ``refresh_blocked``
#:     Bank/bus wait cycles covered by a background refresh span
#:     (only nonzero when ``run_traffic(refresh=...)`` is enabled).
#: ``bus_contention``
#:     Write-to-read turnaround plus COL command-bus occupancy.
#: ``pipeline``
#:     The fixed command-to-data delay of each COL issued (the
#:     controller-side remainder of a gap: the request was issued at
#:     service start, so nothing else is left there).
#: ``transfer``
#:     DATA packets of the request on the bus (t_PACK each).
COMPONENTS = (
    "queue_wait",
    "bank_busy",
    "refresh_blocked",
    "bus_contention",
    "pipeline",
    "transfer",
)


def _active_ledger():
    """The ambient run-ledger writer, if an execution() context set one.

    Imported lazily: the exec layer depends on obs, not the other way
    around, and plain traffic runs should not pay the import.
    """
    from repro.exec.context import active_ledger

    return active_ledger()


class BankBudgetRegulator:
    """Per-client, per-bank byte budgets over fixed time windows.

    Args:
        window_cycles: Window length; budgets reset at each boundary.
        budget_bytes: Bytes one client may move through one bank per
            window; requests beyond it are deferred to the next
            window.

    Raises:
        ConfigurationError: If either is not a positive int.
    """

    def __init__(self, window_cycles: int = 1024, budget_bytes: int = 256) -> None:
        if require_int("window_cycles", window_cycles) <= 0:
            raise ConfigurationError("window_cycles must be positive")
        if require_int("budget_bytes", budget_bytes) <= 0:
            raise ConfigurationError("budget_bytes must be positive")
        self.window_cycles = window_cycles
        self.budget_bytes = budget_bytes
        self.reset()

    def reset(self) -> None:
        """Forget every deferral and spent budget.

        :func:`run_traffic` calls this as a run starts, so a regulator
        passed to several runs gives each the result a fresh one would.
        """
        self.deferrals = 0
        self._window = 0
        self._spent: Dict[Tuple[int, int], int] = {}

    def _roll(self, cycle: int) -> None:
        window = cycle // self.window_cycles
        if window != self._window:
            self._window = window
            self._spent.clear()

    def allows(self, client: int, bank: int, nbytes: int, cycle: int) -> bool:
        """True if the client may move ``nbytes`` through ``bank`` now."""
        self._roll(cycle)
        return (
            self._spent.get((client, bank), 0) + nbytes <= self.budget_bytes
        )

    def charge(self, client: int, bank: int, nbytes: int, cycle: int) -> None:
        """Debit a served request against its client's bank budget."""
        self._roll(cycle)
        key = (client, bank)
        self._spent[key] = self._spent.get(key, 0) + nbytes

    def next_window_start(self, cycle: int) -> int:
        """First cycle of the window after the one holding ``cycle``."""
        return (cycle // self.window_cycles + 1) * self.window_cycles


class ArrivalPump:
    """Releases requests into per-channel queues at their arrival cycles.

    Requests must come in nondecreasing arrival order, as
    :func:`~repro.traffic.workload.generate_requests` draws them.  The
    pump checks the order as it releases each request rather than
    sorting a copy, so a source out of order raises a
    :class:`~repro.errors.SchedulingError` instead of being reordered.
    """

    def __init__(
        self, requests: List[Request], servers: List["ChannelServer"], mapping
    ) -> None:
        self._pending: Deque[Request] = deque(requests)
        self._count = len(requests)
        self._last_arrival = requests[0].arrival if requests else 0
        self._servers = servers
        self._mapping = mapping

    @property
    def done(self) -> bool:
        return not self._pending

    def tick(self, cycle: int) -> None:
        pending = self._pending
        last = self._last_arrival
        while pending and pending[0].arrival <= cycle:
            request = pending.popleft()
            if request.arrival < last:
                index = self._count - len(pending) - 1
                raise SchedulingError(
                    f"request {index} (client {request.client}) arrives "
                    f"at cycle {request.arrival}, before its predecessor "
                    f"at cycle {last}; requests must be in arrival order"
                )
            last = request.arrival
            channel = self._mapping.channel_of(request.address)
            self._servers[channel].enqueue(request)
        self._last_arrival = last

    @property
    def next_action_cycle(self) -> Optional[int]:
        return self._pending[0].arrival if self._pending else None


#: One DATA packet's location: (global bank, channel-local bank, row,
#: column).
PacketLocation = Tuple[int, int, int, int]


class RequestPlan(NamedTuple):
    """Where one request's cacheline lives, resolved once.

    Attributes:
        bank: Global bank of the first DATA packet (the bank the
            scheduler, the regulator and the byte tallies key on).
        row: Row of the first DATA packet.
        packets: Every DATA packet's :data:`PacketLocation`, in issue
            order.
    """

    bank: int
    row: int
    packets: Tuple[PacketLocation, ...]


class ChannelServer:
    """Serves one channel's queue against its private memory.

    One server per channel; each is an independent kernel component,
    so service on one channel never blocks another.  A request
    occupies the server from issue until its last DATA packet ends
    (one transaction in flight per channel), which is what makes the
    per-window budget accounting of the regulator meaningful.

    *Which* pending request is served next is delegated to the
    server's :class:`~repro.traffic.scheduling.Scheduler` (FCFS by
    default — the historical behavior, byte-identical).  Schedulers
    may carry reordering state, so each server owns its own instance.

    Schedulers and the regulator locate a request through
    :meth:`bank_row`, never through the mapping directly, so a static
    mapping's address is decomposed once per run (see
    :class:`RequestPlan`).

    The server points its memory's ``gap_log`` at :attr:`gaps`, so the
    memory records the DATA-bus gaps of the packets it issues there;
    refresh spans arrive through :meth:`note_refresh`.  Both are
    dropped once a request is attributed, so attribution memory does
    not grow with the run.
    """

    def __init__(
        self,
        index: int,
        memory,
        mapping,
        config: MemorySystemConfig,
        bank_offset: int,
        regulator: Optional[BankBudgetRegulator] = None,
        window: Optional[int] = None,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        self.index = index
        self.memory = memory
        self.mapping = mapping
        self.config = config
        self.bank_offset = bank_offset
        self.regulator = regulator
        self.scheduler = scheduler if scheduler is not None else make_scheduler("fcfs")
        self.queue: Deque[Request] = deque()
        self.completed = 0
        self.last_data_end = 0
        self.bank_bytes: Dict[int, int] = {}
        self.client_bytes: Dict[int, int] = {}
        self.client_bank_bytes: Dict[Tuple[int, int], int] = {}
        self._busy_until = 0
        #: While the regulator blocks every queued request: the next
        #: window's first cycle, before which no pick can succeed (0
        #: when not blocked).
        self._blocked_until = 0
        #: DATA-bus gaps of the request being served (the memory's
        #: gap hook appends here).
        self.gaps: List[DataBusGap] = []
        memory.gap_log = self.gaps
        #: Sorted, disjoint refresh spans not yet behind the bus.
        self.refresh_spans: List[Tuple[int, int]] = []
        #: ``{value: count}`` of every served request's latency
        #: (``"latency"``) and of each of its :data:`COMPONENTS`.
        self.tallies: Dict[str, Dict[int, int]] = {
            name: {} for name in ("latency", *COMPONENTS)
        }
        # Optional telemetry window for per-(channel, bank) heatmap
        # series.
        self.window = window
        self.busy_cycles = 0
        self._stateful = mapping.stateful
        self._packet_count = config.packets_per_cacheline
        self._plans: Dict[int, RequestPlan] = {}
        self._win_bank_bytes: Dict[Tuple[int, int], int] = {}
        self._win_busy: Dict[int, int] = {}

    def enqueue(self, request: Request) -> None:
        self.queue.append(request)
        self._blocked_until = 0

    @property
    def idle(self) -> bool:
        return not self.queue

    def _location(self, address: int) -> PacketLocation:
        location = self.mapping.decompose(address)
        return (
            location.bank,
            location.bank - self.bank_offset,
            location.row,
            location.column,
        )

    def plan(self, address: int) -> RequestPlan:
        """The cached :class:`RequestPlan` of a static-mapping address."""
        plan = self._plans.get(address)
        if plan is None:
            packets = tuple(
                self._location(address + offset * DATA_PACKET_BYTES)
                for offset in range(self._packet_count)
            )
            plan = RequestPlan(packets[0][0], packets[0][2], packets)
            self._plans[address] = plan
        return plan

    def bank_row(self, request: Request) -> Tuple[int, int]:
        """Global (bank, row) of the request's first DATA packet.

        Static mappings read the cached plan; a stateful mapping is
        decomposed now, since its map may have moved since the last
        call.
        """
        if self._stateful:
            location = self.mapping.decompose(request.address)
            return location.bank, location.row
        plan = self.plan(request.address)
        return plan.bank, plan.row

    def head_bank_rows(self, count: int) -> List[Tuple[int, int]]:
        """Global (bank, row) of the first ``count`` queued requests.

        What :meth:`bank_row` gives each of them, read in one call:
        static mappings from the cached plans, a stateful mapping
        decomposed now.
        """
        head = islice(self.queue, count)
        if self._stateful:
            return [self.bank_row(request) for request in head]
        plans = self._plans
        rows = []
        for request in head:
            plan = plans.get(request.address)
            if plan is None:
                plan = self.plan(request.address)
            rows.append((plan.bank, plan.row))
        return rows

    def _live_packets(self, address: int) -> Iterator[PacketLocation]:
        # Stateful mappings: each packet is decomposed just before it
        # issues, after the previous packet may have moved the map.
        for offset in range(self._packet_count):
            yield self._location(address + offset * DATA_PACKET_BYTES)

    def note_refresh(self, span: Tuple[int, int]) -> None:
        """Record one refresh of this channel: ``(start, end)`` from its
        ACT through bank recovery.

        A channel's refreshes issue in ACT order, so a span that
        overlaps the last one extends it and the list stays disjoint.
        """
        spans = self.refresh_spans
        if spans and span[0] <= spans[-1][1]:
            spans[-1] = (spans[-1][0], max(spans[-1][1], span[1]))
        else:
            spans.append(span)

    def _note_window(self, bank: int, start: int, end: int) -> None:
        """Tally one DATA packet into the telemetry windows."""
        window = self.window
        assert window is not None
        self._win_bank_bytes[(start // window, bank)] = (
            self._win_bank_bytes.get((start // window, bank), 0)
            + DATA_PACKET_BYTES
        )
        cursor = start
        while cursor < end:
            index = cursor // window
            edge = min(end, (index + 1) * window)
            self._win_busy[index] = (
                self._win_busy.get(index, 0) + edge - cursor
            )
            cursor = edge

    def finalize_windows(
        self, registry: MetricsRegistry, end_cycle: int
    ) -> None:
        """Emit the per-window heatmap series into ``registry``.

        One dense ``traffic.bank_bytes{channel=,bank=}`` series per
        bank the channel touched, plus a
        ``traffic.channel_busy_cycles{channel=}`` occupancy series —
        all windows from 0 through the run's end, zeros included, so
        heatmap columns align across banks and channels.
        """
        window = self.window
        if not window:
            return
        last = max(end_cycle - 1, 0) // window
        for bank in sorted({bank for _, bank in self._win_bank_bytes}):
            series = registry.series(
                "traffic.bank_bytes",
                help="bytes moved per telemetry window",
                channel=self.index,
                bank=bank,
            )
            for index in range(last + 1):
                series.sample(
                    float(index * window),
                    float(self._win_bank_bytes.get((index, bank), 0)),
                )
        busy = registry.series(
            "traffic.channel_busy_cycles",
            help="DATA-bus busy cycles per telemetry window",
            channel=self.index,
        )
        for index in range(last + 1):
            busy.sample(
                float(index * window), float(self._win_busy.get(index, 0))
            )

    def tick(self, cycle: int) -> None:
        # While blocked, no budget changes before the next window, so a
        # visit before then (a refresh, another channel's arrival) must
        # not rescan the queue and count deferrals.
        if (
            not self.queue
            or cycle < self._busy_until
            or cycle < self._blocked_until
        ):
            return
        request = self.scheduler.pick(self, cycle)
        if request is None:
            # Every queued client is over budget: sleep to the next
            # window boundary, when budgets reset.
            self._blocked_until = self.regulator.next_window_start(cycle)
            return
        self._blocked_until = 0
        line_bytes = self.config.cacheline_bytes
        last = self._packet_count - 1
        page_manager = self.memory.page_manager
        plans = page_manager is not None and page_manager.plans_precharge
        packets = (
            self._live_packets(request.address)
            if self._stateful
            else self.plan(request.address).packets
        )
        issue_access = self.memory.issue_access
        direction = request.direction
        bank_bytes = self.bank_bytes
        window = self.window
        data_end = cycle
        first_bank = 0
        transfer = 0
        for offset, (bank, local, row, column) in enumerate(packets):
            if offset == 0:
                first_bank = bank
            _, _, data_start, data_end, _, _ = issue_access(
                local,
                row,
                column,
                cycle,
                direction,
                precharge=plans and offset == last,
            )
            transfer += data_end - data_start
            if window:
                self._note_window(bank, data_start, data_end)
            bank_bytes[bank] = bank_bytes.get(bank, 0) + DATA_PACKET_BYTES
        self.busy_cycles += transfer
        self._attribute(request, cycle, data_end, transfer)
        self._busy_until = data_end
        self.last_data_end = max(self.last_data_end, data_end)
        self.completed += 1
        self.client_bytes[request.client] = (
            self.client_bytes.get(request.client, 0) + line_bytes
        )
        pair = (request.client, first_bank)
        self.client_bank_bytes[pair] = (
            self.client_bank_bytes.get(pair, 0) + line_bytes
        )
        if self.regulator is not None:
            self.regulator.charge(request.client, first_bank, line_bytes, cycle)

    def _attribute(
        self, request: Request, cycle: int, data_end: int, transfer: int
    ) -> None:
        """Split one served request's latency into :data:`COMPONENTS`
        and tally it.

        The request's gaps are cleared once classified, and refresh
        spans that ended by its last DATA packet are dropped: every
        later request is served after it, so no later gap reaches
        back before that cycle.
        """
        bank_busy = refresh_blocked = bus_contention = pipeline = 0
        gaps = self.gaps
        spans = self.refresh_spans
        for gap in gaps:
            lo = gap.start if gap.start > cycle else cycle
            for start, end, cause in partition_gap(lo, gap, spans):
                if cause == "precharge_activate":
                    bank_busy += end - start
                elif cause == "refresh":
                    refresh_blocked += end - start
                elif cause == CONTROLLER:
                    pipeline += end - start
                else:  # turnaround or command_bus
                    bus_contention += end - start
        gaps.clear()
        while spans and spans[0][1] <= data_end:
            del spans[0]
        queue_wait = cycle - request.arrival
        latency = data_end - request.arrival
        accounted = (
            queue_wait
            + bank_busy
            + refresh_blocked
            + bus_contention
            + pipeline
            + transfer
        )
        if accounted != latency:
            raise ObservabilityError(
                f"latency attribution drifted on channel "
                f"{self.index}: components sum to {accounted} but "
                f"the request took {latency} cycles "
                f"(client {request.client}, arrival "
                f"{request.arrival})"
            )
        # Same order as self.tallies: latency, then COMPONENTS.
        for tally, value in zip(
            self.tallies.values(),
            (
                latency,
                queue_wait,
                bank_busy,
                refresh_blocked,
                bus_contention,
                pipeline,
                transfer,
            ),
        ):
            tally[value] = tally.get(value, 0) + 1

    @property
    def next_action_cycle(self) -> Optional[int]:
        if not self.queue:
            return None
        if self._blocked_until:
            return self._blocked_until
        return self._busy_until


@dataclass(frozen=True)
class TrafficResult:
    """Outcome of one open-loop traffic run.

    Attributes:
        organization: Human-readable memory organization summary.
        channels: Channel count.
        clients: Client population size.
        requests: Requests offered (all are eventually served).
        cycles: Cycle of the last DATA packet end.
        p50_latency: Interpolated median request latency, in cycles.
        p90_latency: Interpolated 90th-percentile latency.
        p99_latency: Interpolated 99th-percentile latency.
        total_bytes: Bytes moved across all channels.
        channel_bytes: Bytes moved per channel, in channel order.
        bank_bytes: Bytes moved per global bank index.
        client_bytes: Bytes served per client index.
        client_bank_bytes: Bytes served per (client, bank) pair — the
            quantity the bank-budget regulator caps per window.
        regulated: Whether a bank-budget regulator was active.
        deferrals: Regulator deferral decisions (0 unregulated).
        component_cycles: Total cycles per latency component (see
            :data:`COMPONENTS`); their sum equals the sum of every
            request's measured latency, exactly.
        channel_busy_cycles: DATA-bus busy cycles per channel, in
            channel order.
        refreshes: Background refreshes issued across all channels
            (0 unless ``run_traffic(refresh=...)`` was enabled).
        scheduler: Registry name of the request scheduler the
            channels ran (``fcfs`` is the historical default).
    """

    organization: str
    channels: int
    clients: int
    requests: int
    cycles: int
    p50_latency: float
    p90_latency: float
    p99_latency: float
    total_bytes: int
    channel_bytes: Tuple[int, ...]
    bank_bytes: Dict[int, int] = field(default_factory=dict)
    client_bytes: Dict[int, int] = field(default_factory=dict)
    client_bank_bytes: Dict[Tuple[int, int], int] = field(default_factory=dict)
    regulated: bool = False
    deferrals: int = 0
    component_cycles: Dict[str, int] = field(default_factory=dict)
    channel_busy_cycles: Tuple[int, ...] = ()
    refreshes: int = 0
    scheduler: str = "fcfs"

    @property
    def channel_shares(self) -> Tuple[float, ...]:
        """Each channel's fraction of the bytes moved."""
        if self.total_bytes <= 0:
            return tuple(0.0 for _ in self.channel_bytes)
        return tuple(b / self.total_bytes for b in self.channel_bytes)

    def bank_share(self, bank: int) -> float:
        """One bank's fraction of the bytes moved."""
        if self.total_bytes <= 0:
            return 0.0
        return self.bank_bytes.get(bank, 0) / self.total_bytes

    @property
    def max_client_bank_rate(self) -> float:
        """Worst (client, bank) pair's bytes per cycle over the run.

        This is what regulation bounds: with a regulator of budget
        ``B`` over window ``W``, no client can sustain more than
        ``B / W`` bytes per cycle through any one bank.
        """
        if self.cycles <= 0 or not self.client_bank_bytes:
            return 0.0
        return max(self.client_bank_bytes.values()) / self.cycles

    @property
    def channel_utilization(self) -> Tuple[float, ...]:
        """Each channel's DATA-bus busy fraction over the run."""
        if self.cycles <= 0 or not self.channel_busy_cycles:
            return tuple(0.0 for _ in self.channel_bytes)
        return tuple(b / self.cycles for b in self.channel_busy_cycles)

    def mean_component_cycles(self) -> Dict[str, float]:
        """Mean cycles per request spent in each latency component."""
        if self.requests <= 0:
            return {name: 0.0 for name in self.component_cycles}
        return {
            name: spent / self.requests
            for name, spent in self.component_cycles.items()
        }

    def component_shares(self) -> Dict[str, float]:
        """Each component's fraction of the total request latency."""
        total = sum(self.component_cycles.values())
        if total <= 0:
            return {name: 0.0 for name in self.component_cycles}
        return {
            name: spent / total
            for name, spent in self.component_cycles.items()
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form; the inverse of :meth:`from_dict`."""
        return {
            "organization": self.organization,
            "channels": self.channels,
            "clients": self.clients,
            "requests": self.requests,
            "cycles": self.cycles,
            "p50_latency": self.p50_latency,
            "p90_latency": self.p90_latency,
            "p99_latency": self.p99_latency,
            "total_bytes": self.total_bytes,
            "channel_bytes": list(self.channel_bytes),
            "bank_bytes": {str(k): v for k, v in self.bank_bytes.items()},
            "client_bytes": {
                str(k): v for k, v in self.client_bytes.items()
            },
            "client_bank_bytes": {
                f"{client}:{bank}": v
                for (client, bank), v in self.client_bank_bytes.items()
            },
            "regulated": self.regulated,
            "deferrals": self.deferrals,
            "component_cycles": dict(self.component_cycles),
            "channel_busy_cycles": list(self.channel_busy_cycles),
            "refreshes": self.refreshes,
            "scheduler": self.scheduler,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TrafficResult":
        """Rebuild a result from its :meth:`to_dict` form."""
        def pair(text: str) -> Tuple[int, int]:
            client, _, bank = text.partition(":")
            return int(client), int(bank)

        return cls(
            organization=str(data["organization"]),
            channels=int(data["channels"]),  # type: ignore[arg-type]
            clients=int(data["clients"]),  # type: ignore[arg-type]
            requests=int(data["requests"]),  # type: ignore[arg-type]
            cycles=int(data["cycles"]),  # type: ignore[arg-type]
            p50_latency=float(data["p50_latency"]),  # type: ignore[arg-type]
            p90_latency=float(data["p90_latency"]),  # type: ignore[arg-type]
            p99_latency=float(data["p99_latency"]),  # type: ignore[arg-type]
            total_bytes=int(data["total_bytes"]),  # type: ignore[arg-type]
            channel_bytes=tuple(data["channel_bytes"]),  # type: ignore[arg-type]
            bank_bytes={
                int(k): int(v)
                for k, v in (data.get("bank_bytes") or {}).items()  # type: ignore[union-attr]
            },
            client_bytes={
                int(k): int(v)
                for k, v in (data.get("client_bytes") or {}).items()  # type: ignore[union-attr]
            },
            client_bank_bytes={
                pair(k): int(v)
                for k, v in (
                    data.get("client_bank_bytes") or {}
                ).items()  # type: ignore[union-attr]
            },
            regulated=bool(data.get("regulated", False)),
            deferrals=int(data.get("deferrals", 0)),  # type: ignore[arg-type]
            component_cycles={
                str(k): int(v)
                for k, v in (
                    data.get("component_cycles") or {}
                ).items()  # type: ignore[union-attr]
            },
            channel_busy_cycles=tuple(
                data.get("channel_busy_cycles") or ()  # type: ignore[arg-type]
            ),
            refreshes=int(data.get("refreshes", 0)),  # type: ignore[arg-type]
            scheduler=str(data.get("scheduler", "fcfs")),
        )

    def summary(self) -> str:
        """One-line human-readable result."""
        shares = "/".join(f"{s:.0%}" for s in self.channel_shares)
        text = (
            f"{self.organization}: {self.requests} reqs from "
            f"{self.clients} clients in {self.cycles} cyc; latency "
            f"p50={self.p50_latency:.0f} p90={self.p90_latency:.0f} "
            f"p99={self.p99_latency:.0f}; channel shares {shares}"
        )
        if self.channel_busy_cycles:
            util = "/".join(
                f"{u:.0%}" for u in self.channel_utilization
            )
            text += f"; util {util}"
        if self.regulated:
            text += f"; {self.deferrals} deferrals"
        return text


def run_traffic(
    config: Optional[MemorySystemConfig] = None,
    workload: Optional[TrafficWorkload] = None,
    *,
    channels: int = 1,
    devices: int = 1,
    regulator: Optional[BankBudgetRegulator] = None,
    registry: Optional[MetricsRegistry] = None,
    max_cycles: Optional[int] = None,
    telemetry_window: Optional[int] = None,
    refresh: Union[bool, int] = False,
    scheduler: Union[str, Scheduler, None] = None,
) -> TrafficResult:
    """Drive an open-loop multi-client workload through the fabric.

    Args:
        config: Memory organization (defaults to the paper's CLI
            system).  Its topology may be set directly, or via the
            ``channels``/``devices`` arguments.
        workload: Client population (defaults to
            :class:`~repro.traffic.workload.TrafficWorkload`).
        channels: Channel count, applied to ``config`` when its
            topology is the default.
        devices: Devices per channel, applied the same way.
        regulator: Optional per-client bank-budget regulator.
        registry: Metrics registry receiving the latency histogram
            (``traffic.latency_cycles``) and the per-component
            attribution histograms
            (``traffic.latency_component_cycles{component=...}``); a
            private one is used when omitted.
        max_cycles: Watchdog override.  The default is the last
            arrival plus 50,000 cycles plus, per request, 600 cycles
            and (when regulated) one regulator window.  That suffices
            for any run that makes progress: after the last arrival a
            server has at most ``workload.requests`` requests left,
            each is served well within 600 cycles, and a regulated one
            waits at most one window, because each window's first pick
            fits the budget (which covers at least one cacheline).
        telemetry_window: Sampling window, in cycles; when set, dense
            per-(channel, bank) byte series and per-channel occupancy
            series land in ``registry`` (heatmap-ready).  None (the
            default) disables window sampling — runs pay nothing.
        refresh: Enable per-channel background refresh engines; pass
            True for the retention-window default cadence or an
            integer interval in cycles (False or 0 means off; any
            other value that is not an int of at least 1 raises
            :class:`~repro.errors.ConfigurationError`).  Refresh
            interference shows up in the ``refresh_blocked`` latency
            component.
        scheduler: Request-scheduling strategy: a registry name
            (``fcfs``, ``frfcfs``, ``mars`` — each channel gets its
            own instance) or a prebuilt
            :class:`~repro.traffic.scheduling.Scheduler` (single
            channel only; schedulers carry per-channel state, which
            :meth:`~repro.traffic.scheduling.Scheduler.reset` clears
            as the run starts).  None means FCFS, the historical
            behavior.

    Returns:
        The run's latency, attribution, and bandwidth-share
        accounting.
    """
    import dataclasses

    config = config or MemorySystemConfig.cli()
    window = telemetry_window
    if window is not None and require_int("telemetry window", window) < 1:
        raise ConfigurationError(
            f"telemetry window must be positive, got {window}"
        )
    if (channels, devices) != (1, 1):
        if not config.topology.single:
            raise ConfigurationError(
                "pass the topology either on the config or as "
                "channels=/devices=, not both"
            )
        config = dataclasses.replace(
            config,
            topology=MemoryTopology(
                channels=channels, devices_per_channel=devices
            ),
        )
    workload = workload or TrafficWorkload()
    if regulator is not None and regulator.budget_bytes < config.cacheline_bytes:
        raise ConfigurationError(
            f"regulator budget ({regulator.budget_bytes} B) is smaller than "
            f"one cacheline ({config.cacheline_bytes} B); no request could "
            "ever be admitted"
        )
    if regulator is not None:
        regulator.reset()
    # Not `registry or ...`: an empty registry is falsy but still the
    # caller's registry, and the metrics must land in it.
    registry = MetricsRegistry() if registry is None else registry
    if scheduler is None:
        scheduler = "fcfs"
    if isinstance(scheduler, str):
        scheduler_name = scheduler
        make_scheduler(scheduler_name)  # fail fast on unknown names
        scheduler_for = lambda index: make_scheduler(scheduler_name)  # noqa: E731
    else:
        scheduler_name = scheduler.name
        instance = scheduler
        if config.topology.channels > 1:
            raise ConfigurationError(
                "a prebuilt scheduler instance cannot be shared across "
                f"{config.topology.channels} channels (schedulers carry "
                "per-channel state); pass the registry name instead"
            )
        # Like the regulator, a reused instance starts each run fresh.
        instance.reset()
        scheduler_for = lambda index: instance  # noqa: E731
    # The memory carries the mapping, so stateful mappings (dream) are
    # fed every issued access; static mappings cost one branch per
    # access.
    memory = make_memory(config)
    mapping = memory.mapping
    memories = channel_memories(memory)
    latency = registry.histogram(
        "traffic.latency_cycles",
        bounds=LATENCY_BUCKETS,
        help="request latency (arrival to last DATA packet end), cycles",
    )
    histograms = {
        "latency": latency,
        **{
            name: registry.histogram(
                "traffic.latency_component_cycles",
                bounds=LATENCY_BUCKETS,
                help="per-request latency attribution, cycles per component",
                component=name,
            )
            for name in COMPONENTS
        },
    }
    servers = [
        ChannelServer(
            index=index,
            memory=channel_memory,
            mapping=mapping,
            config=config,
            bank_offset=index * channel_memory.geometry.num_banks,
            regulator=regulator,
            window=telemetry_window,
            scheduler=scheduler_for(index),
        )
        for index, channel_memory in enumerate(memories)
    ]
    # Each channel's refresh engine hands every refresh it issues to
    # that channel's server, for the refresh_blocked component.
    refresh_engines: List[RefreshEngine] = []
    refresh_components: List[BackgroundComponent] = []
    if refresh:
        interval = DEFAULT_INTERVAL_CYCLES if refresh is True else refresh
        for server in servers:
            engine = RefreshEngine(server.memory, interval=interval)
            refresh_engines.append(engine)
            refresh_components.append(
                BackgroundComponent(
                    engine,
                    on_fire=lambda server=server, engine=engine: (
                        server.note_refresh(engine.last_refresh)
                    ),
                )
            )
    requests = generate_requests(workload, mapping)
    pump = ArrivalPump(requests, servers, mapping)
    if max_cycles is None:
        per_request = 600
        if regulator is not None:
            per_request += regulator.window_cycles
        max_cycles = (
            requests[-1].arrival + 50_000 + per_request * workload.requests
        )
    ledger = _active_ledger()
    ledger_batch = 0
    ledger_key = (
        f"traffic/{config.describe()}/{workload.clients}c"
        f"/{workload.requests}r/seed{workload.seed}"
    )
    if scheduler_name != "fcfs":
        # Historical keys stay unchanged for the default scheduler.
        ledger_key += f"/sched-{scheduler_name}"
    if ledger is not None:
        ledger_batch = ledger.begin_batch(1, 1)
        for event in ("queued", "dispatched", "started"):
            ledger.record(
                event,
                batch=ledger_batch,
                index=0,
                key=ledger_key,
                label=(
                    f"traffic {workload.clients} clients over "
                    f"{config.topology.describe()}"
                ),
                worker="main",
            )
    wall_started = time.perf_counter()
    Simulation(
        [pump, *servers, *refresh_components],
        done=lambda: pump.done and all(server.idle for server in servers),
        max_cycles=max_cycles,
        label=(
            f"traffic: {workload.clients} clients over "
            f"{config.topology.describe()}"
        ),
    ).run()
    if ledger is not None:
        ledger.record(
            "completed",
            batch=ledger_batch,
            index=0,
            key=ledger_key,
            worker="main",
            wall_s=time.perf_counter() - wall_started,
        )
    bank_bytes: Dict[int, int] = {}
    client_bytes: Dict[int, int] = {}
    client_bank_bytes: Dict[Tuple[int, int], int] = {}
    for server in servers:
        for bank, moved in server.bank_bytes.items():
            bank_bytes[bank] = bank_bytes.get(bank, 0) + moved
        for client, served in server.client_bytes.items():
            client_bytes[client] = client_bytes.get(client, 0) + served
        for pair, served in server.client_bank_bytes.items():
            client_bank_bytes[pair] = client_bank_bytes.get(pair, 0) + served
    channel_bytes = tuple(m.bytes_transferred for m in memories)
    cycles = max(server.last_data_end for server in servers)
    for server in servers:
        server.finalize_windows(registry, cycles)
    # One bulk fill per histogram and channel.  The values are integer
    # cycles, so the sums are exact and match per-request observes bit
    # for bit.
    for name, histogram in histograms.items():
        for server in servers:
            histogram.observe_counts(
                (float(value), count)
                for value, count in server.tallies[name].items()
            )
    component_cycles = {
        name: sum(
            value * count
            for server in servers
            for value, count in server.tallies[name].items()
        )
        for name in COMPONENTS
    }
    return TrafficResult(
        organization=config.describe(),
        channels=config.topology.channels,
        clients=workload.clients,
        requests=workload.requests,
        cycles=cycles,
        p50_latency=latency.p50,
        p90_latency=latency.p90,
        p99_latency=latency.p99,
        total_bytes=sum(channel_bytes),
        channel_bytes=channel_bytes,
        bank_bytes=bank_bytes,
        client_bytes=client_bytes,
        client_bank_bytes=client_bank_bytes,
        regulated=regulator is not None,
        deferrals=regulator.deferrals if regulator is not None else 0,
        component_cycles=component_cycles,
        channel_busy_cycles=tuple(
            server.busy_cycles for server in servers
        ),
        refreshes=sum(
            engine.refreshes_issued for engine in refresh_engines
        ),
        scheduler=scheduler_name,
    )
