"""Vectorized batch fast-path simulation engine.

The event kernel (:mod:`repro.sim.kernel`) dispatches every visited
cycle through component adapters, an event heap, and the full device
object model — flexible, but the per-cycle dispatch overhead caps SMC
throughput well below what large sweeps need.  This module provides a
*batch* engine that produces bit-identical results much faster, in two
parts:

* :func:`run_smc_batch` — a monomorphized replica of the SMC loop.
  Each stream's access schedule is precomputed as flat arrays (with
  numpy when available, since the address decomposition is affine in
  the element index), and the cycle loop runs over plain integers and
  lists: bank/bus timing resolution, the round-robin MSU decision, the
  CPU retire step, and the optional refresh engine are all inlined.
  Read-data arrivals are kept in a plain deque — DATA-bus packet
  slotting makes their completion times monotonic, so no heap is
  needed.  The loop visits exactly the cycles the event kernel's
  skip-ahead clock visits, so every counter (including stall
  accounting, which depends on the visit set) matches bit for bit.

* :func:`lean_run` — a heapless replica of
  :meth:`repro.sim.kernel.Simulation.run` for controllers whose
  components never post events (the transaction-pump baselines and the
  L2 streamer).  It drives the *same* component objects with the same
  visit set, minus the event-scheduler and observability machinery.

The batch SMC loop handles the paper's core configurations: a single
plain RDRAM device, the round-robin policy, and plan-time page
policies (closed/open).  Runtime page managers, double-bank cores,
multi-device channels, auditing, and instrumented runs fall back to
the event kernel — :func:`batch_unsupported_reason` is the single
place that gate lives.  Equivalence is enforced by the event-vs-batch
hypothesis properties in ``tests/test_properties.py``, mirroring the
dense-vs-skip contract that validates the event kernel itself.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, SchedulingError, StreamError
from repro.cpu.kernels import Kernel
from repro.cpu.streams import Alignment, Direction, StreamDescriptor, place_streams
from repro.core.fifo import build_access_units
from repro.core.policies import RoundRobinPolicy, SchedulingPolicy
from repro.memsys.address import MAPPINGS, get_address_mapping
from repro.registry import Registry
from repro.memsys.config import ELEMENT_BYTES, MemorySystemConfig
from repro.memsys.pagemanager import make_page_manager
from repro.rdram.bank import NEVER
from repro.rdram.device import RdramGeometry
from repro.rdram.refresh import DEFAULT_INTERVAL_CYCLES, RETRY_CYCLES
from repro.rdram.timing import DATA_PACKET_BYTES
from repro.sim.kernel import Component, ResultBuilder
from repro.sim.results import SimulationResult

try:  # numpy ships in the test/benchmark environment but is optional.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via _scalar_plan tests
    _np = None  # type: ignore[assignment]

#: The engine registry: name -> one-line description, in
#: documentation order (compares equal to the tuple of its names, so
#: ``ENGINES == ("event", "batch", "auto")`` keeps holding).
ENGINES: Registry[str] = Registry(
    "engine",
    unknown_template="unknown engine {name!r}; use one of {names}",
    sort_listing=False,
)
ENGINES.add("event", "the discrete-event kernel; supports every configuration")
ENGINES.add("batch", "vectorized fast path; bit-identical, core configs only")
ENGINES.add("auto", "batch when the configuration supports it, else event")

#: MSU idle sentinel, mirrored from :mod:`repro.core.msu` (imported
#: by value to keep this module free of the object model's hot path).
_IDLE = 1 << 60


def canonical_engine(name: str) -> str:
    """Validate and normalize an engine name.

    Raises:
        ConfigurationError: If ``name`` is not a registered engine.
    """
    lowered = str(name).lower()
    if lowered not in ENGINES:
        raise ENGINES.unknown_error(name)
    return lowered


def list_engines() -> str:
    """Human-readable engine listing (mirrors ``list_policies``)."""
    lines = ["simulation engines:"]
    for engine in ENGINES:
        lines.append(f"  {engine:12s} {ENGINES[engine]}")
    return "\n".join(lines)


def batch_unsupported_reason(
    config: MemorySystemConfig,
    policy: Union[str, SchedulingPolicy, None] = None,
    audit: bool = False,
) -> Optional[str]:
    """Why the batch SMC engine cannot run this configuration.

    Returns None when the batch engine supports it.  This is the
    single gate ``engine="auto"`` consults; ``engine="batch"`` raises
    :class:`~repro.errors.ConfigurationError` with the reason instead
    of falling back.
    """
    if audit:
        return "auditing needs the event engine's packet trace"
    if policy is not None:
        if isinstance(policy, str):
            if policy != RoundRobinPolicy.name:
                return (
                    f"scheduling policy {policy!r} "
                    "(batch supports round-robin only)"
                )
        elif type(policy) is not RoundRobinPolicy:
            name = getattr(policy, "name", type(policy).__name__)
            return (
                f"scheduling policy {name!r} "
                "(batch supports round-robin only)"
            )
    if not config.topology.single:
        return (
            f"{config.topology.describe()} topologies need the event "
            "engine (the batch fast path models one channel's buses)"
        )
    geometry = config.geometry
    if not isinstance(geometry, RdramGeometry):
        return "multi-device channel geometries need the event engine"
    if geometry.doubled_banks:
        return "double-bank cores need the event engine"
    mapping_cls = MAPPINGS.get(config.interleaving_name)
    if mapping_cls is not None and mapping_cls.stateful:
        return (
            f"address mapping {config.interleaving_name!r} is stateful "
            "(online re-arrangement needs the event engine)"
        )
    if config.page_policy_name not in ("closed", "open"):
        return (
            f"page policy {config.page_policy_name!r} has runtime "
            "behavior the batch engine does not model"
        )
    return None


def resolve_engine(
    engine: str,
    config: MemorySystemConfig,
    policy: Union[str, SchedulingPolicy, None] = None,
    audit: bool = False,
    instrumented: bool = False,
) -> str:
    """Resolve an engine request to "event" or "batch" for an SMC run.

    ``auto`` silently falls back to the event kernel when the batch
    engine cannot run the configuration (or when instrumentation is
    attached); an explicit ``batch`` request raises instead.
    """
    choice = canonical_engine(engine)
    if choice == "event":
        return "event"
    reason: Optional[str]
    if instrumented:
        reason = "instrumented runs need the event engine"
    else:
        reason = batch_unsupported_reason(config, policy=policy, audit=audit)
    if reason is None:
        return "batch"
    if choice == "batch":
        raise ConfigurationError(f"engine 'batch' cannot run this spec: {reason}")
    return "event"


def resolve_controller_engine(
    engine: str,
    instrumented: bool = False,
    dense: bool = False,
) -> str:
    """Resolve an engine request for a pump-style controller run.

    The transaction-pump controllers support every configuration on
    both engines (:func:`lean_run` drives the same components), so the
    only reasons to stay on the event kernel are instrumentation and
    dense verification mode.
    """
    choice = canonical_engine(engine)
    if choice == "event":
        return "event"
    reason: Optional[str] = None
    if instrumented:
        reason = "instrumented runs need the event engine"
    elif dense:
        reason = "dense verification mode needs the event engine"
    if reason is None:
        return "batch"
    if choice == "batch":
        raise ConfigurationError(f"engine 'batch' cannot run this run: {reason}")
    return "event"


# ----------------------------------------------------------------------
# access-plan precompute

#: One stream's flattened access plan: (banks, rows, columns,
#: elements, precharge flags), parallel lists in issue order.
Plan = Tuple[List[int], List[int], List[int], List[int], List[bool]]


def _vector_plan(
    descriptor: StreamDescriptor, config: MemorySystemConfig, closed: bool
) -> Plan:
    """Numpy-vectorized plan for the three built-in address mappings.

    The address decomposition is affine in the element index, so the
    whole plan — packet addresses, (bank, row, column) coordinates,
    run-length merge of same-packet elements, and the closed-policy
    precharge flags — reduces to array expressions.
    """
    geometry = config.geometry
    stride_bytes = descriptor.stride * ELEMENT_BYTES
    addr = descriptor.base + _np.arange(
        descriptor.length, dtype=_np.int64
    ) * stride_bytes
    last_addr = int(addr[-1])
    if last_addr >= geometry.capacity_bytes:
        raise ConfigurationError(
            f"address {last_addr:#x} outside device capacity "
            f"{geometry.capacity_bytes:#x}"
        )
    pkt = addr - addr % DATA_PACKET_BYTES
    num_banks = geometry.num_banks
    page_bytes = geometry.page_bytes
    name = config.interleaving_name
    if name == "cli":
        line_bytes = config.cacheline_bytes
        lines_per_page = page_bytes // line_bytes
        packets_per_line = line_bytes // DATA_PACKET_BYTES
        line = pkt // line_bytes
        bank = line % num_banks
        line_in_bank = line // num_banks
        row = line_in_bank // lines_per_page
        column = (line_in_bank % lines_per_page) * packets_per_line + (
            pkt % line_bytes
        ) // DATA_PACKET_BYTES
    elif name == "pi":
        page = pkt // page_bytes
        bank = page % num_banks
        row = page // num_banks
        column = (pkt % page_bytes) // DATA_PACKET_BYTES
    else:  # swizzle (callers route other mappings to _scalar_plan)
        page = pkt // page_bytes
        row = page // num_banks
        rank = page % num_banks
        if num_banks & (num_banks - 1) == 0:
            bank = rank ^ (row % num_banks)
        else:
            bank = (rank + row) % num_banks
        column = (pkt % page_bytes) // DATA_PACKET_BYTES
    count = descriptor.length
    if count > 1:
        # Merge consecutive elements that land in the same DATA packet
        # (same location <=> same packet address, mappings being
        # bijective at packet granularity).
        fresh = _np.empty(count, dtype=bool)
        fresh[0] = True
        fresh[1:] = (
            (bank[1:] != bank[:-1])
            | (row[1:] != row[:-1])
            | (column[1:] != column[:-1])
        )
        starts = _np.flatnonzero(fresh)
        elements = _np.diff(_np.append(starts, count))
        bank = bank[starts]
        row = row[starts]
        column = column[starts]
    else:
        elements = _np.ones(1, dtype=_np.int64)
    units = int(bank.shape[0])
    if closed:
        # Precharge rides the last COL packet of each same-(bank, row)
        # run, including the stream's final unit.
        prech = _np.empty(units, dtype=bool)
        prech[-1] = True
        if units > 1:
            prech[:-1] = (bank[1:] != bank[:-1]) | (row[1:] != row[:-1])
        precharge = prech.tolist()
    else:
        precharge = [False] * units
    return (
        bank.tolist(),
        row.tolist(),
        column.tolist(),
        elements.tolist(),
        precharge,
    )


def _scalar_plan(
    descriptor: StreamDescriptor, config: MemorySystemConfig
) -> Plan:
    """Plan via the object model (fallback for exotic mappings/no numpy)."""
    units = build_access_units(
        descriptor, get_address_mapping(config), make_page_manager(config)
    )
    return (
        [unit.location.bank for unit in units],
        [unit.location.row for unit in units],
        [unit.location.column for unit in units],
        [unit.elements for unit in units],
        [unit.precharge_after for unit in units],
    )


def build_plan(
    descriptor: StreamDescriptor, config: MemorySystemConfig
) -> Plan:
    """One stream's access plan as flat parallel lists.

    Produces exactly the unit sequence
    :func:`repro.core.fifo.build_access_units` would, using the
    vectorized path when numpy is available and the mapping is one of
    the built-ins.
    """
    if _np is not None and config.interleaving_name in ("cli", "pi", "swizzle"):
        return _vector_plan(
            descriptor, config, config.page_policy_name == "closed"
        )
    return _scalar_plan(descriptor, config)


# ----------------------------------------------------------------------
# the monomorphized SMC loop


def run_smc_batch(
    kernel: Kernel,
    config: MemorySystemConfig,
    length: int,
    fifo_depth: int,
    stride: int = 1,
    alignment: Alignment = Alignment.STAGGERED,
    refresh: bool = False,
    access_interval: int = 2,
    max_cycles: Optional[int] = None,
) -> SimulationResult:
    """Simulate an SMC system on the batch fast path.

    Bit-identical to building the system with
    :func:`repro.core.smc.build_smc_system` and running
    :func:`repro.sim.engine.run_smc`, for every configuration
    :func:`batch_unsupported_reason` returns None for.

    Raises:
        ConfigurationError: If the configuration needs the event
            engine (check :func:`batch_unsupported_reason` first).
        SchedulingError: On deadlock or watchdog expiry (same messages
            as the event kernel).
    """
    reason = batch_unsupported_reason(config)
    if reason is not None:
        raise ConfigurationError(f"engine 'batch' cannot run this spec: {reason}")
    descriptors = place_streams(
        kernel.streams, config, length=length, stride=stride, alignment=alignment
    )
    plans = [build_plan(descriptor, config) for descriptor in descriptors]

    timing = config.timing
    t_pack = timing.t_pack
    t_rcd = timing.t_rcd
    t_rp = timing.t_rp
    t_cpol = timing.t_cpol
    t_rc = timing.t_rc
    t_rr = timing.t_rr
    t_rw = timing.t_rw
    t_ras = timing.t_ras
    read_delay = timing.read_data_delay()
    write_delay = timing.write_data_delay()

    num_fifos = len(descriptors)
    is_read = [d.direction is Direction.READ for d in descriptors]
    units = [list(zip(*plan)) for plan in plans]
    unit_elems = [plan[3] for plan in plans]
    unit_count = [len(plan[0]) for plan in plans]
    total_units = sum(unit_count)
    if max_cycles is None:
        max_cycles = 10_000 + 100 * total_units
    label = f"kernel={kernel.name}, org={config.describe()}"
    depth = fifo_depth
    for descriptor, elems in zip(descriptors, unit_elems):
        max_unit = max(elems)
        if depth < max_unit:
            raise StreamError(
                f"stream {descriptor.name}: FIFO depth {depth} smaller than "
                f"a {max_unit}-element DATA packet"
            )
    # Round-robin scan orders, precomputed per current-FIFO index.
    scan_orders = [
        [(start + offset) % num_fifos for offset in range(num_fifos)]
        for start in range(num_fifos)
    ]

    cursor = [0] * num_fifos
    occupancy = [0] * num_fifos
    inflight = [0] * num_fifos

    # CPU (StreamProcessor semantics, matched-bandwidth pacing).
    pattern = [
        (index, spec.direction is Direction.READ)
        for index, spec in enumerate(kernel.streams)
    ]
    schedule = pattern * length
    total_retires = len(schedule)
    position = 0
    cpu_next = 0
    blocked_since: Optional[int] = None
    stall_cycles = 0
    first_retire: Optional[int] = None
    last_retire: Optional[int] = None

    # MSU.
    next_decision = 0
    current = 0
    packets_issued = 0
    activations = 0
    bank_conflicts = 0
    fifo_switches = 0
    page_hits = 0
    page_misses = 0
    last_data_end = 0

    # Banks and channel buses (RdramDevice power-on state).
    num_banks = config.geometry.num_banks
    open_row = [-1] * num_banks
    bank_act = [NEVER] * num_banks
    bank_prer = [NEVER] * num_banks
    bank_col_end = [NEVER] * num_banks
    row_bus_free = 0
    col_bus_free = 0
    data_bus_free = 0
    device_last_act = NEVER
    last_write_end = NEVER
    last_dir_write = False
    packets_moved = 0

    # Read-data arrivals; completion times are monotonic (each DATA
    # packet's slot starts at or after the previous slot's end), so a
    # deque replaces the event heap exactly.
    arrivals: Deque[Tuple[int, int, int]] = deque()

    # Refresh engine (RefreshEngine semantics, no double-bank cases).
    refresh_due = DEFAULT_INTERVAL_CYCLES
    refresh_bank = 0
    refresh_row = 0
    refresh_deferrals = 0
    refreshes_issued = 0
    rows_per_bank = config.geometry.rows_per_bank

    cycle = 0
    while True:
        # 1. Deliver due read-data arrivals (re-arms an idle MSU).
        if arrivals and arrivals[0][0] <= cycle:
            while arrivals and arrivals[0][0] <= cycle:
                _, fifo_index, elems = arrivals.popleft()
                inflight[fifo_index] -= elems
                occupancy[fifo_index] += elems
            if next_decision >= _IDLE:
                next_decision = cycle

        # 2. Refresh tick (before the MSU, as in the event wiring).
        if refresh and cycle >= refresh_due:
            target = refresh_bank
            fired = True
            if open_row[target] >= 0:
                if refresh_deferrals < 8:
                    refresh_deferrals += 1
                    refresh_due = cycle + RETRY_CYCLES
                    fired = False
                else:
                    # Deadline: force-precharge the in-use page.
                    start = cycle
                    bound = bank_act[target] + t_ras
                    if bound > start:
                        start = bound
                    bound = bank_col_end[target] - t_cpol
                    if bound > start:
                        start = bound
                    if row_bus_free > start:
                        start = row_bus_free
                    open_row[target] = -1
                    bank_prer[target] = start
                    row_bus_free = start + t_pack
            if fired:
                start = cycle
                bound = bank_prer[target] + t_rp
                if bound > start:
                    start = bound
                bound = bank_act[target] + t_rc
                if bound > start:
                    start = bound
                if row_bus_free > start:
                    start = row_bus_free
                bound = device_last_act + t_rr
                if bound > start:
                    start = bound
                open_row[target] = refresh_row
                bank_act[target] = start
                row_bus_free = start + t_pack
                device_last_act = start
                prer = start + t_ras
                bound = bank_col_end[target] - t_cpol
                if bound > prer:
                    prer = bound
                if row_bus_free > prer:
                    prer = row_bus_free
                open_row[target] = -1
                bank_prer[target] = prer
                row_bus_free = prer + t_pack
                refreshes_issued += 1
                refresh_deferrals = 0
                refresh_bank += 1
                if refresh_bank >= num_banks:
                    refresh_bank = 0
                    refresh_row = (refresh_row + 1) % rows_per_bank
                refresh_due += DEFAULT_INTERVAL_CYCLES
                if refresh_due <= cycle:
                    refresh_due = cycle + 1
                if next_decision >= _IDLE:
                    next_decision = cycle

        # 3. MSU decision (round-robin choose + inlined device issue).
        if cycle >= next_decision:
            choice = -1
            for index in scan_orders[current]:
                if cursor[index] < unit_count[index]:
                    elems = unit_elems[index][cursor[index]]
                    if is_read[index]:
                        if occupancy[index] + inflight[index] + elems <= depth:
                            choice = index
                            break
                    elif occupancy[index] >= elems:
                        choice = index
                        break
            if choice < 0:
                next_decision = _IDLE
            else:
                if choice != current:
                    fifo_switches += 1
                    current = choice
                bank, row, column, elems, precharge = units[choice][
                    cursor[choice]
                ]
                if open_row[bank] == row:
                    page_hits += 1
                else:
                    page_misses += 1
                    if open_row[bank] >= 0:
                        bank_conflicts += 1
                        start = cycle
                        bound = bank_act[bank] + t_ras
                        if bound > start:
                            start = bound
                        bound = bank_col_end[bank] - t_cpol
                        if bound > start:
                            start = bound
                        if row_bus_free > start:
                            start = row_bus_free
                        open_row[bank] = -1
                        bank_prer[bank] = start
                        row_bus_free = start + t_pack
                    start = cycle
                    bound = bank_prer[bank] + t_rp
                    if bound > start:
                        start = bound
                    bound = bank_act[bank] + t_rc
                    if bound > start:
                        start = bound
                    if row_bus_free > start:
                        start = row_bus_free
                    bound = device_last_act + t_rr
                    if bound > start:
                        start = bound
                    open_row[bank] = row
                    bank_act[bank] = start
                    row_bus_free = start + t_pack
                    device_last_act = start
                    activations += 1
                reading = is_read[choice]
                col_start = cycle
                bound = bank_act[bank] + t_rcd
                if bound > col_start:
                    col_start = bound
                if col_bus_free > col_start:
                    col_start = col_bus_free
                delay = read_delay if reading else write_delay
                data_start = col_start + delay
                if data_bus_free > data_start:
                    data_start = data_bus_free
                if reading and last_dir_write:
                    bound = last_write_end + t_rw
                    if bound > data_start:
                        data_start = bound
                col_start = data_start - delay
                bank_col_end[bank] = col_start + t_pack
                col_bus_free = col_start + t_pack
                data_bus_free = data_start + t_pack
                last_dir_write = not reading
                if last_dir_write:
                    last_write_end = data_start + t_pack
                packets_moved += 1
                # DataPacket.end is start + 4 regardless of t_pack;
                # replicated for bit-identity with the event engine.
                data_end = data_start + 4
                if precharge:
                    prer = col_start
                    bound = bank_act[bank] + t_ras
                    if bound > prer:
                        prer = bound
                    bound = bank_col_end[bank] - t_cpol
                    if bound > prer:
                        prer = bound
                    open_row[bank] = -1
                    bank_prer[bank] = prer
                cursor[choice] += 1
                if reading:
                    inflight[choice] += elems
                    arrivals.append((data_end, choice, elems))
                else:
                    occupancy[choice] -= elems
                packets_issued += 1
                if data_end > last_data_end:
                    last_data_end = data_end
                pace = col_start - t_rcd
                next_decision = pace if pace > cycle + 1 else cycle + 1

        # 4. CPU retire (StreamProcessor.tick + the retire wake).
        if position < total_retires and cycle >= cpu_next:
            stream_index, read_access = schedule[position]
            if read_access:
                ready = occupancy[stream_index] > 0
            else:
                ready = occupancy[stream_index] < depth
            if not ready:
                if blocked_since is None:
                    blocked_since = cycle
            else:
                if blocked_since is not None:
                    stall_cycles += cycle - blocked_since
                    blocked_since = None
                if read_access:
                    occupancy[stream_index] -= 1
                else:
                    occupancy[stream_index] += 1
                if first_retire is None:
                    first_retire = cycle
                last_retire = cycle
                position += 1
                cpu_next = cycle + access_interval
                if next_decision >= _IDLE:
                    next_decision = cycle + 1

        # 5. Termination: every access retired, FIFOs drained, no
        # data in flight.
        if position >= total_retires and not arrivals:
            drained = True
            for index in range(num_fifos):
                if cursor[index] < unit_count[index] or (
                    is_read[index]
                    and (inflight[index] or occupancy[index])
                ):
                    drained = False
                    break
            if drained:
                break

        # 6. Advance to the next interesting cycle (the event kernel's
        # skip clock, with refresh as a passive candidate).
        best = arrivals[0][0] if arrivals else -1
        if next_decision < _IDLE and (best < 0 or next_decision < best):
            best = next_decision
        if (
            position < total_retires
            and blocked_since is None
            and (best < 0 or cpu_next < best)
        ):
            best = cpu_next
        if best < 0:
            raise SchedulingError(
                "deadlock: every component is blocked and no data is "
                f"in flight ({label})"
            )
        if refresh and refresh_due < best:
            best = refresh_due
        cycle = best if best > cycle else cycle + 1
        if cycle > max_cycles:
            raise SchedulingError(
                f"simulation exceeded {max_cycles} cycles ({label})"
            )

    end_cycle = max(last_data_end, last_retire or 0)
    mapping = get_address_mapping(config)
    banks_touched = {mapping.bank_of(d.base) for d in descriptors}
    builder = ResultBuilder(
        kernel=kernel.name,
        organization=config.describe(),
        length=descriptors[0].length,
        stride=descriptors[0].stride,
        fifo_depth=depth,
        alignment="aligned" if len(banks_touched) == 1 else "staggered",
        policy=RoundRobinPolicy.name,
        first_data=first_retire,
        last_data_end=last_data_end,
        packets_issued=packets_issued,
        activations=activations,
        bank_conflicts=bank_conflicts,
        page_hits=page_hits,
        page_misses=page_misses,
    )
    return builder.build(
        cycles=end_cycle,
        useful_bytes=sum(d.length for d in descriptors) * ELEMENT_BYTES,
        transferred_bytes=packets_moved * DATA_PACKET_BYTES,
        cpu_stall_cycles=stall_cycles,
        fifo_switches=fifo_switches,
        speculative_activations=0,
        refreshes=refreshes_issued,
    )


# ----------------------------------------------------------------------
# the lean component loop (pump-style controllers)


def lean_run(
    components: Sequence[Component],
    done: Callable[[], bool],
    max_cycles: int,
    label: str = "simulation",
) -> int:
    """Heapless replica of :meth:`repro.sim.kernel.Simulation.run`.

    For component sets that never post events (the transaction-pump
    baselines, the L2 streamer) the event scheduler is dead weight:
    this loop drives the same component objects over the same visit
    set with none of the dispatch machinery, so results are identical
    by construction.  Components must not return events from ``tick``
    and must not need instrumentation attached.

    Returns:
        The final visited cycle.

    Raises:
        SchedulingError: On watchdog expiry or deadlock (the event
            kernel's exact messages).
    """
    pairs: List[Tuple[Component, bool]] = [
        (component, bool(getattr(component, "breaks_deadlock", True)))
        for component in components
    ]
    cycle = 0
    while True:
        for component, _ in pairs:
            component.tick(cycle)
        if done():
            return cycle
        best: Optional[int] = None
        passive_best: Optional[int] = None
        for component, progresses in pairs:
            action = component.next_action_cycle
            if action is None:
                continue
            if progresses:
                if best is None or action < best:
                    best = action
            elif passive_best is None or action < passive_best:
                passive_best = action
        if best is None:
            raise SchedulingError(
                "deadlock: every component is blocked and no data is "
                f"in flight ({label})"
            )
        if passive_best is not None and passive_best < best:
            best = passive_best
        cycle = best if best > cycle else cycle + 1
        if cycle > max_cycles:
            raise SchedulingError(
                f"simulation exceeded {max_cycles} cycles ({label})"
            )
