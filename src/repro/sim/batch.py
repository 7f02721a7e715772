"""Vectorized batch fast-path SMC loop.

The event kernel (:mod:`repro.sim.kernel`) dispatches every visited
cycle through the component models and the full device object model —
flexible, but the per-cycle dispatch overhead caps SMC throughput well
below what large sweeps need.  :func:`run_smc_batch` is a
monomorphized replica of the SMC loop that produces bit-identical
results much faster.  It reads each stream's access plan from
:func:`repro.core.fifo.build_plan`, the plan the event kernel's FIFOs
read, and the cycle loop runs over plain integers and lists: bank/bus
timing resolution, the round-robin MSU decision, the CPU retire step,
and the optional refresh engines are all inlined.  It runs on any
memory :func:`~repro.rdram.channel.make_memory` builds from a
supported config: one device, a multi-device channel (t_RR kept per
device), or a fabric of channels, each with its own ROW/COL/DATA
buses, write-to-read turnaround, byte count and refresh engine.
Read-data arrivals are kept in a plain deque in completion order —
DATA-bus packet slotting makes one channel's completion times
monotonic, so no heap is needed, and on a fabric a packet that ends
before another channel's tail is inserted in place.  The loop visits
exactly the cycles the event kernel's skip-ahead clock visits, so
every counter (including stall accounting, which depends on the visit
set) matches bit for bit.

The batch loop handles every topology (channels x devices, or a
:class:`~repro.rdram.channel.ChannelGeometry`) under the round-robin
policy, static address mappings and plan-time page policies
(closed/open).  Runtime page managers, double-bank cores, stateful
mappings, other scheduling policies and auditing need the event
kernel — :func:`batch_unsupported_reason` is the single place that
gate lives, and :func:`repro.sim.runner.simulate` also runs every
instrumented run on the event kernel.  Equivalence is enforced by the
event-vs-batch properties in ``tests/test_batch.py`` (over topologies
and with refresh), mirroring the dense-vs-skip contract that
validates the event kernel itself; both loops read one plan, whose
numpy arithmetic ``tests/test_fifo.py`` checks against the address
mappings.

:func:`lean_run` only hands its components to the event kernel; no
library code calls it.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Callable, Deque, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, SchedulingError, require_int
from repro.cpu.kernels import Kernel
from repro.cpu.processor import MATCHED_ACCESS_INTERVAL
from repro.cpu.streams import Alignment, Direction, place_streams
from repro.core.fifo import build_plan, check_fifo_depth
from repro.core.policies import RoundRobinPolicy, SchedulingPolicy
from repro.memsys.address import MAPPINGS, get_address_mapping
from repro.memsys.config import ELEMENT_BYTES, MemorySystemConfig
from repro.rdram.device import NEVER
from repro.rdram.refresh import (
    DEFAULT_INTERVAL_CYCLES,
    FORCE_AFTER,
    RETRY_CYCLES,
)
from repro.rdram.timing import DATA_PACKET_BYTES
from repro.sim.kernel import Component, ResultBuilder, Simulation
from repro.sim.results import SimulationResult

#: MSU idle sentinel, mirrored from :mod:`repro.core.msu` (imported
#: by value to keep this module free of the object model's hot path).
_IDLE = 1 << 60


def batch_unsupported_reason(
    config: MemorySystemConfig,
    policy: Union[str, SchedulingPolicy, None] = None,
    audit: bool = False,
) -> Optional[str]:
    """Why the batch SMC loop cannot run this configuration.

    Returns None when the batch loop supports it.  This is the single
    gate :func:`repro.sim.runner.simulate` consults, and
    :func:`run_smc_batch` raises
    :class:`~repro.errors.ConfigurationError` with the reason.
    """
    if audit:
        return "auditing needs the event kernel's packet trace"
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
    if config.geometry.doubled_banks:
        return "double-bank cores need the event kernel"
    if MAPPINGS[config.interleaving].stateful:
        return (
            f"address mapping {config.interleaving!r} is stateful "
            "(online re-arrangement needs the event kernel)"
        )
    if config.page_policy not in ("closed", "open"):
        return (
            f"page policy {config.page_policy!r} has runtime "
            "behavior the batch loop does not model"
        )
    return None


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
    max_cycles: Optional[int] = None,
) -> SimulationResult:
    """Simulate an SMC system on the batch fast path.

    Bit-identical to building the system with
    :func:`repro.core.smc.build_smc_system` and running
    :func:`repro.sim.engine.run_smc`, for every configuration
    :func:`batch_unsupported_reason` returns None for.

    Raises:
        ConfigurationError: If the configuration needs the event
            kernel (check :func:`batch_unsupported_reason` first), or
            ``max_cycles`` is not an int of at least 0.
        SchedulingError: On deadlock or watchdog expiry (same messages
            as the event kernel).
    """
    reason = batch_unsupported_reason(config)
    if reason is not None:
        raise ConfigurationError(f"the batch loop cannot run this spec: {reason}")
    if max_cycles is not None and require_int("max_cycles", max_cycles) < 0:
        raise ConfigurationError(
            f"max_cycles must be at least 0, got {max_cycles}"
        )
    descriptors = place_streams(
        kernel.streams, config, length=length, stride=stride, alignment=alignment
    )
    units = [build_plan(descriptor, config) for descriptor in descriptors]
    for descriptor, plan in zip(descriptors, units):
        check_fifo_depth(descriptor, fifo_depth, plan)

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
    unit_count = [len(plan) for plan in units]
    total_units = sum(unit_count)
    if max_cycles is None:
        max_cycles = 10_000 + 100 * total_units
    label = f"kernel={kernel.name}, org={config.describe()}"
    depth = fifo_depth
    # Round-robin scan orders, precomputed per current-FIFO index.
    scan_orders = [
        [(start + offset) % num_fifos for offset in range(num_fifos)]
        for start in range(num_fifos)
    ]

    cursor = [0] * num_fifos
    occupancy = [0] * num_fifos
    inflight = [0] * num_fifos

    # CPU (StreamProcessor semantics, matched-bandwidth pacing).
    cpu_interval = MATCHED_ACCESS_INTERVAL
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

    # The memory make_memory builds: `channels` channels of
    # `banks_per_channel` banks each, on devices of `banks_per_device`
    # banks.  Banks and devices are indexed globally, as on a
    # MemoryFabric (channel c's local bank b is global bank
    # c * banks_per_channel + b), so their state needs no routing.
    channels = config.topology.channels
    channel_geometry = config.channel_geometry
    banks_per_channel = channel_geometry.num_banks
    banks_per_device = getattr(
        channel_geometry, "device", channel_geometry
    ).num_banks
    num_banks = channels * banks_per_channel
    fabric = channels > 1
    # Bank state (RdramDevice power-on state) and t_RR per device.
    open_row = [-1] * num_banks
    bank_act = [NEVER] * num_banks
    bank_prer = [NEVER] * num_banks
    bank_col_end = [NEVER] * num_banks
    device_of = [bank // banks_per_device for bank in range(num_banks)]
    device_last_act = [NEVER] * (num_banks // banks_per_device)
    # Bus state: the ROW, COL and DATA buses and the write-to-read
    # turnaround of channel `bus_channel` live in locals; the other
    # channels' are parked in `bus_state` and swapped in when the
    # issuing channel changes.
    bus_channel = 0
    row_bus_free = 0
    col_bus_free = 0
    data_bus_free = 0
    last_write_end = NEVER
    last_dir_write = False
    bus_state = [(0, 0, 0, NEVER, False)] * channels

    # Read-data arrivals in completion order.  One channel's DATA
    # packets complete in issue order (each slot starts at or after the
    # previous slot's end), so a deque replaces the MSU's arrival heap
    # exactly; on a fabric, a packet that ends before another
    # channel's tail is inserted in place.
    arrivals: Deque[Tuple[int, int, int]] = deque()

    # One refresh engine per channel (RefreshEngine semantics, no
    # double-bank cases), walking the channel's local banks;
    # `next_refresh` is the earliest one due.
    refresh_due = [DEFAULT_INTERVAL_CYCLES] * channels
    refresh_bank = [0] * channels
    refresh_deferrals = [0] * channels
    refreshes_issued = 0
    next_refresh = DEFAULT_INTERVAL_CYCLES

    cycle = 0
    while True:
        # 1. Deliver due read-data arrivals (re-arms an idle MSU).  The
        # event kernel's MSU lands them at the start of its tick, after
        # refresh; the order cannot matter, as arrivals touch only FIFO
        # counts and refresh only bank state.
        if arrivals and arrivals[0][0] <= cycle:
            while arrivals and arrivals[0][0] <= cycle:
                _, fifo_index, elems = arrivals.popleft()
                inflight[fifo_index] -= elems
                occupancy[fifo_index] += elems
            if next_decision >= _IDLE:
                next_decision = cycle

        # 2. Refresh ticks, in channel order, before the MSU decides
        # (as in the event kernel's wiring); a refresh re-arms an idle
        # MSU (its note_refresh hook).
        if refresh and cycle >= next_refresh:
            for channel in range(channels):
                if cycle < refresh_due[channel]:
                    continue
                target = channel * banks_per_channel + refresh_bank[channel]
                if open_row[target] >= 0 and refresh_deferrals[channel] < FORCE_AFTER:
                    refresh_deferrals[channel] += 1
                    refresh_due[channel] = cycle + RETRY_CYCLES
                    continue
                if channel != bus_channel:
                    bus_state[bus_channel] = (
                        row_bus_free, col_bus_free, data_bus_free,
                        last_write_end, last_dir_write,
                    )
                    bus_channel = channel
                    (row_bus_free, col_bus_free, data_bus_free,
                     last_write_end, last_dir_write) = bus_state[channel]
                if open_row[target] >= 0:
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
                start = cycle
                bound = bank_prer[target] + t_rp
                if bound > start:
                    start = bound
                bound = bank_act[target] + t_rc
                if bound > start:
                    start = bound
                if row_bus_free > start:
                    start = row_bus_free
                device = device_of[target]
                bound = device_last_act[device] + t_rr
                if bound > start:
                    start = bound
                bank_act[target] = start
                row_bus_free = start + t_pack
                device_last_act[device] = start
                prer = start + t_ras
                bound = bank_col_end[target] - t_cpol
                if bound > prer:
                    prer = bound
                if row_bus_free > prer:
                    prer = row_bus_free
                bank_prer[target] = prer
                row_bus_free = prer + t_pack
                refreshes_issued += 1
                refresh_deferrals[channel] = 0
                # The row cursor never changes timing: only the bank
                # cursor is kept.
                refresh_bank[channel] = (
                    refresh_bank[channel] + 1
                ) % banks_per_channel
                due = refresh_due[channel] + DEFAULT_INTERVAL_CYCLES
                refresh_due[channel] = due if due > cycle else cycle + 1
                if next_decision >= _IDLE:
                    next_decision = cycle
            next_refresh = min(refresh_due)

        # 3. MSU decision (round-robin choose + inlined device issue).
        if cycle >= next_decision:
            choice = -1
            for index in scan_orders[current]:
                if cursor[index] < unit_count[index]:
                    elems = units[index][cursor[index]][3]
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
                if fabric:
                    channel = bank // banks_per_channel
                    if channel != bus_channel:
                        bus_state[bus_channel] = (
                            row_bus_free, col_bus_free, data_bus_free,
                            last_write_end, last_dir_write,
                        )
                        bus_channel = channel
                        (row_bus_free, col_bus_free, data_bus_free,
                         last_write_end, last_dir_write) = bus_state[channel]
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
                    device = device_of[bank]
                    bound = device_last_act[device] + t_rr
                    if bound > start:
                        start = bound
                    open_row[bank] = row
                    bank_act[bank] = start
                    row_bus_free = start + t_pack
                    device_last_act[device] = start
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
                data_end = data_start + t_pack
                data_bus_free = data_end
                last_dir_write = not reading
                if last_dir_write:
                    last_write_end = data_end
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
                    if fabric and arrivals and arrivals[-1][0] > data_end:
                        slot = len(arrivals) - 1
                        while slot and arrivals[slot - 1][0] > data_end:
                            slot -= 1
                        arrivals.insert(slot, (data_end, choice, elems))
                    else:
                        arrivals.append((data_end, choice, elems))
                else:
                    occupancy[choice] -= elems
                packets_issued += 1
                if data_end > last_data_end:
                    last_data_end = data_end
                pace = col_start - t_rcd
                next_decision = pace if pace > cycle + 1 else cycle + 1

        # 4. CPU retire (StreamProcessor.tick and its on_retire wake).
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
                cpu_next = cycle + cpu_interval
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
        if refresh and next_refresh < best:
            best = next_refresh
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
    if fabric:
        # A finished run issued every planned packet: each channel
        # moved its banks' share of the plan.
        bank_packets: Counter[int] = Counter()
        for plan in units:
            bank_packets.update(bank for bank, _, _, _, _ in plan)
        channel_bytes = [0] * channels
        for bank, count in bank_packets.items():
            channel_bytes[bank // banks_per_channel] += count * DATA_PACKET_BYTES
        builder.channel_transferred_bytes = tuple(channel_bytes)
    return builder.build(
        cycles=end_cycle,
        useful_bytes=sum(d.length for d in descriptors) * ELEMENT_BYTES,
        transferred_bytes=total_units * DATA_PACKET_BYTES,
        cpu_stall_cycles=stall_cycles,
        fifo_switches=fifo_switches,
        speculative_activations=0,
        refreshes=refreshes_issued,
    )


# ----------------------------------------------------------------------
# the benchmark tracer's lean_run target


def lean_run(
    components: Sequence[Component],
    done: Callable[[], bool],
    max_cycles: int,
    label: str = "simulation",
) -> int:
    """Run ``components`` on :class:`repro.sim.kernel.Simulation`.

    Nothing in the library calls this.  It exists only because the
    benchmark's tracer (``perfbench/tracing.py``) names it as its
    ``sim.kernel.lean_run`` target, and it goes with that target.

    Returns:
        The final visited cycle.
    """
    return Simulation(
        components, done=done, max_cycles=max_cycles, label=label
    ).run()
