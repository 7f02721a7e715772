"""Traditional memory controller: cacheline accesses in program order.

This simulates the paper's baseline — "cacheline accesses in the
natural order of the computation" — against the same RDRAM device
model the SMC uses, giving an independent check on the Section 5.1
analytic bounds.

The model follows Figure 5's conventions:

* The processor walks the kernel's accesses element by element; the
  first touch of each cacheline generates one line-granularity
  transaction (a fill for loads, a full-line write for stores —
  dirty-writeback traffic is ignored, Section 5.1).
* Transactions issue strictly in program order, pipelined across the
  device's banks: the controller may begin a transaction's commands as
  soon as the previous transaction's first command went out, and the
  device model enforces t_RR spacing, bus occupancy and bank timing.
* Linefill forwarding (as in the PowerPC the paper cites): a dependent
  store may be initiated as soon as the first DATA packet of its
  iteration's last load arrives — t_RAC after the load's ROW request
  on a closed-page system.
* At most four transactions are outstanding, matching the Direct
  RDRAM's pipeline depth.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

from repro.cpu.kernels import Kernel
from repro.cpu.streams import (
    Alignment,
    Direction,
    StreamDescriptor,
    place_streams,
)
from repro.memsys.config import ELEMENT_BYTES
from repro.naturalorder.line import MAX_OUTSTANDING, LineController
from repro.obs.core import Instrumentation
from repro.obs.telemetry import finalize_telemetry
from repro.rdram.packets import BusDirection
from repro.sim.kernel import ResultBuilder, TransactionPump
from repro.sim.results import SimulationResult

# Read per line: a global costs less than a lookup on the enum class.
_READ = BusDirection.READ
_WRITE = BusDirection.WRITE


class NaturalOrderController(LineController):
    """Blocking-order cacheline controller over one RDRAM device.

    Args:
        config: Memory organization; CLI pairs with the closed-page
            policy and PI with open-page, as in the paper, but any
            pairing given in the config is honored.
        record_trace: Record the device packet trace for auditing.
        refresh: Run a background :class:`RefreshEngine` alongside the
            transaction stream (the paper ignores refresh; this
            quantifies that assumption for the baseline too).
    """

    #: Result ``policy`` name reported by this controller.
    POLICY = "natural-order"

    def _simulate(
        self,
        steps: Iterator[int],
        *,
        max_steps: int,
        label: str,
        dense: bool,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        """Drive ``steps`` through a :class:`TransactionPump`.

        The pump resumes the controller's transaction generator at each
        start cycle; :meth:`_drive` picks the kernel loop.
        """
        self._drive(
            TransactionPump(steps),
            max_cycles=20_000 + 500 * max(max_steps, 1),
            label=label,
            dense=dense,
            obs=obs,
        )

    def run(
        self,
        kernel: Kernel,
        length: int,
        stride: int = 1,
        alignment: Alignment = Alignment.STAGGERED,
        obs: Optional[Instrumentation] = None,
        dense: bool = False,
    ) -> SimulationResult:
        """Execute one kernel and report effective bandwidth.

        Args:
            kernel: The inner loop.
            length: Vector length in elements.
            stride: Stride in elements.
            alignment: Vector base placement.
            obs: Optional instrumentation; records one "controller"
                span per cacheline transaction plus the device-level
                gaps and counters (see :mod:`repro.obs`).
            dense: Visit every cycle in the simulation kernel instead
                of skipping to the next transaction start (the
                property tests assert both modes agree).

        Returns:
            The result; ``useful_bytes`` counts stream elements only,
            so sparse strides show the paper's bandwidth collapse even
            though whole lines move on the bus.
        """
        self.device.reset()
        descriptors = place_streams(
            kernel.streams,
            self.config,
            length=length,
            stride=stride,
            alignment=alignment,
        )
        builder = ResultBuilder(
            kernel=kernel.name,
            organization=self.config.describe(),
            length=length,
            stride=stride,
            fifo_depth=0,
            alignment=alignment.value,
            policy=self.POLICY,
        )
        if obs is not None:
            self.device.obs = obs
            self.device.gap_log = obs.gaps
        self._simulate(
            self._transaction_steps(length, descriptors, builder, obs),
            max_steps=length * len(descriptors),
            label=f"{self.POLICY}: kernel={kernel.name}, "
            f"org={self.config.describe()}",
            dense=dense,
            obs=obs,
        )

        useful = len(descriptors) * length * ELEMENT_BYTES
        last_data_end = builder.last_data_end
        if obs is not None:
            self.device.finish_observation(last_data_end)
            obs.meta.update(
                kernel=kernel.name,
                organization=self.config.describe(),
                policy=self.POLICY,
                cycles=last_data_end,
                last_data_end=last_data_end,
                t_pack=self.config.timing.t_pack,
                t_rw=self.config.timing.t_rw,
                useful_bytes=useful,
                transferred_bytes=self.device.bytes_transferred,
            )
            finalize_telemetry(obs)
            self.device.obs = None
            self.device.gap_log = None
        return builder.build(
            cycles=last_data_end,
            useful_bytes=useful,
            transferred_bytes=self.device.bytes_transferred,
            packets_issued=(
                builder.transactions * self.config.packets_per_cacheline
            ),
            refreshes=self.refreshes_issued,
        )

    def _transaction_steps(
        self,
        length: int,
        descriptors: List[StreamDescriptor],
        builder: ResultBuilder,
        obs: Optional[Instrumentation],
    ) -> Iterator[int]:
        """Generate the program-order cacheline transactions.

        Yields each transaction's start lower bound; the kernel's
        :class:`TransactionPump` resumes the generator once the clock
        reaches it, and the issue happens here at the stored bound.
        """
        line_bytes = self.config.cacheline_bytes
        current_line: Dict[str, Optional[int]] = {
            d.name: None for d in descriptors
        }
        # First-data arrival time of each read stream's current line,
        # for the store dependence (linefill forwarding).
        line_first_data: Dict[str, int] = {d.name: 0 for d in descriptors}
        outstanding: Deque[int] = deque()
        program_clock = 0

        for index in range(length):
            for descriptor in descriptors:
                address = descriptor.element_address(index)
                line = address // line_bytes
                if line == current_line[descriptor.name]:
                    continue
                current_line[descriptor.name] = line
                start_at = program_clock
                is_read = descriptor.direction is Direction.READ
                if not is_read:
                    dependence = max(
                        (
                            line_first_data[d.name]
                            for d in descriptors
                            if d.direction is Direction.READ
                        ),
                        default=0,
                    )
                    start_at = max(start_at, dependence)
                if len(outstanding) >= MAX_OUTSTANDING:
                    start_at = max(start_at, outstanding.popleft())
                yield start_at
                (first_cmd, first_arrival, data_end, forced,
                 hits, misses) = self.issue_line(
                    line * line_bytes,
                    _READ if is_read else _WRITE,
                    start_at,
                )
                builder.transactions += 1
                builder.bank_conflicts += int(forced > 0)
                builder.page_hits += hits
                builder.page_misses += misses
                if obs is not None:
                    obs.counters.incr("controller.transactions")
                    if forced:
                        obs.counters.incr("controller.conflicts")
                    obs.tracer.add_span(
                        "controller",
                        ("RD " if is_read else "WR ") + descriptor.name,
                        first_cmd,
                        data_end,
                        line=line,
                    )
                program_clock = max(program_clock, first_cmd)
                builder.note_data_end(data_end)
                if is_read:
                    line_first_data[descriptor.name] = first_arrival
                    builder.note_first_data(first_arrival)
                outstanding.append(data_end)
