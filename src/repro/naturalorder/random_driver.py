"""Random cacheline-access workload driver.

Section 6 explains why the paper's stream results sit below the 95 %
efficiency Crisp reports for Direct Rambus systems: "Crisp's
experiments model more random access patterns on a system with many
devices."  This driver reproduces that workload class — independent
cacheline transactions at random addresses, a bounded number
outstanding — so the channel model can be measured under it and the
comparison made quantitative (see ``repro.experiments.channel``).

Unlike the stream baseline, random transactions carry no data
dependences, so the controller issues them back-to-back as fast as the
device/channel accepts them; multi-bank and multi-device parallelism
is the only thing hiding the per-bank dead time.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Iterator

from repro.errors import ConfigurationError, require_int
from repro.memsys.config import MemorySystemConfig
from repro.naturalorder.controller import MAX_OUTSTANDING
from repro.naturalorder.line import LineController
from repro.rdram.packets import BusDirection
from repro.sim.kernel import ResultBuilder, TransactionPump
from repro.sim.results import SimulationResult

# Read per line: a global costs less than a lookup on the enum class.
_READ = BusDirection.READ
_WRITE = BusDirection.WRITE


class RandomAccessDriver(LineController):
    """Issues independent random cacheline transactions.

    Args:
        config: Memory organization (geometry, or the topology's
            ``devices_per_channel``, may make it a channel).
        queue_depth: Maximum outstanding transactions; defaults to the
            device pipeline depth, scaled by the experiment if needed.
        record_trace: Record packets for auditing.
        refresh: Run a background refresh engine alongside the
            transaction stream.
    """

    def __init__(
        self,
        config: MemorySystemConfig,
        queue_depth: int = MAX_OUTSTANDING,
        record_trace: bool = False,
        refresh: bool = False,
    ) -> None:
        if require_int("queue_depth", queue_depth) < 1:
            raise ConfigurationError(
                f"queue_depth must be at least 1, got {queue_depth}"
            )
        super().__init__(config, record_trace=record_trace, refresh=refresh)
        self.queue_depth = queue_depth

    def run(
        self,
        num_transactions: int,
        write_fraction: float = 0.0,
        seed: int = 1,
        dense: bool = False,
    ) -> SimulationResult:
        """Execute random cacheline transactions and report bandwidth.

        Args:
            num_transactions: Cacheline transactions to issue.
            write_fraction: Fraction of transactions that are writes.
            seed: PRNG seed (runs are deterministic per seed).
            dense: Visit every cycle in the simulation kernel instead
                of skipping to the next transaction start.

        Returns:
            A result whose ``percent_of_peak`` is the channel
            efficiency under this random load.
        """
        if require_int("num_transactions", num_transactions) < 0:
            raise ConfigurationError(
                "num_transactions must be at least 0, got "
                f"{num_transactions}"
            )
        if not 0.0 <= write_fraction <= 1.0:
            raise ConfigurationError("write_fraction must be in [0, 1]")
        self.device.reset()
        builder = ResultBuilder(
            kernel="random-access",
            organization=self.config.describe(),
            length=num_transactions,
            stride=1,
            fifo_depth=0,
            alignment="random",
            policy=f"random-q{self.queue_depth}",
        )
        self._drive(
            TransactionPump(
                self._transaction_steps(
                    num_transactions, write_fraction, seed, builder
                )
            ),
            max_cycles=20_000 + 500 * max(num_transactions, 1),
            label=f"random-q{self.queue_depth}: org={self.config.describe()}",
            dense=dense,
        )

        moved = self.device.bytes_transferred
        return builder.build(
            cycles=builder.last_data_end,
            useful_bytes=moved,
            transferred_bytes=moved,
            packets_issued=(
                num_transactions * self.config.packets_per_cacheline
            ),
            refreshes=self.refreshes_issued,
        )

    def _transaction_steps(
        self,
        num_transactions: int,
        write_fraction: float,
        seed: int,
        builder: ResultBuilder,
    ) -> Iterator[int]:
        """Generate the random transaction stream.

        PRNG draws happen between yields in the exact order the
        original loop made them (line, then direction, per
        transaction), so results are reproducible per seed regardless
        of how the kernel paces the pump.
        """
        rng = random.Random(seed)
        line_bytes = self.config.cacheline_bytes
        total_lines = self.device.geometry.capacity_bytes // line_bytes
        outstanding: Deque[int] = deque()

        for __ in range(num_transactions):
            line = rng.randrange(total_lines)
            direction = _WRITE if rng.random() < write_fraction else _READ
            start_at = 0
            if len(outstanding) >= self.queue_depth:
                start_at = outstanding.popleft()
            yield start_at
            _, first_data, data_end, forced, _, _ = self.issue_line(
                line * line_bytes, direction, start_at
            )
            builder.bank_conflicts += forced
            builder.note_first_data(first_data)
            builder.transactions += 1
            builder.note_data_end(data_end)
            outstanding.append(data_end)
