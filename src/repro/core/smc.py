"""Stream Memory Controller assembly.

Wires a kernel, a memory-system configuration and the SMC parameters
(FIFO depth, scheduling policy, data placement) into the component
graph of Figure 3: CPU -> SBU (FIFOs) -> MSU -> Direct RDRAM, on the
memory :func:`~repro.rdram.channel.make_memory` builds from the
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.cpu.kernels import Kernel
from repro.cpu.processor import StreamProcessor
from repro.cpu.streams import Alignment, StreamDescriptor, place_streams
from repro.core.msu import MemorySchedulingUnit
from repro.core.policies import RoundRobinPolicy, SchedulingPolicy
from repro.core.sbu import StreamBufferUnit
from repro.memsys.config import MemorySystemConfig
from repro.rdram.channel import make_memory
from repro.rdram.device import RdramDevice
from repro.rdram.fabric import channel_memories
from repro.rdram.refresh import RefreshEngine


@dataclass
class SmcSystem:
    """A fully wired SMC simulation instance.

    Attributes:
        kernel: The inner loop being executed.
        config: Memory-system configuration.
        descriptors: Placed streams, in kernel order.
        device: The memory :func:`~repro.rdram.channel.make_memory`
            built: a device, a multi-device channel or a fabric, with
            the configuration's address mapping attached as
            ``device.mapping``.
        sbu: Stream buffer unit (FIFOs).
        msu: Memory scheduling unit.
        processor: Natural-order element access generator.
        refresh: One background :class:`RefreshEngine` per channel
            memory (empty when refresh is off); each re-arms an idle
            MSU when it refreshes.
    """

    kernel: Kernel
    config: MemorySystemConfig
    descriptors: List[StreamDescriptor]
    device: RdramDevice
    sbu: StreamBufferUnit
    msu: MemorySchedulingUnit
    processor: StreamProcessor
    refresh: List[RefreshEngine] = field(default_factory=list)


def build_smc_system(
    kernel: Kernel,
    config: MemorySystemConfig,
    length: int,
    fifo_depth: int,
    stride: int = 1,
    alignment: Alignment = Alignment.STAGGERED,
    policy: Optional[SchedulingPolicy] = None,
    record_trace: bool = False,
    descriptors: Optional[Sequence[StreamDescriptor]] = None,
    refresh: bool = False,
) -> SmcSystem:
    """Build an SMC system ready for :func:`repro.sim.engine.run_smc`.

    The memory comes from :func:`~repro.rdram.channel.make_memory`,
    and each stream's access plan from
    :func:`~repro.core.fifo.build_plan` on the same configuration.
    Indexed streams enter through ``descriptors`` (see
    :func:`repro.core.gather.build_gather_system`).

    Args:
        kernel: Inner loop to execute.
        config: Memory organization (CLI/PI, page policy, sizes).
        length: Vector length in elements (the paper's L_s).
        fifo_depth: FIFO depth in elements (the paper's f).
        stride: Stream stride in elements.
        alignment: ALIGNED (maximal bank conflicts) or STAGGERED
            placement of vector base addresses.
        policy: MSU scheduling policy; defaults to the paper's
            round-robin.
        record_trace: Record the full packet trace on the device (for
            auditing/timelines; slows long runs).
        descriptors: Pre-placed streams, overriding automatic
            placement (must match the kernel's stream order).
        refresh: Attach a background :class:`RefreshEngine` per
            channel (the paper ignores refresh; this quantifies that
            assumption).

    Returns:
        The wired system.
    """
    if descriptors is None:
        placed = place_streams(
            kernel.streams,
            config,
            length=length,
            stride=stride,
            alignment=alignment,
        )
    else:
        placed = list(descriptors)
    device = make_memory(config, record_trace=record_trace)
    sbu = StreamBufferUnit.from_descriptors(placed, config, fifo_depth)
    msu = MemorySchedulingUnit(device, sbu, policy or RoundRobinPolicy())
    processor = StreamProcessor(kernel, length, sbu, on_retire=msu.wake)
    return SmcSystem(
        kernel=kernel,
        config=config,
        descriptors=placed,
        device=device,
        sbu=sbu,
        msu=msu,
        processor=processor,
        refresh=(
            [
                RefreshEngine(memory, on_fire=msu.note_refresh)
                for memory in channel_memories(device)
            ]
            if refresh
            else []
        ),
    )
