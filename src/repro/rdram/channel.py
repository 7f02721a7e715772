"""A Rambus channel holding multiple Direct RDRAM devices.

The paper evaluates "a memory system composed of a single Direct
RDRAM device" and notes that Crisp's reported 95 % efficiency came
from "a system with many devices" under more random access patterns
(Section 6).  This module models that fuller system: up to 32 devices
share one channel — one ROW bus, one COL bus, one dual-edge DATA bus —
while each device keeps its own banks and its own t_RR constraint.

:class:`ChannelGeometry` describes that system in *global* bank
indices (device d's bank b is global index ``d * banks_per_device +
b``), and :class:`~repro.rdram.device.RdramDevice` is the one bus
model for any device count: it keeps t_RR per device and everything
else channel-wide.  So every controller in the library — the SMC and
the line controllers — runs unmodified against a channel, and the
address map spreads interleave units across all devices' banks.

:func:`make_memory` is the one place a memory-system configuration
becomes memory: a device or a channel for each channel of the
config's topology, each with its own page manager, several channels
wrapped in a :class:`~repro.rdram.fabric.MemoryFabric`, and the
config's address mapping attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigurationError, require_int
from repro.rdram.device import RdramDevice, RdramGeometry
from repro.rdram.timing import RdramTiming


@dataclass(frozen=True)
class ChannelGeometry:
    """Geometry of a multi-device channel, in global bank indices.

    Duck-compatible with :class:`~repro.rdram.device.RdramGeometry`
    wherever the library needs ``num_banks`` / ``page_bytes`` /
    ``rows_per_bank`` / ``capacity_bytes`` / ``packets_per_page`` /
    ``neighbors``; the double-bank adjacency never crosses a device
    boundary.

    Attributes:
        num_devices: RDRAM devices on the channel (a Direct Rambus
            channel supports up to 32).
        device: Per-device geometry.
    """

    num_devices: int = 4
    device: RdramGeometry = field(default_factory=RdramGeometry)

    def __post_init__(self) -> None:
        if not 1 <= require_int("num_devices", self.num_devices) <= 32:
            raise ConfigurationError(
                "a Rambus channel holds 1 to 32 devices, got "
                f"{self.num_devices}"
            )
        if not isinstance(self.device, RdramGeometry):
            # A nested ChannelGeometry (or any other duck) would expose
            # a plausible num_banks yet mis-map neighbors() and the
            # per-device t_RR bookkeeping; reject it outright.
            raise ConfigurationError(
                "ChannelGeometry.device must be an RdramGeometry "
                "(channels do not nest); got "
                f"{type(self.device).__name__}"
            )
        if self.device.num_banks < 1 or self.device.rows_per_bank < 1:
            raise ConfigurationError(
                "channel device geometry must hold at least one bank "
                f"and one row, got {self.device.num_banks} banks x "
                f"{self.device.rows_per_bank} rows"
            )

    @property
    def num_banks(self) -> int:
        """Global bank count across all devices."""
        return self.num_devices * self.device.num_banks

    @property
    def page_bytes(self) -> int:
        return self.device.page_bytes

    @property
    def rows_per_bank(self) -> int:
        return self.device.rows_per_bank

    @property
    def doubled_banks(self) -> bool:
        return self.device.doubled_banks

    @property
    def capacity_bytes(self) -> int:
        return self.num_devices * self.device.capacity_bytes

    @property
    def packets_per_page(self) -> int:
        return self.device.packets_per_page

    def device_of(self, global_bank: int) -> int:
        """Device index owning a global bank."""
        return global_bank // self.device.num_banks

    def local_bank(self, global_bank: int) -> int:
        """Bank index within its device."""
        return global_bank % self.device.num_banks

    def neighbors(self, global_bank: int) -> Tuple[int, ...]:
        """Sense-amp-sharing neighbors, never crossing devices."""
        base = global_bank - self.local_bank(global_bank)
        return tuple(
            base + local
            for local in self.device.neighbors(self.local_bank(global_bank))
        )


def make_memory(config, *, record_trace: bool = False):
    """Build the memory a configuration describes.

    This is the one place a
    :class:`~repro.memsys.config.MemorySystemConfig` becomes memory.
    Each channel of ``config.channel_geometry`` is an
    :class:`~repro.rdram.device.RdramDevice`, or a
    :class:`RambusChannel` when that geometry holds several devices,
    with its own page manager: managers keep per-bank state keyed by
    channel-local bank index.  Several channels are wrapped in a
    :class:`~repro.rdram.fabric.MemoryFabric`.  The config's address
    mapping is attached either way.
    """
    from repro.memsys.address import get_address_mapping
    from repro.memsys.pagemanager import make_page_manager
    from repro.rdram.fabric import MemoryFabric

    geometry = config.channel_geometry
    model = RambusChannel if isinstance(geometry, ChannelGeometry) else RdramDevice
    memories = []
    for _ in range(config.topology.channels):
        channel = model(
            timing=config.timing, geometry=geometry, record_trace=record_trace
        )
        channel.page_manager = make_page_manager(config)
        memories.append(channel)
    memory = memories[0] if len(memories) == 1 else MemoryFabric(memories)
    memory.mapping = get_address_mapping(config)
    return memory


class RambusChannel(RdramDevice):
    """Several RDRAM devices sharing one channel's buses.

    :class:`~repro.rdram.device.RdramDevice` is the one bus model for
    any device count (it keeps t_RR per device); a channel only
    defaults its geometry to a :class:`ChannelGeometry`.
    """

    # perfbench/tracing.py wraps these from each class's own namespace.
    issue_access = RdramDevice.issue_access
    issue_col = RdramDevice.issue_col

    def __init__(
        self,
        timing: Optional[RdramTiming] = None,
        geometry: Optional[ChannelGeometry] = None,
        record_trace: bool = True,
    ) -> None:
        super().__init__(timing, geometry or ChannelGeometry(), record_trace)
