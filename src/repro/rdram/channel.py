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
the natural-order baseline — runs unmodified against a channel; pair
a :class:`ChannelGeometry` with the memory-system configuration and
the address map spreads interleave units across all devices' banks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigurationError
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
        if isinstance(self.num_devices, bool) or not isinstance(
            self.num_devices, int
        ):
            raise ConfigurationError(
                f"num_devices must be an integer, got {self.num_devices!r}"
            )
        if not 1 <= self.num_devices <= 32:
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


def make_memory(
    timing: Optional[RdramTiming] = None,
    geometry=None,
    record_trace: bool = True,
    explicit_retire: bool = False,
    page_manager=None,
    topology=None,
    page_manager_factory=None,
):
    """Build the right memory model for a geometry and topology.

    A :class:`ChannelGeometry` yields a :class:`RambusChannel`; an
    :class:`~repro.rdram.device.RdramGeometry` (or None) yields a
    single :class:`~repro.rdram.device.RdramDevice`.  Both are the same
    bus model, so controllers are agnostic.  An optional
    :class:`~repro.memsys.pagemanager.PageManager` is attached for the
    ``issue_access`` path to consult.

    A :class:`~repro.memsys.config.MemoryTopology` widens the build:
    ``devices_per_channel > 1`` wraps the per-device geometry in a
    :class:`ChannelGeometry`, and ``channels > 1`` yields a
    :class:`~repro.rdram.fabric.MemoryFabric` of independent channels.
    Page managers hold per-bank state keyed by channel-local bank
    index, so a fabric needs one manager *per channel*: pass
    ``page_manager_factory`` (called once per channel) instead of a
    shared ``page_manager``.
    """
    if topology is not None and not topology.single:
        if isinstance(geometry, ChannelGeometry):
            raise ConfigurationError(
                "pass the per-device geometry alongside a topology; a "
                "ChannelGeometry already encodes device multiplicity"
            )
        if topology.channels > 1:
            from repro.rdram.fabric import MemoryFabric

            if page_manager is not None and page_manager_factory is None:
                raise ConfigurationError(
                    "a multi-channel fabric needs a page_manager_factory "
                    "(one manager per channel); a shared page_manager "
                    "would collide on channel-local bank indices"
                )
            return MemoryFabric(
                timing=timing,
                channels=topology.channels,
                channel_geometry=(
                    ChannelGeometry(
                        num_devices=topology.devices_per_channel,
                        device=geometry or RdramGeometry(),
                    )
                    if topology.devices_per_channel > 1
                    else geometry or RdramGeometry()
                ),
                record_trace=record_trace,
                explicit_retire=explicit_retire,
                page_manager_factory=page_manager_factory,
            )
        geometry = ChannelGeometry(
            num_devices=topology.devices_per_channel,
            device=geometry or RdramGeometry(),
        )

    model = RambusChannel if isinstance(geometry, ChannelGeometry) else RdramDevice
    memory = model(
        timing=timing,
        geometry=geometry,
        record_trace=record_trace,
        explicit_retire=explicit_retire,
    )
    if page_manager is None and page_manager_factory is not None:
        page_manager = page_manager_factory()
    memory.page_manager = page_manager
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
        explicit_retire: bool = False,
    ) -> None:
        super().__init__(
            timing, geometry or ChannelGeometry(), record_trace, explicit_retire
        )
