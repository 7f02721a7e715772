"""Memory-system configuration shared by all controllers.

Bundles the RDRAM device parameters with the system-level choices the
paper varies: the interleaving scheme, the page-management policy, and
the cacheline size.  Validates the divisibility assumptions of
Section 4.1: the cacheline size is an integer multiple of the DATA
packet size, and the RDRAM page size is an integer multiple of the
cacheline size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, require_int
from repro.rdram.device import RdramGeometry
from repro.rdram.timing import DATA_PACKET_BYTES, RdramTiming

#: Streams are composed of 64-bit elements throughout the paper.
ELEMENT_BYTES = 8

#: Elements per DATA packet (the paper's w_p): two 64-bit words fit in
#: one 128-bit DATA packet.
ELEMENTS_PER_PACKET = DATA_PACKET_BYTES // ELEMENT_BYTES


@dataclass(frozen=True)
class MemoryTopology:
    """How the memory system gangs channels and devices.

    The paper models one Direct Rambus channel holding one device;
    production systems gang several independent channels — each with
    its own ROW/COL/DATA buses — and populate each channel with
    several devices.  A topology is purely multiplicative: per-channel
    behavior is exactly the single-channel model, and capacity and
    peak bandwidth scale with ``channels``.

    Attributes:
        channels: Independent Rambus channels (each with private
            buses and bank state).
        devices_per_channel: RDRAM devices sharing each channel's
            buses (a Direct Rambus channel supports up to 32).
    """

    channels: int = 1
    devices_per_channel: int = 1

    def __post_init__(self) -> None:
        require_int("channels", self.channels)
        require_int("devices_per_channel", self.devices_per_channel)
        if not 1 <= self.channels <= 16:
            raise ConfigurationError(
                f"channels must be in 1..16, got {self.channels}"
            )
        if not 1 <= self.devices_per_channel <= 32:
            raise ConfigurationError(
                "a Rambus channel holds 1 to 32 devices, got "
                f"{self.devices_per_channel}"
            )

    @property
    def single(self) -> bool:
        """True for the paper's one-channel, one-device system."""
        return self.channels == 1 and self.devices_per_channel == 1

    def describe(self) -> str:
        """Short human-readable form, e.g. ``"2ch x 4dev"``."""
        return f"{self.channels}ch x {self.devices_per_channel}dev"


@dataclass(frozen=True)
class MemorySystemConfig:
    """Complete configuration of the modeled memory system.

    The paper evaluates two pairings — CLI with a closed-page policy
    and PI with an open-page policy — but any combination can be
    constructed for ablation studies.

    Attributes:
        timing: Direct RDRAM timing parameters.
        geometry: Device geometry (banks, page size, rows).
        interleaving: Registry name of the address mapping
            (:data:`~repro.memsys.address.MAPPINGS`: "cli", "pi",
            ...), in any letter case; held lower-case.
        page_policy: Registry name of the page manager
            (:data:`~repro.memsys.pagemanager.PAGE_POLICIES`:
            "closed", "open", ...), in any letter case; held
            lower-case.
        cacheline_bytes: Cacheline size used by natural-order accesses.
        page_timeout_cycles: Idle cycles before the ``timeout`` page
            policy auto-precharges an open bank (ignored by the other
            policies).
        remap_epoch_accesses: Accesses between re-arrangement
            decisions for stateful mappings like ``dream`` (ignored by
            the static mappings).
        topology: Channel/device multiplicity (defaults to the
            paper's single channel with a single device).  When the
            topology names multiple devices per channel, ``geometry``
            stays the *per-device* geometry; the channel and fabric
            layers derive the ganged layout from it.
    """

    timing: RdramTiming = field(default_factory=RdramTiming)
    geometry: RdramGeometry = field(default_factory=RdramGeometry)
    interleaving: str = "cli"
    page_policy: str = "closed"
    cacheline_bytes: int = 32
    page_timeout_cycles: int = 64
    remap_epoch_accesses: int = 1024
    topology: MemoryTopology = field(default_factory=MemoryTopology)

    def __post_init__(self) -> None:
        # Imported here: both registry modules import this one.
        from repro.memsys.address import MAPPINGS
        from repro.memsys.pagemanager import PAGE_POLICIES

        for name, registry in (
            ("interleaving", MAPPINGS), ("page_policy", PAGE_POLICIES)
        ):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ConfigurationError(
                    f"{name} must name a registered {registry.kind}, "
                    f"got {value!r}"
                )
            value = value.lower()
            try:
                registry.resolve(value)
            except ConfigurationError as error:
                raise ConfigurationError(f"{name}: {error}") from None
            object.__setattr__(self, name, value)
        for name in (
            "cacheline_bytes", "page_timeout_cycles", "remap_epoch_accesses"
        ):
            value = getattr(self, name)
            if require_int(name, value) <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {value}"
                )
        if self.cacheline_bytes % DATA_PACKET_BYTES:
            raise ConfigurationError(
                "cacheline size must be an integer multiple of the DATA "
                f"packet size: {self.cacheline_bytes} % {DATA_PACKET_BYTES} != 0"
            )
        if self.geometry.page_bytes % self.cacheline_bytes:
            raise ConfigurationError(
                "RDRAM page size must be an integer multiple of the "
                f"cacheline size: {self.geometry.page_bytes} % "
                f"{self.cacheline_bytes} != 0"
            )
        if not isinstance(self.topology, MemoryTopology):
            raise ConfigurationError(
                "topology must be a MemoryTopology, got "
                f"{type(self.topology).__name__}"
            )
        if not self.topology.single and not isinstance(
            self.geometry, RdramGeometry
        ):
            raise ConfigurationError(
                "a non-default topology needs a per-device RdramGeometry; "
                f"{type(self.geometry).__name__} already encodes device "
                "multiplicity"
            )

    @classmethod
    def cli(cls, **overrides) -> "MemorySystemConfig":
        """The paper's CLI system: cacheline interleave, closed pages."""
        overrides.setdefault("interleaving", "cli")
        overrides.setdefault("page_policy", "closed")
        return cls(**overrides)

    @classmethod
    def pi(cls, **overrides) -> "MemorySystemConfig":
        """The paper's PI system: page interleave, open pages."""
        overrides.setdefault("interleaving", "pi")
        overrides.setdefault("page_policy", "open")
        return cls(**overrides)

    # -- derived quantities the paper's equations use -------------------

    @property
    def elements_per_cacheline(self) -> int:
        """The paper's L_c: 64-bit words per cacheline."""
        return self.cacheline_bytes // ELEMENT_BYTES

    @property
    def elements_per_page(self) -> int:
        """The paper's L_P: 64-bit words per RDRAM page."""
        return self.geometry.page_bytes // ELEMENT_BYTES

    @property
    def packets_per_cacheline(self) -> int:
        """DATA packets needed to move one cacheline."""
        return self.cacheline_bytes // DATA_PACKET_BYTES

    @property
    def cachelines_per_page(self) -> int:
        """Cachelines held by one RDRAM page."""
        return self.geometry.page_bytes // self.cacheline_bytes

    # -- topology-derived layout ----------------------------------------

    @property
    def channel_geometry(self):
        """Geometry of one channel under this config's topology.

        The per-device ``geometry`` when the topology has one device
        per channel (or when the caller supplied a
        :class:`~repro.rdram.channel.ChannelGeometry` directly); a
        :class:`~repro.rdram.channel.ChannelGeometry` wrapping
        ``devices_per_channel`` copies of it otherwise.
        """
        if self.topology.devices_per_channel > 1:
            from repro.rdram.channel import ChannelGeometry

            return ChannelGeometry(
                num_devices=self.topology.devices_per_channel,
                device=self.geometry,
            )
        return self.geometry

    @property
    def banks_per_channel(self) -> int:
        """Banks addressable within one channel."""
        return self.channel_geometry.num_banks

    @property
    def total_banks(self) -> int:
        """Banks across the whole topology."""
        return self.topology.channels * self.banks_per_channel

    @property
    def total_capacity_bytes(self) -> int:
        """Mappable bytes across the whole topology."""
        return self.topology.channels * self.channel_geometry.capacity_bytes

    def describe(self) -> str:
        """One-line human-readable summary of the organization."""
        prefix = "" if self.topology.single else f"{self.topology.describe()}, "
        return (
            f"{prefix}"
            f"{self.interleaving.upper()} / {self.page_policy}-page, "
            f"{self.geometry.num_banks} banks, "
            f"{self.geometry.page_bytes} B pages, "
            f"{self.cacheline_bytes} B lines"
        )
