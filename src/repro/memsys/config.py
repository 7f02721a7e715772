"""Memory-system configuration shared by all controllers.

Bundles the RDRAM device parameters with the system-level choices the
paper varies: the interleaving scheme, the page-management policy, and
the cacheline size.  Validates the divisibility assumptions of
Section 4.1: the cacheline size is an integer multiple of the DATA
packet size, and the RDRAM page size is an integer multiple of the
cacheline size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Union

from repro.errors import ConfigurationError, require_int
from repro.rdram.device import RdramGeometry
from repro.rdram.timing import DATA_PACKET_BYTES, RdramTiming

#: Streams are composed of 64-bit elements throughout the paper.
ELEMENT_BYTES = 8

#: Elements per DATA packet (the paper's w_p): two 64-bit words fit in
#: one 128-bit DATA packet.
ELEMENTS_PER_PACKET = DATA_PACKET_BYTES // ELEMENT_BYTES


class Interleaving(enum.Enum):
    """How contiguous addresses are spread across RDRAM banks.

    CACHELINE (the paper's CLI): successive cachelines reside in
    different banks.  PAGE (the paper's PI): a whole RDRAM page maps to
    one bank, so crossing a page boundary means switching banks.
    SWIZZLE: page-granular like PI, but the bank is XOR-permuted with
    the row so vertically aligned pages of different vectors spread
    across banks instead of colliding (a DReAM-style remap ablation).

    Each value is the registry name of an
    :class:`~repro.memsys.address.AddressMapping` strategy; strings
    are accepted anywhere an ``Interleaving`` is, so out-of-tree
    mappings registered under new names work without extending this
    enum.
    """

    CACHELINE = "cli"
    PAGE = "pi"
    SWIZZLE = "swizzle"


class PagePolicy(enum.Enum):
    """Sense-amp management after a burst of accesses to a bank.

    CLOSED precharges after every access burst — best when successive
    accesses go to different pages.  OPEN leaves the sense amps
    unprecharged — best when successive accesses hit the same page.
    TIMEOUT auto-precharges a bank left idle for
    ``page_timeout_cycles``.  HYBRID predicts open-vs-closed per row
    with saturating counters (HAPPY-style).

    Each value is the registry name of a
    :class:`~repro.memsys.pagemanager.PageManager` strategy; strings
    are accepted anywhere a ``PagePolicy`` is, so out-of-tree policies
    registered under new names work without extending this enum.
    """

    CLOSED = "closed"
    OPEN = "open"
    TIMEOUT = "timeout"
    HYBRID = "hybrid"


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
        interleaving: Address-mapping registry name (an
            :class:`Interleaving` member or a bare string naming a
            registered mapping).
        page_policy: Page-manager registry name (a :class:`PagePolicy`
            member or a bare string naming a registered policy).
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
    interleaving: Union[Interleaving, str] = Interleaving.CACHELINE
    page_policy: Union[PagePolicy, str] = PagePolicy.CLOSED
    cacheline_bytes: int = 32
    page_timeout_cycles: int = 64
    remap_epoch_accesses: int = 1024
    topology: MemoryTopology = field(default_factory=MemoryTopology)

    def __post_init__(self) -> None:
        # Normalize known string spellings to the enum members so
        # ``config.interleaving is Interleaving.CACHELINE`` keeps
        # working however the caller spelled it; unknown names are kept
        # verbatim for out-of-tree registry plugins.
        try:
            object.__setattr__(
                self, "interleaving", Interleaving(self.interleaving)
            )
        except ValueError:
            pass
        try:
            object.__setattr__(self, "page_policy", PagePolicy(self.page_policy))
        except ValueError:
            pass
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
        overrides.setdefault("interleaving", Interleaving.CACHELINE)
        overrides.setdefault("page_policy", PagePolicy.CLOSED)
        return cls(**overrides)

    @classmethod
    def pi(cls, **overrides) -> "MemorySystemConfig":
        """The paper's PI system: page interleave, open pages."""
        overrides.setdefault("interleaving", Interleaving.PAGE)
        overrides.setdefault("page_policy", PagePolicy.OPEN)
        return cls(**overrides)

    # -- registry names -------------------------------------------------

    @property
    def interleaving_name(self) -> str:
        """Registry name of the address mapping ("cli", "pi", ...)."""
        if isinstance(self.interleaving, Interleaving):
            return self.interleaving.value
        return str(self.interleaving)

    @property
    def page_policy_name(self) -> str:
        """Registry name of the page manager ("closed", "open", ...)."""
        if isinstance(self.page_policy, PagePolicy):
            return self.page_policy.value
        return str(self.page_policy)

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
            f"{self.interleaving_name.upper()} / {self.page_policy_name}-page, "
            f"{self.geometry.num_banks} banks, "
            f"{self.geometry.page_bytes} B pages, "
            f"{self.cacheline_bytes} B lines"
        )
