"""One-call simulation API.

:class:`RunSpec` + :func:`simulate` are the canonical front door: a
frozen, hashable, JSON-serializable description of one simulation.
The result cache and the process-pool sweep backend
(:mod:`repro.exec`) are both keyed on :meth:`RunSpec.canonical_key`.
A spec is checked and normalized once, when it is built, and
:func:`canonical_memory` is the one rule that spells its memory, so
equal work has one key.

:func:`simulate` picks the loop itself: the vectorized
:func:`~repro.sim.batch.run_smc_batch` whenever
:func:`~repro.sim.batch.batch_unsupported_reason` allows it and no
instrumentation is attached, else the discrete-event kernel
(:func:`~repro.sim.engine.run_smc`).  The two are bit-identical
wherever both run.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError, require_int
from repro.cpu.kernels import KERNELS, Kernel, get_kernel
from repro.cpu.streams import Alignment, Direction, StreamSpec, check_extent
from repro.core.policies import POLICIES, SchedulingPolicy
from repro.core.smc import build_smc_system
from repro.memsys.address import MAPPINGS, list_mappings
from repro.memsys.config import (
    Interleaving,
    MemorySystemConfig,
    MemoryTopology,
    PagePolicy,
)
from repro.memsys.pagemanager import PAGE_POLICIES, list_page_policies
from repro.obs.core import Instrumentation
from repro.rdram.channel import ChannelGeometry
from repro.rdram.device import RdramGeometry
from repro.rdram.timing import RdramTiming
from repro.sim.batch import batch_unsupported_reason, run_smc_batch
from repro.sim.engine import run_smc
from repro.sim.results import SimulationResult

#: Named organizations matching the paper's two design points.
ORGANIZATIONS = {
    "cli": MemorySystemConfig.cli,
    "pi": MemorySystemConfig.pi,
}


def resolve_config(
    organization: Union[str, MemorySystemConfig]
) -> MemorySystemConfig:
    """Accept an organization name ("cli"/"pi") or a full config."""
    if isinstance(organization, MemorySystemConfig):
        return organization
    try:
        return ORGANIZATIONS[organization.lower()]()
    except (KeyError, AttributeError):
        raise ConfigurationError(
            f"unknown organization {organization!r}; "
            f"use one of {sorted(ORGANIZATIONS)} or pass a "
            "MemorySystemConfig"
        ) from None


def apply_policy_overrides(
    config: MemorySystemConfig,
    interleaving: Optional[Union[str, Interleaving]] = None,
    page_policy: Optional[Union[str, PagePolicy]] = None,
) -> MemorySystemConfig:
    """A copy of ``config`` with mapping/page-policy names swapped in.

    Either override may be an enum member, a registered name (see
    :data:`repro.memsys.address.MAPPINGS` and
    :data:`repro.memsys.pagemanager.PAGE_POLICIES`), or None to keep
    the config's own choice.

    Raises:
        ConfigurationError: On a name no registry entry claims.
    """
    replacements: Dict[str, Any] = {}
    if interleaving is not None:
        replacements["interleaving"] = _canonical_mapping_name(interleaving)
    if page_policy is not None:
        replacements["page_policy"] = _canonical_policy_name(page_policy)
    if not replacements:
        return config
    return dataclasses.replace(config, **replacements)


def _canonical_mapping_name(value: Union[str, Interleaving]) -> str:
    """Validate an address-mapping spelling against the registry."""
    name = value.value if isinstance(value, Interleaving) else str(value).lower()
    if name not in MAPPINGS:
        raise ConfigurationError(
            f"unknown address mapping {value!r}; "
            f"registered mappings: {list_mappings()}"
        )
    return name


def _canonical_policy_name(value: Union[str, PagePolicy]) -> str:
    """Validate a page-policy spelling against the registry."""
    name = value.value if isinstance(value, PagePolicy) else str(value).lower()
    if name not in PAGE_POLICIES:
        raise ConfigurationError(
            f"unknown page policy {value!r}; "
            f"registered policies: {list_page_policies()}"
        )
    return name


def canonical_memory(
    organization: Union[str, MemorySystemConfig],
    interleaving: Optional[Union[str, Interleaving]] = None,
    page_policy: Optional[Union[str, PagePolicy]] = None,
) -> Tuple[Union[str, MemorySystemConfig], Optional[str], Optional[str]]:
    """The one spelling of a memory, as ``(organization, interleaving,
    page_policy)``.

    ``organization`` (a name in any case, or a config without a
    topology) is resolved and the overrides are applied to it; its
    mapping and page-policy names, overridden or its own, become
    registry names.  The result is then named one way: the design
    point's name if it equals one; else, if it differs from ``cli``
    only in its mapping and page policy, ``"cli"`` plus the overrides
    that differ from ``cli``'s; else the whole config, with no
    overrides.

    Raises:
        ConfigurationError: On an unknown organization, mapping or
            page-policy name.
    """
    config = resolve_config(organization)
    config = apply_policy_overrides(
        config,
        config.interleaving_name if interleaving is None else interleaving,
        config.page_policy_name if page_policy is None else page_policy,
    )
    for name, factory in ORGANIZATIONS.items():
        if config == factory():
            return name, None, None
    cli = MemorySystemConfig.cli()
    if dataclasses.replace(
        config, interleaving=cli.interleaving, page_policy=cli.page_policy
    ) != cli:
        return config, None, None
    mapping, policy = config.interleaving_name, config.page_policy_name
    return (
        "cli",
        None if mapping == cli.interleaving_name else mapping,
        None if policy == cli.page_policy_name else policy,
    )


def resolve_policy(
    policy: Union[str, SchedulingPolicy, None]
) -> Optional[SchedulingPolicy]:
    """Accept a policy name, instance, or None (paper default)."""
    if policy is None or isinstance(policy, SchedulingPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {policy!r}; use one of {sorted(POLICIES)}"
        ) from None


# -- config/kernel serialization helpers --------------------------------


def _geometry_to_dict(geometry: Any) -> Dict[str, Any]:
    if isinstance(geometry, ChannelGeometry):
        return {
            "kind": "channel",
            "num_devices": geometry.num_devices,
            "device": _geometry_to_dict(geometry.device),
        }
    if isinstance(geometry, RdramGeometry):
        data = dataclasses.asdict(geometry)
        data["kind"] = "device"
        return data
    raise ConfigurationError(
        f"cannot serialize geometry of type {type(geometry).__name__}"
    )


def _geometry_from_dict(data: Mapping[str, Any]) -> Any:
    kind = data.get("kind", "device")
    if kind == "channel":
        return ChannelGeometry(
            num_devices=data["num_devices"],
            device=_geometry_from_dict(data["device"]),
        )
    fields = {k: v for k, v in data.items() if k != "kind"}
    return RdramGeometry(**fields)


def _config_to_dict(config: MemorySystemConfig) -> Dict[str, Any]:
    data = {
        "timing": dataclasses.asdict(config.timing),
        "geometry": _geometry_to_dict(config.geometry),
        "interleaving": config.interleaving_name,
        "page_policy": config.page_policy_name,
        "cacheline_bytes": config.cacheline_bytes,
    }
    # Emitted only when non-default so that canonical cache keys for
    # configs predating the field are unchanged.
    if config.page_timeout_cycles != 64:
        data["page_timeout_cycles"] = config.page_timeout_cycles
    if config.remap_epoch_accesses != 1024:
        data["remap_epoch_accesses"] = config.remap_epoch_accesses
    if not config.topology.single:
        data["topology"] = {
            "channels": config.topology.channels,
            "devices_per_channel": config.topology.devices_per_channel,
        }
    return data


def _config_from_dict(data: Mapping[str, Any]) -> MemorySystemConfig:
    topology = data.get("topology")
    return MemorySystemConfig(
        timing=RdramTiming(**data["timing"]),
        geometry=_geometry_from_dict(data["geometry"]),
        interleaving=data["interleaving"],
        page_policy=data["page_policy"],
        cacheline_bytes=data["cacheline_bytes"],
        page_timeout_cycles=data.get("page_timeout_cycles", 64),
        remap_epoch_accesses=data.get("remap_epoch_accesses", 1024),
        topology=(
            MemoryTopology(**topology) if topology else MemoryTopology()
        ),
    )


def _kernel_to_dict(kernel: Kernel) -> Dict[str, Any]:
    return {
        "name": kernel.name,
        "expression": kernel.expression,
        "streams": [
            {
                "name": s.name,
                "vector": s.vector,
                "direction": s.direction.value,
                "offset": s.offset,
                "stride_factor": s.stride_factor,
            }
            for s in kernel.streams
        ],
    }


def _kernel_from_dict(data: Mapping[str, Any]) -> Kernel:
    return Kernel(
        name=data["name"],
        expression=data["expression"],
        streams=tuple(
            StreamSpec(
                name=s["name"],
                vector=s["vector"],
                direction=Direction(s["direction"]),
                offset=s["offset"],
                stride_factor=s["stride_factor"],
            )
            for s in data["streams"]
        ),
    )


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one simulation's outcome.

    A frozen record of one simulation's parameters.  On
    construction, values are normalized to their canonical form where
    one exists — a registered :class:`~repro.cpu.kernels.Kernel`
    becomes its name, a registry policy instance becomes its name, and
    the memory gets its one spelling from :func:`canonical_memory` —
    so that equal work compares and hashes equally however the caller
    spelled it.  Construction also rejects, with a
    :class:`~repro.errors.ReproError` naming the field, what
    :func:`simulate` would reject later: unknown organization, kernel,
    policy, mapping and page-policy names, a non-bool ``audit`` or
    ``refresh``, and a ``length`` or ``stride`` that is not a
    positive int.

    Unregistered kernels (e.g. from :func:`~repro.compiler.compile_loop`)
    and custom configs serialize structurally; only custom
    :class:`~repro.core.policies.SchedulingPolicy` *instances* outside
    the registry cannot be serialized (and therefore cannot be cached
    or sent to worker processes — run them serially instead).

    The ``interleaving`` and ``page_policy`` fields layer any
    registered address mapping or page-management policy onto the
    organization by name, and ``channels``/``devices`` give its
    topology; a config carrying its own topology moves it into those
    two fields.  So ``RunSpec(organization="pi", page_policy="closed")``,
    ``RunSpec(organization="cli", interleaving="pi")`` and
    ``RunSpec(organization=MemorySystemConfig.pi(page_policy="closed"))``
    are one spec with one key.

    Note that runtime instrumentation (the ``obs`` argument of
    :func:`simulate`) is deliberately *not* part of the spec: it does
    not change the simulated outcome, only what is recorded about it.
    ``telemetry_window`` rides along the same way: it is serialized by
    :meth:`to_dict` so sweep definitions carry it, but excluded from
    :meth:`canonical_key` — telemetry never changes the simulated
    outcome, so a windowed spec shares its cache entry with the plain
    one.
    """

    kernel: Union[str, Kernel] = "daxpy"
    organization: Union[str, MemorySystemConfig] = "cli"
    length: int = 1024
    fifo_depth: int = 64
    stride: int = 1
    alignment: str = "staggered"
    policy: Union[str, SchedulingPolicy, None] = None
    audit: bool = False
    refresh: bool = False
    interleaving: Optional[Union[str, Interleaving]] = None
    page_policy: Optional[Union[str, PagePolicy]] = None
    telemetry_window: Optional[int] = None
    channels: int = 1
    devices: int = 1

    def __post_init__(self) -> None:
        window = self.telemetry_window
        if window is not None and require_int("telemetry window", window) < 1:
            raise ConfigurationError(
                f"telemetry window must be positive, got {window}"
            )
        # At least 1 here; how much a stream's plan needs (2 elements
        # for a stride-1 unit) is check_fifo_depth's, at build time.
        if require_int("fifo_depth", self.fifo_depth) < 1:
            raise ConfigurationError(
                f"fifo_depth must be at least 1, got {self.fifo_depth}"
            )
        for name in ("audit", "refresh"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"{name} must be a bool, got {value!r}"
                )
        # Validates the channel/device counts exactly as the config
        # layer will; the instance itself is discarded.
        MemoryTopology(
            channels=self.channels, devices_per_channel=self.devices
        )
        organization = self.organization
        if (
            isinstance(organization, MemorySystemConfig)
            and not organization.topology.single
        ):
            # A config carrying its own topology decomposes into the
            # channels/devices fields so equal work hashes equally
            # however the caller spelled it.
            if (self.channels, self.devices) not in (
                (1, 1),
                (
                    organization.topology.channels,
                    organization.topology.devices_per_channel,
                ),
            ):
                raise ConfigurationError(
                    "conflicting topologies: spec says "
                    f"{self.channels}x{self.devices}, config says "
                    f"{organization.topology.describe()}"
                )
            object.__setattr__(
                self, "channels", organization.topology.channels
            )
            object.__setattr__(
                self, "devices", organization.topology.devices_per_channel
            )
            organization = dataclasses.replace(
                organization, topology=MemoryTopology()
            )
        memory = canonical_memory(
            organization, self.interleaving, self.page_policy
        )
        for name, value in zip(
            ("organization", "interleaving", "page_policy"), memory
        ):
            object.__setattr__(self, name, value)
        kernel = self.kernel
        if not isinstance(kernel, Kernel):
            kernel = get_kernel(kernel)
        if KERNELS.get(kernel.name) == kernel:
            object.__setattr__(self, "kernel", kernel.name)
        # As placement checks them, on the kernel's first stream.
        check_extent(kernel.streams[0].name, self.length, self.stride)
        alignment = self.alignment
        if isinstance(alignment, Alignment):
            object.__setattr__(self, "alignment", alignment.value)
        else:
            name = str(alignment).lower()
            names = [member.value for member in Alignment]
            if name not in names:
                raise ConfigurationError(
                    f"unknown alignment {alignment!r}; use one of {names}"
                )
            object.__setattr__(self, "alignment", name)
        policy = self.policy
        if not isinstance(policy, SchedulingPolicy):
            resolve_policy(policy)
        elif type(policy) is POLICIES.get(policy.name):
            object.__setattr__(self, "policy", policy.name)

    def to_dict(self) -> Dict[str, Any]:
        """This spec as a JSON-safe dict (inverse of :meth:`from_dict`).

        Raises:
            ConfigurationError: If the spec holds a custom policy
                instance, which has no serializable form.
        """
        kernel: Any = self.kernel
        if isinstance(kernel, Kernel):
            kernel = _kernel_to_dict(kernel)
        organization: Any = self.organization
        if isinstance(organization, MemorySystemConfig):
            organization = _config_to_dict(organization)
        policy = self.policy
        if isinstance(policy, SchedulingPolicy):
            raise ConfigurationError(
                f"policy instance {type(policy).__name__} (name "
                f"{policy.name!r}) is not in the POLICIES registry and "
                "cannot be serialized; register the class or pass the "
                "policy by name"
            )
        data = {
            "kernel": kernel,
            "organization": organization,
            "length": self.length,
            "fifo_depth": self.fifo_depth,
            "stride": self.stride,
            "alignment": self.alignment,
            "policy": policy,
            "audit": self.audit,
            "refresh": self.refresh,
        }
        # None overrides are omitted (not serialized as null) so that
        # canonical cache keys from before these fields existed are
        # unchanged.
        if self.interleaving is not None:
            data["interleaving"] = self.interleaving
        if self.page_policy is not None:
            data["page_policy"] = self.page_policy
        if self.telemetry_window is not None:
            data["telemetry_window"] = self.telemetry_window
        # Default 1x1 topology is omitted so canonical cache keys from
        # before these fields existed are unchanged (and stay valid).
        if self.channels != 1:
            data["channels"] = self.channels
        if self.devices != 1:
            data["devices"] = self.devices
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec from a :meth:`to_dict` dict.

        Keys that are not fields are dropped, so dicts written by
        older versions (an ``"engine"`` key, say) still load.
        """
        kernel = data["kernel"]
        if isinstance(kernel, Mapping):
            kernel = _kernel_from_dict(kernel)
        organization = data["organization"]
        if isinstance(organization, Mapping):
            organization = _config_from_dict(organization)
        names = {f.name for f in dataclasses.fields(cls)}
        rest = {
            k: v for k, v in data.items()
            if k in names and k not in ("kernel", "organization")
        }
        return cls(kernel=kernel, organization=organization, **rest)

    def canonical_key(self) -> str:
        """A deterministic string identifying this simulation.

        Two specs describing the same work — however their kernel,
        organization, or policy was originally spelled — produce the
        same key.  This is what the result cache hashes.
        ``telemetry_window`` is excluded: sampling never changes the
        simulated outcome, so a windowed spec shares the plain spec's
        cache entry.
        """
        data = self.to_dict()
        data.pop("telemetry_window", None)
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def describe(self) -> str:
        """Short human-readable label (for progress lines and errors)."""
        kernel = self.kernel.name if isinstance(self.kernel, Kernel) else self.kernel
        org = (
            self.organization
            if isinstance(self.organization, str)
            else self.organization.describe()
        )
        return (
            f"{kernel}/{org} L={self.length} f={self.fifo_depth} "
            f"stride={self.stride} {self.alignment}"
            + (f" policy={self.policy}" if self.policy is not None else "")
            + (
                f" interleaving={self.interleaving}"
                if self.interleaving is not None else ""
            )
            + (
                f" page_policy={self.page_policy}"
                if self.page_policy is not None else ""
            )
            + (
                f" topo={self.channels}x{self.devices}"
                if (self.channels, self.devices) != (1, 1) else ""
            )
        )


def simulate(
    spec: RunSpec, obs: Optional[Instrumentation] = None
) -> SimulationResult:
    """Run the simulation a :class:`RunSpec` describes.

    This is the package's single simulation entry point.  An
    uninstrumented run whose configuration
    :func:`~repro.sim.batch.batch_unsupported_reason` accepts runs on
    the batch loop, and every other run on the event kernel.  Both
    produce bit-identical results.

    If a result cache is active (via
    :func:`repro.exec.context.execution`) and holds this spec, the
    stored result is returned without simulating; fresh results are
    stored back.  :func:`~repro.exec.pool.run_specs` masks that cache
    for the points it simulates, since it reads and writes their
    entries itself.  Instrumented runs (``obs`` given) always
    simulate, since a cached result carries no event record.

    Args:
        spec: The full run specification.
        obs: Optional :class:`~repro.obs.core.Instrumentation` to
            record counters, spans and DATA-bus gaps for this run.

    Returns:
        The simulation result, including percent-of-peak bandwidth.
    """
    cache = None
    if obs is None:
        from repro.exec.context import active_cache

        cache = active_cache()
        if cache is not None:
            hit = cache.get(spec)
            if hit is not None:
                return hit
    elif spec.telemetry_window is not None and obs.telemetry_window is None:
        # The spec carries the sampling request; an explicitly windowed
        # Instrumentation wins over the spec's setting.
        obs.telemetry_window = spec.telemetry_window
    kernel_obj = (
        get_kernel(spec.kernel) if isinstance(spec.kernel, str) else spec.kernel
    )
    config = apply_policy_overrides(
        resolve_config(spec.organization),
        interleaving=spec.interleaving,
        page_policy=spec.page_policy,
    )
    if (spec.channels, spec.devices) != (1, 1):
        config = dataclasses.replace(
            config,
            topology=MemoryTopology(
                channels=spec.channels, devices_per_channel=spec.devices
            ),
        )
    if config.topology.channels > 1 and obs is not None:
        raise ConfigurationError(
            "stall attribution and telemetry assume a single DATA "
            "bus; run multi-channel specs without instrumentation"
        )
    if obs is None and batch_unsupported_reason(
        config, policy=spec.policy, audit=spec.audit
    ) is None:
        result = run_smc_batch(
            kernel_obj,
            config,
            length=spec.length,
            fifo_depth=spec.fifo_depth,
            stride=spec.stride,
            alignment=Alignment(spec.alignment),
            refresh=spec.refresh,
        )
    else:
        system = build_smc_system(
            kernel_obj,
            config,
            length=spec.length,
            fifo_depth=spec.fifo_depth,
            stride=spec.stride,
            alignment=Alignment(spec.alignment),
            policy=resolve_policy(spec.policy),
            record_trace=spec.audit,
            refresh=spec.refresh,
        )
        result = run_smc(system, audit=spec.audit, obs=obs)
    if cache is not None:
        cache.put(spec, result)
    return result
