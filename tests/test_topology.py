"""Tests for the N-channel x M-device memory topology.

Covers the :class:`~repro.memsys.config.MemoryTopology` configuration
surface, the channel-striping address-mapping composition (with
hypothesis bijection properties over random topologies), the
:class:`~repro.rdram.fabric.MemoryFabric` routing layer, the
:class:`~repro.sim.runner.RunSpec` topology fields (including
canonical-cache-key stability for the default topology), and the
gate that lets multi-device and multi-channel SMC runs take the batch
loop, with results equal to the event kernel's.

``tests/data/pinned_topology_identity.json`` was captured from the
simulator *before* the topology refactor: every result field for all
five controllers on the default single-channel system.  The identity
tests prove the refactor changed nothing at N=1/M=1 — any drift in
any field is a behavioral regression, not noise.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.controller import CachedNaturalOrderController
from repro.core.l2stream import L2StreamingController
from repro.core.smc import build_smc_system
from repro.cpu.kernels import DAXPY, PAPER_KERNELS
from repro.errors import ConfigurationError
from repro.memsys.address import get_address_mapping
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.naturalorder.controller import NaturalOrderController
from repro.naturalorder.random_driver import RandomAccessDriver
from repro.rdram.audit import audit_memory
from repro.rdram.channel import ChannelGeometry, RambusChannel, make_memory
from repro.rdram.device import RdramGeometry
from repro.rdram.fabric import FabricGeometry, MemoryFabric
from repro.rdram.timing import DATA_PACKET_BYTES
from repro.sim.batch import batch_unsupported_reason, run_smc_batch
from repro.sim.engine import run_smc
from repro.sim.runner import RunSpec, simulate

FIXTURE = Path(__file__).parent / "data" / "pinned_topology_identity.json"

LENGTH = 128
FIFO_DEPTH = 32

ORGS = {
    "cli": MemorySystemConfig.cli,
    "pi": MemorySystemConfig.pi,
}


class TestMemoryTopology:
    def test_defaults_are_single(self):
        topology = MemoryTopology()
        assert topology.single
        assert (topology.channels, topology.devices_per_channel) == (1, 1)

    def test_describe(self):
        assert MemoryTopology(2, 4).describe() == "2ch x 4dev"

    @pytest.mark.parametrize("bad", [0, -1, 17, True, 2.0, "2"])
    def test_rejects_bad_channels(self, bad):
        with pytest.raises(ConfigurationError):
            MemoryTopology(channels=bad)

    @pytest.mark.parametrize("bad", [0, -3, 33, False, 1.5])
    def test_rejects_bad_devices(self, bad):
        with pytest.raises(ConfigurationError):
            MemoryTopology(devices_per_channel=bad)


class TestConfigTopology:
    def test_default_config_is_single(self, cli_config):
        assert cli_config.topology.single
        assert cli_config.banks_per_channel == cli_config.geometry.num_banks
        assert cli_config.total_banks == cli_config.geometry.num_banks

    def test_multi_channel_bank_and_capacity_math(self):
        config = MemorySystemConfig.cli(
            topology=MemoryTopology(channels=2, devices_per_channel=2)
        )
        assert config.banks_per_channel == 2 * config.geometry.num_banks
        assert config.total_banks == 4 * config.geometry.num_banks
        assert (
            config.total_capacity_bytes
            == 4 * config.geometry.capacity_bytes
        )

    def test_describe_prefixes_topology(self):
        single = MemorySystemConfig.cli()
        multi = MemorySystemConfig.cli(
            topology=MemoryTopology(channels=2, devices_per_channel=2)
        )
        assert not single.describe().startswith("1ch")
        assert multi.describe().startswith("2ch x 2dev, ")
        assert multi.describe().endswith(single.describe())

    def test_topology_must_be_memory_topology(self):
        with pytest.raises(ConfigurationError):
            MemorySystemConfig.cli(topology=(2, 2))

    def test_topology_rejects_channel_geometry(self):
        with pytest.raises(ConfigurationError):
            MemorySystemConfig.cli(
                geometry=ChannelGeometry(num_devices=2),
                topology=MemoryTopology(channels=2),
            )

    def test_channel_geometry_property_wraps_devices(self):
        config = MemorySystemConfig.cli(
            topology=MemoryTopology(channels=2, devices_per_channel=4)
        )
        per_channel = config.channel_geometry
        assert isinstance(per_channel, ChannelGeometry)
        assert per_channel.num_devices == 4


class TestChannelGeometryValidation:
    @pytest.mark.parametrize("bad", [0, -1, 33, True, 2.5])
    def test_rejects_bad_device_count(self, bad):
        with pytest.raises(ConfigurationError):
            ChannelGeometry(num_devices=bad)

    def test_rejects_nested_channels(self):
        with pytest.raises(ConfigurationError):
            ChannelGeometry(num_devices=2, device=ChannelGeometry())

    def test_exposes_consistent_capacity(self):
        device = RdramGeometry()
        channel = ChannelGeometry(num_devices=4, device=device)
        assert channel.capacity_bytes == 4 * device.capacity_bytes
        assert channel.num_banks == 4 * device.num_banks


# Small enough to keep hypothesis fast, large enough to cross every
# branch: single/multi channel x single/multi device x both orgs.
topologies = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=2),
)


class TestChannelStriping:
    @staticmethod
    def _mapping(org, channels, devices):
        config = ORGS[org](
            topology=MemoryTopology(
                channels=channels, devices_per_channel=devices
            )
        )
        return get_address_mapping(config)

    @pytest.mark.parametrize("org", sorted(ORGS))
    @given(topology=topologies, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_decompose_compose_roundtrip(self, org, topology, data):
        mapping = self._mapping(org, *topology)
        address = data.draw(
            st.integers(min_value=0, max_value=mapping.capacity_bytes - 1)
        )
        location = mapping.decompose(address)
        offset = address % DATA_PACKET_BYTES
        assert mapping.compose(location, offset) == address

    @pytest.mark.parametrize("org", sorted(ORGS))
    @given(topology=topologies, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_channel_of_matches_bank_ownership(self, org, topology, data):
        mapping = self._mapping(org, *topology)
        address = data.draw(
            st.integers(min_value=0, max_value=mapping.capacity_bytes - 1)
        )
        channel = mapping.channel_of(address)
        assert 0 <= channel < topology[0]
        bank = mapping.decompose(address).bank
        assert mapping.channel_of_bank(bank) == channel

    def test_consecutive_lines_stripe_round_robin(self):
        mapping = self._mapping("cli", 4, 1)
        line = mapping.config.cacheline_bytes
        channels = [mapping.channel_of(i * line) for i in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_capacity_scales_with_topology(self, cli_config):
        mapping = self._mapping("cli", 4, 2)
        assert (
            mapping.capacity_bytes
            == 8 * cli_config.geometry.capacity_bytes
        )

    def test_single_channel_config_keeps_plain_mapping(self, cli_config):
        mapping = get_address_mapping(cli_config)
        assert mapping.channels == 1
        assert mapping.channel_of(0) == 0


_TWO_CHANNELS = MemorySystemConfig(topology=MemoryTopology(channels=2))


class TestMemoryFabric:
    def test_fabric_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            FabricGeometry(channels=0, channel=RdramGeometry())
        with pytest.raises(ConfigurationError):
            FabricGeometry(channels=2, channel="not-a-geometry")

    def test_neighbors_never_cross_channels(self):
        geometry = FabricGeometry(
            channels=2, channel=RdramGeometry(doubled_banks=True)
        )
        per_channel = geometry.banks_per_channel
        for bank in range(geometry.num_banks):
            for neighbor in geometry.neighbors(bank):
                assert geometry.channel_of(neighbor) == geometry.channel_of(
                    bank
                )
        # Last bank of channel 0 and first of channel 1 are adjacent
        # indices but must not share sense amps.
        assert per_channel not in geometry.neighbors(per_channel - 1)

    def test_make_memory_builds_fabric(self):
        memory = make_memory(
            MemorySystemConfig(
                topology=MemoryTopology(channels=2, devices_per_channel=1)
            )
        )
        assert isinstance(memory, MemoryFabric)
        assert len(memory.channel_memories) == 2

    def test_routing_isolates_channels(self):
        fabric = make_memory(_TWO_CHANNELS)
        per_channel = fabric.geometry.banks_per_channel
        from repro.rdram.packets import BusDirection

        fabric.issue_access(0, 0, 0, 0, BusDirection.READ)
        fabric.issue_access(per_channel, 0, 0, 0, BusDirection.READ)
        first, second = fabric.channel_bytes()
        assert first == second > 0
        assert fabric.bytes_transferred == first + second

    def test_out_of_range_bank_rejected(self):
        from repro.errors import ProtocolError

        fabric = make_memory(_TWO_CHANNELS)
        with pytest.raises(ProtocolError):
            fabric.bank(fabric.geometry.num_banks)

    def test_shared_page_manager_rejected(self):
        fabric = make_memory(_TWO_CHANNELS)
        with pytest.raises(ConfigurationError):
            fabric.page_manager = object()


class TestRunSpecTopology:
    def test_default_topology_keeps_old_canonical_key(self):
        spec = RunSpec(kernel=DAXPY, organization="cli", length=64)
        payload = spec.to_dict()
        assert "channels" not in payload
        assert "devices" not in payload

    def test_topology_fields_enter_the_key(self):
        spec = RunSpec(
            kernel=DAXPY, organization="cli", length=64, channels=2, devices=2
        )
        payload = spec.to_dict()
        assert payload["channels"] == 2
        assert payload["devices"] == 2
        assert "topo=2x2" in spec.describe()

    def test_config_topology_decomposes_to_the_same_key(self):
        config = MemorySystemConfig.cli(
            topology=MemoryTopology(channels=2, devices_per_channel=2)
        )
        via_config = RunSpec(kernel=DAXPY, organization=config, length=64)
        via_fields = RunSpec(
            kernel=DAXPY, organization="cli", length=64, channels=2, devices=2
        )
        assert via_config.canonical_key() == via_fields.canonical_key()

    def test_conflicting_topologies_rejected(self):
        config = MemorySystemConfig.cli(
            topology=MemoryTopology(channels=2, devices_per_channel=2)
        )
        with pytest.raises(ConfigurationError):
            RunSpec(kernel=DAXPY, organization=config, length=64, channels=4)

    def test_multi_channel_refuses_instrumentation(self):
        from repro.obs import Instrumentation

        with pytest.raises(ConfigurationError):
            simulate(
                RunSpec(
                    kernel=DAXPY, organization="cli", length=64, channels=2
                ),
                obs=Instrumentation(),
            )


class TestPerChannelAudit:
    """``audit=True`` audits each channel against its own geometry."""

    @pytest.mark.parametrize("org", ["cli", "pi"])
    @pytest.mark.parametrize(
        "channels,devices", [(1, 2), (1, 4), (2, 1), (2, 2)]
    )
    def test_simulate_audits_each_channel(self, org, channels, devices):
        result = simulate(
            RunSpec(
                kernel=DAXPY,
                organization=org,
                length=1024,
                channels=channels,
                devices=devices,
                audit=True,
                refresh=True,
            )
        )
        assert result.refreshes > 0


def _kernel_run(controller):
    return controller.run(DAXPY, length=512)


#: Each line controller class, with a short run of it.
LINE_CONTROLLERS = {
    "natural-order": (NaturalOrderController, _kernel_run),
    "cached-natural-order": (CachedNaturalOrderController, _kernel_run),
    "l2-streaming": (L2StreamingController, _kernel_run),
    "random-access": (
        RandomAccessDriver,
        lambda driver: driver.run(512, write_fraction=0.4, seed=3),
    ),
}


class TestLineControllersOnTopology:
    @pytest.mark.parametrize("org", ["cli", "pi"])
    @pytest.mark.parametrize("name", sorted(LINE_CONTROLLERS))
    def test_runs_on_a_multi_device_channel(self, name, org):
        cls, run = LINE_CONTROLLERS[name]
        config = getattr(MemorySystemConfig, org)(
            topology=MemoryTopology(devices_per_channel=2)
        )
        controller = cls(config, record_trace=True, refresh=True)
        assert isinstance(controller.device, RambusChannel)
        assert run(controller).transferred_bytes > 0
        assert controller.refreshes_issued > 0
        (report,) = audit_memory(controller.device)
        assert report.col_packets > 0

    @pytest.mark.parametrize("name", sorted(LINE_CONTROLLERS))
    def test_multi_channel_rejected(self, name):
        cls, _ = LINE_CONTROLLERS[name]
        config = MemorySystemConfig.cli(topology=MemoryTopology(channels=2))
        with pytest.raises(ConfigurationError, match=cls.__name__) as error:
            cls(config)
        assert "simulate()" in str(error.value)
        assert "run_traffic()" in str(error.value)


class TestEngineGates:
    def test_batch_runs_multi_device_and_multi_channel(self):
        for channels, devices in ((2, 2), (1, 4)):
            config = MemorySystemConfig.cli(
                topology=MemoryTopology(channels, devices)
            )
            assert batch_unsupported_reason(config) is None
            event = run_smc(build_smc_system(
                DAXPY, config, length=256, fifo_depth=64, refresh=True
            ))
            batch = run_smc_batch(
                DAXPY, config, length=256, fifo_depth=64, refresh=True
            )
            assert event == batch
            assert simulate(RunSpec(
                kernel=DAXPY, organization="cli", length=256,
                channels=channels, devices=devices, refresh=True,
            )) == batch

    def test_batch_accepts_default_topology(self, cli_config):
        assert batch_unsupported_reason(cli_config) is None


class TestMultiChannelRuns:
    def test_channel_bytes_sum_to_transferred(self):
        result = simulate(
            RunSpec(
                kernel=DAXPY, organization="cli", length=128, channels=4
            )
        )
        assert result.channels == 4
        assert len(result.channel_transferred_bytes) == 4
        assert (
            sum(result.channel_transferred_bytes) == result.transferred_bytes
        )
        assert sum(result.channel_shares) == pytest.approx(1.0)

    def test_striping_balances_channels(self):
        result = simulate(
            RunSpec(
                kernel=DAXPY, organization="cli", length=128, channels=2
            )
        )
        first, second = result.channel_transferred_bytes
        assert first == second

    def test_percent_of_peak_scales_with_channels(self):
        single = simulate(
            RunSpec(kernel=DAXPY, organization="cli", length=128)
        )
        quad = simulate(
            RunSpec(
                kernel=DAXPY, organization="cli", length=128, channels=4
            )
        )
        # The serial SMC cannot saturate four DATA buses; the peak
        # denominator scales, so the percentage must drop well below
        # the single-channel figure.
        assert quad.percent_of_peak < 0.5 * single.percent_of_peak
        assert single.channels == 1 and quad.channels == 4


class TestSingleChannelIdentity:
    """Explicit 1x1 topology must be bit-identical to the default."""

    def test_event_results_equal(self):
        default = simulate(
            RunSpec(kernel=DAXPY, organization="cli", length=64)
        )
        explicit = simulate(
            RunSpec(
                kernel=DAXPY,
                organization="cli",
                length=64,
                channels=1,
                devices=1,
            )
        )
        assert default == explicit

    def test_canonical_keys_equal(self):
        default = RunSpec(kernel=DAXPY, organization="cli", length=64)
        explicit = RunSpec(
            kernel=DAXPY, organization="cli", length=64, channels=1, devices=1
        )
        assert default.canonical_key() == explicit.canonical_key()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def _assert_matches(result, want):
    got = dataclasses.asdict(result)
    mismatches = {
        field: (got[field], value)
        for field, value in want.items()
        if got[field] != value
    }
    assert not mismatches, mismatches


@pytest.mark.parametrize("org", sorted(ORGS))
@pytest.mark.parametrize("kernel_name", sorted(PAPER_KERNELS))
class TestPinnedTopologyIdentity:
    """All five controllers at N=1/M=1, against pre-refactor values."""

    def test_smc(self, pinned, org, kernel_name):
        result = run_smc(
            build_smc_system(
                PAPER_KERNELS[kernel_name],
                ORGS[org](),
                length=LENGTH,
                fifo_depth=FIFO_DEPTH,
            )
        )
        _assert_matches(result, pinned[f"smc/{org}/{kernel_name}"])

    def test_natural_order(self, pinned, org, kernel_name):
        result = NaturalOrderController(ORGS[org]()).run(
            PAPER_KERNELS[kernel_name], length=LENGTH
        )
        _assert_matches(result, pinned[f"natural/{org}/{kernel_name}"])

    def test_cached(self, pinned, org, kernel_name):
        result = CachedNaturalOrderController(ORGS[org]()).run(
            PAPER_KERNELS[kernel_name], length=LENGTH
        )
        _assert_matches(result, pinned[f"cached/{org}/{kernel_name}"])

    def test_l2_streaming(self, pinned, org, kernel_name):
        result = L2StreamingController(ORGS[org]()).run(
            PAPER_KERNELS[kernel_name], length=LENGTH
        )
        _assert_matches(result, pinned[f"l2/{org}/{kernel_name}"])


@pytest.mark.parametrize("org", sorted(ORGS))
def test_pinned_random_driver_identity(pinned, org):
    result = RandomAccessDriver(ORGS[org]()).run(
        64, write_fraction=0.25, seed=7
    )
    _assert_matches(result, pinned[f"random/{org}/uniform"])


def test_pinned_fixture_covers_the_full_matrix(pinned):
    expected = {
        f"{controller}/{org}/{kernel}"
        for controller in ("smc", "natural", "cached", "l2")
        for org in ORGS
        for kernel in PAPER_KERNELS
    } | {f"random/{org}/uniform" for org in ORGS}
    assert set(pinned) == expected
