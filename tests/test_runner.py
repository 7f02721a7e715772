"""Tests for the one-call simulation API."""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, StreamError
from repro.core.policies import BankAwarePolicy
from repro.memsys.address import MAPPINGS
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.memsys.pagemanager import PAGE_POLICIES
from repro.rdram.channel import ChannelGeometry
from repro.rdram.device import RdramGeometry
from repro.sim import runner
from repro.sim.runner import (
    ORGANIZATIONS,
    RunSpec,
    resolve_config,
    resolve_policy,
    simulate,
)


class TestResolvers:
    def test_named_organizations(self):
        assert set(ORGANIZATIONS) == {"cli", "pi"}
        assert resolve_config("cli").interleaving == "cli"
        assert resolve_config("PI").interleaving == "pi"

    def test_config_passthrough(self):
        config = MemorySystemConfig.cli(cacheline_bytes=64)
        assert resolve_config(config) is config

    def test_unknown_organization(self):
        with pytest.raises(ConfigurationError, match="unknown organization"):
            resolve_config("numa")

    def test_policy_by_name(self):
        assert resolve_policy("bank-aware").name == "bank-aware"

    def test_policy_passthrough_and_default(self):
        policy = BankAwarePolicy()
        assert resolve_policy(policy) is policy
        assert resolve_policy(None) is None

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            resolve_policy("fifo-first")


class TestSimulateKernel:
    def test_by_name(self):
        result = simulate(RunSpec("copy", "cli", length=64, fifo_depth=16))
        assert result.kernel == "copy"
        assert result.fifo_depth == 16
        assert result.length == 64

    def test_alignment_strings(self):
        aligned = simulate(RunSpec(
            "copy", "pi", length=64, fifo_depth=8, alignment="aligned"
        ))
        assert aligned.alignment == "aligned"

    def test_bad_alignment_string(self):
        with pytest.raises(
            ConfigurationError, match="alignment 'diagonal'.*aligned"
        ):
            simulate(RunSpec("copy", "cli", length=64, fifo_depth=8,
                            alignment="diagonal"))

    def test_policy_string(self):
        result = simulate(RunSpec(
            "daxpy", "pi", length=64, fifo_depth=16, policy="bank-aware"
        ))
        assert result.policy == "bank-aware"

    def test_audited_run(self):
        result = simulate(RunSpec("vaxpy", "cli", length=64, fifo_depth=16, audit=True))
        assert result.cycles > 0

    def test_unknown_kernel(self):
        from repro.errors import StreamError
        with pytest.raises(StreamError, match="unknown kernel"):
            simulate(RunSpec("fft", "cli"))

    def test_summary_renders(self):
        result = simulate(RunSpec("copy", "cli", length=64, fifo_depth=16))
        line = result.summary()
        assert "copy" in line and "% peak" in line

    def test_effective_bandwidth_scales_with_percent(self):
        result = simulate(RunSpec("copy", "pi", length=128, fifo_depth=32))
        assert result.effective_bandwidth_bytes_per_sec == pytest.approx(
            result.percent_of_peak / 100 * 1.6e9
        )


class TestOneSpelling:
    """Equal work is one spec with one key, however the memory is named."""

    @pytest.mark.parametrize(
        "spelled, respelled",
        [
            (
                RunSpec("daxpy", "cli", interleaving="swizzle",
                        page_policy="timeout"),
                RunSpec("daxpy", "pi", interleaving="swizzle",
                        page_policy="timeout"),
            ),
            (
                RunSpec("daxpy", "cli", interleaving="pi"),
                RunSpec("daxpy", "pi", page_policy="closed"),
            ),
            (
                RunSpec("daxpy", MemorySystemConfig.cli(page_timeout_cycles=128),
                        page_policy="timeout"),
                RunSpec("daxpy", MemorySystemConfig.cli(
                    page_timeout_cycles=128, page_policy="timeout"
                )),
            ),
            (
                RunSpec("daxpy", MemorySystemConfig.cli(
                    cacheline_bytes=64, interleaving="SWIZZLE"
                )),
                RunSpec("daxpy", MemorySystemConfig.cli(
                    cacheline_bytes=64, interleaving="swizzle"
                )),
            ),
        ],
        ids=[
            "pi-base-overrides", "pi-closed", "config-plus-override",
            "config-name-case",
        ],
    )
    def test_equal_work_shares_one_key(self, spelled, respelled):
        assert spelled == respelled
        assert spelled.canonical_key() == respelled.canonical_key()

    def test_names_start_from_cli(self):
        spec = RunSpec("daxpy", "pi", interleaving="swizzle")
        assert spec.organization == "cli"
        assert (spec.interleaving, spec.page_policy) == ("swizzle", "open")

    def test_config_with_overrides_folds_into_one_config(self):
        spec = RunSpec(
            "daxpy", MemorySystemConfig.cli(cacheline_bytes=64),
            interleaving="pi",
        )
        assert spec.organization == MemorySystemConfig.cli(
            cacheline_bytes=64, interleaving="pi"
        )
        assert spec.interleaving is None and spec.page_policy is None


class TestConstructionChecks:
    """A spec :func:`simulate` would reject fails when it is built."""

    @pytest.mark.parametrize(
        "fields, error, match",
        [
            ({"organization": "numa"}, ConfigurationError,
             "unknown organization 'numa'"),
            ({"interleaving": "zorp"},
             ConfigurationError, "unknown address mapping 'zorp'"),
            ({"page_policy": "zorp"},
             ConfigurationError, "unknown page policy 'zorp'"),
            ({"kernel": "fft"}, StreamError, "unknown kernel 'fft'"),
            ({"policy": "fifo-first"}, ConfigurationError,
             "unknown policy 'fifo-first'"),
            ({"refresh": "no"}, ConfigurationError,
             "refresh must be a bool, got 'no'"),
            ({"refresh": 0}, ConfigurationError,
             "refresh must be a bool, got 0"),
            ({"audit": 1}, ConfigurationError, "audit must be a bool, got 1"),
            ({"audit": None}, ConfigurationError,
             "audit must be a bool, got None"),
            ({"length": 64.0}, StreamError,
             "length must be an integer, got 64.0"),
            ({"length": True}, StreamError,
             "length must be an integer, got True"),
            ({"length": 0}, StreamError, "length must be positive"),
            ({"stride": "2"}, StreamError,
             "stride must be an integer, got '2'"),
            ({"stride": -1}, StreamError, "stride must be positive"),
            ({"fifo_depth": 0}, ConfigurationError,
             "fifo_depth must be at least 1, got 0"),
            ({"fifo_depth": -5}, ConfigurationError,
             "fifo_depth must be at least 1, got -5"),
        ],
        ids=[
            "organization", "config-mapping", "config-page-policy",
            "kernel", "policy", "refresh-str", "refresh-int", "audit-int",
            "audit-none", "length-float", "length-bool", "length-zero",
            "stride-str", "stride-negative", "fifo-depth-zero",
            "fifo-depth-negative",
        ],
    )
    def test_rejected_when_built(self, fields, error, match):
        with pytest.raises(error, match=match):
            RunSpec(**fields)

    def test_fifo_depth_the_plan_needs_is_checked_when_simulated(self):
        # A stride-1 unit carries two elements: the plan, not the spec,
        # knows that.
        spec = RunSpec("daxpy", length=64, fifo_depth=1)
        with pytest.raises(StreamError, match="smaller than a 2-element"):
            simulate(spec)


class _Built(Exception):
    """Carries the config :func:`simulate` hands to a loop."""


def _simulated_config(spec: RunSpec) -> MemorySystemConfig:
    """The config ``simulate(spec)`` would run, caught before it runs."""

    def capture(kernel, config, **kwargs):
        raise _Built(config)

    with mock.patch.object(runner, "run_smc_batch", capture), \
            mock.patch.object(runner, "build_smc_system", capture):
        with pytest.raises(_Built) as built:
            simulate(spec)
    return built.value.args[0]


GEOMETRIES = (
    RdramGeometry(),
    RdramGeometry(num_banks=16, doubled_banks=True),
    ChannelGeometry(num_devices=2),
)
TOPOLOGIES = (
    MemoryTopology(), MemoryTopology(channels=2),
    MemoryTopology(devices_per_channel=2), MemoryTopology(2, 2),
)


@st.composite
def memories(draw) -> MemorySystemConfig:
    geometry = draw(st.sampled_from(GEOMETRIES))
    return MemorySystemConfig(
        geometry=geometry,
        interleaving=draw(st.sampled_from(MAPPINGS.names())),
        page_policy=draw(st.sampled_from(PAGE_POLICIES.names())),
        page_timeout_cycles=draw(st.sampled_from((64, 128))),
        remap_epoch_accesses=draw(st.sampled_from((1024, 256))),
        # A ChannelGeometry already holds its devices.
        topology=(
            MemoryTopology() if isinstance(geometry, ChannelGeometry)
            else draw(st.sampled_from(TOPOLOGIES))
        ),
    )


class TestOneSpellingProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        memory=memories(),
        other_mapping=st.sampled_from(MAPPINGS.names()),
        other_policy=st.sampled_from(PAGE_POLICIES.names()),
    )
    def test_every_spelling_is_one_spec(
        self, memory, other_mapping, other_policy
    ):
        topology = memory.topology
        bare = dataclasses.replace(memory, topology=MemoryTopology())
        names = {
            "interleaving": memory.interleaving,
            "page_policy": memory.page_policy,
        }
        fields = {
            "channels": topology.channels,
            "devices": topology.devices_per_channel,
        }
        spellings = [
            RunSpec("daxpy", memory),
            RunSpec("daxpy", bare, **fields),
            RunSpec(
                "daxpy",
                dataclasses.replace(
                    bare, interleaving=other_mapping, page_policy=other_policy
                ),
                **names, **fields,
            ),
        ]
        cli = MemorySystemConfig.cli()
        if dataclasses.replace(
            bare, interleaving=cli.interleaving, page_policy=cli.page_policy
        ) == cli:
            spellings += [
                RunSpec("daxpy", org, **names, **fields)
                for org in ("cli", "PI")
            ]
        spec = spellings[0]
        for respelled in spellings[1:]:
            assert respelled == spec
            assert respelled.canonical_key() == spec.canonical_key()
        assert _simulated_config(spec) == memory
        assert RunSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=60, deadline=None)
    @given(first=memories(), second=memories())
    def test_different_memories_never_share_a_key(self, first, second):
        keys = [RunSpec("daxpy", m).canonical_key() for m in (first, second)]
        assert (keys[0] == keys[1]) == (first == second)
