"""Tests for RunSpec's interleaving/page-policy override fields."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.memsys.config import MemorySystemConfig
from repro.sim.runner import (
    RunSpec,
    apply_policy_overrides,
    simulate,
)


class TestNormalization:
    def test_redundant_overrides_collapse_to_none(self):
        spec = RunSpec(
            organization="cli", interleaving="cli", page_policy="closed"
        )
        assert spec == RunSpec(organization="cli")
        assert spec.canonical_key() == RunSpec(organization="cli").canonical_key()

    def test_any_letter_case_becomes_registry_names(self):
        spec = RunSpec(interleaving="SWIZZLE", page_policy="Hybrid")
        assert spec.interleaving == "swizzle"
        assert spec.page_policy == "hybrid"

    def test_overrides_reaching_another_named_org_collapse(self):
        spec = RunSpec(
            organization="cli", interleaving="pi", page_policy="open"
        )
        assert spec.organization == "pi"
        assert spec.interleaving is None and spec.page_policy is None
        assert spec.canonical_key() == RunSpec(organization="pi").canonical_key()

    def test_custom_config_decomposes_to_name_plus_overrides(self):
        config = dataclasses.replace(
            MemorySystemConfig.cli(), page_policy="timeout"
        )
        spec = RunSpec(organization=config)
        assert spec.organization == "cli"
        assert spec.interleaving is None
        assert spec.page_policy == "timeout"

    def test_unknown_names_raise_with_the_registry_listed(self):
        with pytest.raises(ConfigurationError, match="swizzle"):
            RunSpec(interleaving="zorp")
        with pytest.raises(ConfigurationError, match="timeout"):
            RunSpec(page_policy="zorp")


class TestSerialization:
    def test_none_overrides_keep_historical_canonical_keys(self):
        data = RunSpec().to_dict()
        assert "interleaving" not in data
        assert "page_policy" not in data

    def test_round_trip(self):
        spec = RunSpec(
            kernel="copy",
            organization="pi",
            length=128,
            fifo_depth=32,
            interleaving="swizzle",
            page_policy="timeout",
        )
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.canonical_key() == spec.canonical_key()

    def test_describe_mentions_the_overrides(self):
        spec = RunSpec(interleaving="swizzle", page_policy="hybrid")
        assert "interleaving=swizzle" in spec.describe()
        assert "page_policy=hybrid" in spec.describe()


class TestSimulateOverrides:
    def test_override_matches_the_equivalent_custom_config(self):
        via_override = simulate(
            RunSpec(
                kernel="daxpy",
                organization="cli",
                length=64,
                fifo_depth=16,
                page_policy="timeout",
            )
        )
        config = dataclasses.replace(
            MemorySystemConfig.cli(), page_policy="timeout"
        )
        direct = simulate(RunSpec(
            "daxpy", config, length=64, fifo_depth=16
        ))
        assert via_override == direct

    def test_apply_policy_overrides_replaces_only_what_is_given(self):
        base = MemorySystemConfig.cli()
        assert apply_policy_overrides(base) is base
        swapped = apply_policy_overrides(base, page_policy="open")
        assert swapped.page_policy == "open"
        assert swapped.interleaving == "cli"

    def test_run_spec_accepts_override_kwargs(self):
        result = simulate(RunSpec(
            "copy",
            "pi",
            length=64,
            fifo_depth=16,
            interleaving="swizzle",
            page_policy="hybrid",
        ))
        assert result.cycles > 0
