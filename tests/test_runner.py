"""Tests for the one-call simulation API."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.core.policies import BankAwarePolicy
from repro.memsys.config import Interleaving, MemorySystemConfig
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
        assert resolve_config("cli").interleaving is Interleaving.CACHELINE
        assert resolve_config("PI").interleaving is Interleaving.PAGE

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
