"""CLI coverage for the policy-layer flags on both console scripts."""

from __future__ import annotations

import json

import pytest

from repro.experiments import policy_matrix
from repro.experiments.cli import main as experiments_main
from repro.search.cli import main as search_main
from repro.sim.cli import main as simulate_main


class TestSimulateCli:
    def test_list_policies(self, capsys):
        # One unified listing across every registry: mappings (incl.
        # the stateful dream map), page policies, MSU policies and
        # traffic schedulers.
        assert simulate_main(["--list-policies"]) == 0
        out = capsys.readouterr().out
        for name in ("cli", "pi", "swizzle", "dream", "closed", "open",
                     "timeout", "hybrid", "round-robin",
                     "fcfs", "frfcfs", "mars"):
            assert name in out
        for section in ("address mappings", "page policies",
                        "traffic schedulers"):
            assert section in out

    def test_kernel_required_without_list(self, capsys):
        assert simulate_main([]) == 1
        assert "kernel" in capsys.readouterr().err

    def test_unknown_page_policy_lists_names(self, capsys):
        assert simulate_main(["daxpy", "--page-policy", "zorp"]) == 1
        err = capsys.readouterr().err
        assert "zorp" in err and "timeout" in err

    def test_override_flags_change_the_run(self, capsys):
        assert simulate_main(
            ["daxpy", "--org", "cli", "--length", "64",
             "--fifo-depth", "16", "--page-policy", "open"]
        ) == 0
        out = capsys.readouterr().out
        assert "CLI / open-page" in out

    def test_stats_reports_the_access_mix(self, capsys):
        assert simulate_main(
            ["daxpy", "--org", "pi", "--length", "64",
             "--fifo-depth", "16", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "row buffer" in out
        assert "access mix" in out
        assert "page hits" in out

    def test_json_reports_the_access_mix(self, capsys):
        assert simulate_main(
            ["copy", "--org", "pi", "--length", "64",
             "--fifo-depth", "16", "--json",
             "--interleaving", "swizzle"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        mix = report["access_mix"]
        assert mix["page_hits"] + mix["page_misses"] > 0
        assert 0.0 <= mix["page_hit_rate"] <= 1.0
        assert report["result"]["page_hits"] == mix["page_hits"]


@pytest.fixture
def reset_matrix_filters():
    yield
    policy_matrix.configure(None, None)


class TestExperimentsCli:
    def test_list_policies(self, capsys):
        assert experiments_main(["--list-policies"]) == 0
        out = capsys.readouterr().out
        assert "swizzle" in out
        assert "traffic schedulers" in out

    def test_policy_matrix_filters(self, capsys, reset_matrix_filters):
        assert experiments_main(
            ["policy_matrix", "--interleaving", "swizzle",
             "--page-policy", "timeout"]
        ) == 0
        out = capsys.readouterr().out
        assert "swizzle" in out
        assert "timeout" in out
        assert "ran 2 tables" in out

    def test_unknown_filter_name_fails_with_the_registry(
        self, capsys, reset_matrix_filters
    ):
        with pytest.raises(SystemExit, match="swizzle"):
            experiments_main(["policy_matrix", "--interleaving", "zorp"])


class TestSearchCli:
    SMALL = ["--generations", "1", "--population", "2",
             "--elites", "1", "--length", "64"]

    def test_summary_output(self, capsys):
        assert search_main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "gen 0: best" in out
        assert "winner:" in out

    def test_json_output(self, capsys, tmp_path):
        assert search_main(
            self.SMALL + ["--json", "--cache", str(tmp_path / "cache")]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["winner"]["genome"]
        assert len(report["generations"]) == 1

    def test_bad_config_is_a_clean_error(self, capsys):
        assert search_main(["--generations", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "generation" in err
