"""Tests for the experiment harness (tables, figures, CLI)."""

from __future__ import annotations

import pytest

from repro.experiments import figure7, figure8, figure9, headline, tables, timelines
from repro.experiments.cli import collect, main
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.rendering import ExperimentTable, render_all


class TestRendering:
    def test_table_renders_title_and_rows(self):
        table = ExperimentTable("T", ("a", "b"))
        table.add_row(1, 2.5)
        text = table.render()
        assert "== T ==" in text
        assert "2.50" in text

    def test_csv(self):
        table = ExperimentTable("T", ("a", "b"))
        table.add_row(1, None)
        assert table.to_csv() == "a,b\n1,\n"

    def test_notes_rendered(self):
        table = ExperimentTable("T", ("a",), notes=["caveat"])
        assert "note: caveat" in table.render()

    def test_render_all_joins(self):
        tables_ = [ExperimentTable("A", ("x",)), ExperimentTable("B", ("y",))]
        text = render_all(tables_)
        assert "== A ==" in text and "== B ==" in text


class TestStaticTables:
    def test_figure1_rows(self):
        table = tables.figure1_table()
        assert len(table.rows) == 5
        names = [row[0] for row in table.rows]
        assert names[-1] == "Direct RDRAM"
        # Peak bandwidth column recovers 1600 MB/s for Direct RDRAM.
        assert table.rows[-1][-1] == 1600

    def test_figure2_rows(self):
        table = tables.figure2_table()
        assert len(table.rows) == 11
        by_name = {row[0]: row for row in table.rows}
        assert by_name["t_RAC"][2] == 20


class TestTimelines:
    def test_cli_timeline_act_spacing(self):
        timeline = timelines.three_stream_timeline("cli")
        # The figure's claim: successive load ACTs t_RR apart.
        assert timeline.act_spacings[0] == 8

    def test_pi_timeline_renders(self):
        timeline = timelines.three_stream_timeline("pi")
        assert "Figure 6" in timeline.table.title
        assert timeline.table.rows


class TestFigure7:
    def test_single_panel_structure(self):
        panel = figure7.run_panel(
            figure7.get_kernel("copy"), "cli", 128, depths=(8, 32)
        )
        assert panel.kernel == "copy"
        assert len(panel.table.rows) == 2
        depth, cache, combined, staggered, aligned = panel.table.rows[0]
        assert depth == 8
        assert 0 < cache < 100
        assert 0 < staggered <= 100

    def test_run_subset(self):
        panels = figure7.run(
            kernels=("copy",), organizations=("pi",), lengths=(128,),
            depths=(16,),
        )
        assert len(panels) == 1

    def test_default_dimensions(self):
        assert figure7.DEPTHS == (8, 16, 32, 64, 128)
        assert figure7.LENGTHS == (128, 1024)


class TestFigure8:
    def test_full_stride_axis(self):
        table = figure8.run()
        assert [row[0] for row in table.rows] == list(range(1, 33))

    def test_cli_flat_beyond_cacheline(self):
        table = figure8.run()
        tail = [row[1] for row in table.rows[3:]]
        assert all(v == pytest.approx(8.33, abs=0.01) for v in tail)


class TestFigure9:
    def test_small_run(self):
        table = figure9.run(strides=(4, 16), length=256, fifo_depth=32)
        assert len(table.rows) == 2
        for row in table.rows:
            assert all(0 <= value <= 100.0001 for value in row[1:])

    def test_cache_series_flat_beyond_line(self):
        table = figure9.run(strides=(8, 24), length=256, fifo_depth=32)
        assert table.rows[0][3] == table.rows[1][3]
        assert table.rows[0][4] == table.rows[1][4]


class TestHeadline:
    def test_tables_produced(self):
        results = headline.run()
        assert len(results) == 4
        bounds = results[0]
        # Paper vs ours for the four quoted bound values.
        for row in bounds.rows:
            assert row[2] == pytest.approx(row[1], abs=0.5)


class TestExtensionExperiments:
    def test_refresh_table_structure(self):
        from repro.experiments.refresh_ablation import run as run_refresh

        table = run_refresh(kernels=("copy",))
        assert len(table.rows) == 2
        for row in table.rows:
            assert row[5] > 0  # refreshes happened

    def test_doublebank_table_structure(self):
        from repro.experiments.doublebank import run as run_doublebank

        table = run_doublebank(kernels=("copy",))
        assert len(table.rows) == 2
        assert table.headers[2:] == (
            "8 independent", "16 double-bank", "16 independent"
        )

    def test_channel_table_structure(self):
        from repro.experiments.channel import run as run_channel

        table = run_channel(device_counts=(1, 2), transactions=200)
        assert [row[0] for row in table.rows] == [1, 2]
        assert table.rows[1][1] > table.rows[0][1]

    def test_cache_reality_tables(self):
        from repro.experiments.cache_reality import run as run_cache

        stride1, stride4 = run_cache(kernels=("copy",))
        assert "stride 1" in stride1.title
        assert "stride 4" in stride4.title
        for table in (stride1, stride4):
            assert len(table.rows) == 2

    def test_figure9_includes_smc_bound_column(self):
        table = figure9.run(strides=(4,), length=256, fifo_depth=32)
        assert table.headers[-1] == "SMC bound %"
        assert 0 < table.rows[0][-1] <= 100


class TestRegistry:
    def test_lists_every_experiment_in_paper_order(self):
        names = list(EXPERIMENTS)
        assert names[:3] == ["figure1", "figure2", "timelines"]
        assert set(names) == {
            "figure1", "figure2", "timelines", "figure7", "figure8",
            "figure9", "headline", "channel", "refresh", "doublebank",
            "cache", "l2", "fpm", "multi_client", "policy_matrix",
            "policy_search",
        }

    def test_cli_default_list_comes_from_registry(self, capsys):
        assert main(["--list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == list(EXPERIMENTS)

    def test_get_experiment_builds_named_tables(self):
        experiment = EXPERIMENTS.resolve("figure8")
        assert experiment.name == "figure8"
        assert experiment.description
        (slug, table), = experiment.build()
        assert slug == "figure8"
        assert isinstance(table, ExperimentTable)

    def test_registry_and_collect_agree(self):
        assert collect(["figure2"]) == EXPERIMENTS.resolve("figure2").build()


class TestCli:
    def test_collect_static(self):
        results = collect(["figure1", "figure2"])
        assert [slug for slug, __ in results] == ["figure1", "figure2"]

    def test_collect_extensions(self):
        results = collect(["refresh"])
        assert results[0][0] == "refresh"

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            collect(["figure99"])

    def test_main_writes_csv(self, tmp_path, capsys):
        assert main(["figure1", "--csv-dir", str(tmp_path)]) == 0
        assert (tmp_path / "figure1.csv").exists()
        captured = capsys.readouterr()
        assert "Figure 1" in captured.out
