"""Tests for the experiment harness (small-scale figure/table runs)."""

import pytest

from repro.experiments import fig2_spark, fig3_aggregates, fig4_breakdown, tables_msr
from repro.experiments.configs import (
    EVALUATION_SEEDS,
    ITERATIONS,
    JOB_CONFIG_NAMES,
    PROFILE_NAMES,
    default_engine_config,
)
from repro.experiments.grid import Bars, Table, render, run_grids, speedup
from repro.experiments.runner import (
    CellSpec,
    ResultSet,
    expand_matrix,
    run_cell,
    run_matrix,
)


class TestConfigs:
    def test_matrix_dimensions_match_paper(self):
        assert len(PROFILE_NAMES) == 4
        assert len(JOB_CONFIG_NAMES) == 5
        assert ITERATIONS == 3

    def test_engine_config_disables_trace_for_bulk_runs(self):
        assert default_engine_config(1).trace is False


class TestCellSpec:
    def test_with_scheduler_kwargs_merges(self):
        spec = CellSpec(scheduler="bidding", workload="80%_large", profile="all-equal", seed=1)
        updated = spec.with_scheduler_kwargs(window_s=0.5)
        updated = updated.with_scheduler_kwargs(window_s=2.0, bid_compute_s=0.0)
        kwargs = dict(updated.scheduler_kwargs)
        assert kwargs == {"window_s": 2.0, "bid_compute_s": 0.0}

    def test_run_cell_returns_one_result_per_iteration(self):
        spec = CellSpec(
            scheduler="round-robin",
            workload="80%_small",
            profile="all-equal",
            seed=11,
            iterations=2,
        )
        results = run_cell(spec)
        assert [r.iteration for r in results] == [0, 1]

    def test_keep_cache_false_stays_cold(self):
        spec = CellSpec(
            scheduler="bidding",
            workload="all_diff_small",
            profile="all-equal",
            seed=11,
            iterations=2,
            keep_cache=False,
        )
        results = run_cell(spec)
        assert results[0].cache_misses == results[1].cache_misses == 120


class TestMatrix:
    def test_expand_matrix_cross_product(self):
        cells = expand_matrix(
            schedulers=["a", "b"],
            workloads=["w1", "w2", "w3"],
            profiles=["p"],
            seeds=[1, 2],
        )
        assert len(cells) == 2 * 3 * 1 * 2

    def test_scheduler_kwargs_only_apply_to_named(self):
        cells = expand_matrix(
            schedulers=["baseline", "spark"],
            workloads=["w"],
            profiles=["p"],
            seeds=[1],
            scheduler_kwargs={"spark": {"use_locality": False}},
        )
        by_scheduler = {cell.scheduler: cell for cell in cells}
        assert by_scheduler["spark"].scheduler_kwargs == (("use_locality", False),)
        assert by_scheduler["baseline"].scheduler_kwargs == ()

    def test_run_matrix_parallel_matches_serial(self):
        cells = expand_matrix(
            schedulers=["round-robin"],
            workloads=["80%_small"],
            profiles=["all-equal"],
            seeds=[11, 23],
            iterations=1,
        )
        serial = run_matrix(cells, parallel=1)
        parallel = run_matrix(cells, parallel=2)
        assert [r.makespan_s for r in serial] == [r.makespan_s for r in parallel]


class TestGrids:
    def test_each_column_reads_its_own_cells(self):
        def cell(scheduler, seed, iterations):
            return CellSpec(
                scheduler=scheduler,
                workload="80%_small",
                profile="all-equal",
                seed=seed,
                iterations=iterations,
            )

        first = [("r", {"a": [cell("random", 1, 1), cell("random", 2, 2)]})]
        second = [("s", {"b": [cell("round-robin", 3, 1)]})]
        sweep_a, sweep_b = run_grids([first, second])
        assert [(r.seed, r.iteration) for r in sweep_a["r"]["a"].results] == [
            (1, 0), (2, 0), (2, 1)
        ]
        assert [r.scheduler for r in sweep_b["s"]["b"].results] == ["round-robin"]

    def test_render_prints_table_bars_then_note(self):
        table = Table(
            "T", ["k", "v"], [["a", "1"]], bars=Bars("B", "s", [("a", [("x", 1.0)])]), note="N"
        )
        text = render([table, Table("U", ["k"], [["b"]])])
        assert text.index("T") < text.index("B") < text.index("N") < text.index("U")
        assert text.endswith("k\n-\nb")


class TestResultSet:
    def test_filters_and_means(self):
        cells = expand_matrix(
            schedulers=["baseline", "bidding"],
            workloads=["80%_small"],
            profiles=["all-equal"],
            seeds=[11],
            iterations=2,
        )
        results = ResultSet(run_matrix(cells))
        assert len(results.where(scheduler="bidding")) == 2
        assert len(results.where(scheduler="bidding", iteration=0)) == 1
        assert results.mean("makespan_s", scheduler="bidding") > 0

    def test_empty_filter_raises(self):
        results = ResultSet([])
        with pytest.raises(ValueError):
            results.mean("makespan_s", scheduler="nobody")


class TestFigureModules:
    """Scaled-down versions of each figure run end-to-end."""

    def test_fig3_small(self):
        [sweep] = run_grids([fig3_aggregates.grid(
            seeds=(11,), profiles=("all-equal",), workloads=("80%_small",), iterations=2
        )])
        row = sweep["80%_small"]
        assert row["baseline"].mean("makespan_s") > 0
        assert row["bidding"].mean("makespan_s") > 0
        rendered = render(fig3_aggregates.tables(sweep))
        assert "Figure 3a" in rendered and "80%_small" in rendered

    def test_fig3_unknown_row_raises(self):
        [sweep] = run_grids([fig3_aggregates.grid(
            seeds=(11,), profiles=("all-equal",), workloads=("80%_small",), iterations=1
        )])
        with pytest.raises(KeyError):
            sweep["nonexistent"]

    def test_fig2_small(self):
        [sweep] = run_grids([fig2_spark.grid(seeds=(11,), iterations=1)])
        assert len(sweep) == 4
        g1 = sweep[fig2_spark.COLUMN_GROUPS[0][0]]
        # The straggler effect.
        assert g1["spark"].mean("makespan_s") > g1["crossflow"].mean("makespan_s")
        rendered = render(fig2_spark.tables(sweep))
        assert "spark slower by" in rendered

    def test_fig4_small(self):
        [sweep] = run_grids([fig4_breakdown.grid(
            seeds=(11,),
            profiles=("all-equal", "one-slow"),
            workloads=("80%_small",),
            iterations=2,
        )])
        assert len(sweep) == 2
        assert speedup(sweep["80%_small", "one-slow"]) > 0
        best, _cell = fig4_breakdown.best_vs_centralized(sweep)
        assert best > 0
        rendered = render(fig4_breakdown.tables(sweep))
        assert "Figure 4" in rendered

    def test_tables_msr_structure(self):
        sweep = tables_msr.run_tables(seeds=(101,))
        assert list(sweep) == ["run 1"]
        row = sweep["run 1"]
        assert row["bidding"].mean("makespan_s") > 0 and row["baseline"].mean("makespan_s") > 0
        # The headline Table 2 and Table 3 directions.
        assert row["bidding"].mean("data_load_mb") < row["baseline"].mean("data_load_mb")
        assert row["bidding"].mean("cache_misses") < row["baseline"].mean("cache_misses")
        rendered = render(tables_msr.tables(sweep))
        assert "Table 1" in rendered and "Table 3" in rendered


class TestCLI:
    def test_run_subcommand(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--scheduler",
                "round-robin",
                "--workload",
                "80%_small",
                "--profile",
                "all-equal",
                "--seed",
                "11",
                "--iterations",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "round-robin" in out

    def test_unknown_scheduler_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "--scheduler", "psychic"])

    def test_requires_subcommand(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([])
