"""Tests for the HTML report generator."""

import pytest

from repro.experiments import fig2_spark, fig3_aggregates, fig4_breakdown, tables_msr
from repro.experiments.html_report import _svg_grouped_bars, _table, build_report
from repro.experiments.runner import ResultSet
from repro.metrics.report import RunResult


def fake_run(scheduler, makespan, misses=10, data=100.0):
    return RunResult(
        scheduler=scheduler,
        workload="msr",
        profile="msr-equal",
        seed=1,
        iteration=0,
        makespan_s=makespan,
        cache_misses=misses,
        cache_hits=5,
        data_load_mb=data,
        jobs_completed=50,
    )


def fake_row(**makespans):
    """One sweep row: a column per scheduler, one run each."""
    return {name: ResultSet([fake_run(name, value)]) for name, value in makespans.items()}


def fake_tables():
    """The tables each driver builds, from hand-made sweeps."""
    fig2 = {
        "G1 fast-slow / large": fake_row(crossflow=100.0, spark=600.0),
        "G2 all-equal / small": fake_row(crossflow=50.0, spark=60.0),
    }
    fig3 = {
        "80%_large": {
            "baseline": ResultSet([fake_run("baseline", 200.0, 30, 1000.0)]),
            "bidding": ResultSet([fake_run("bidding", 100.0, 15, 500.0)]),
        },
        "80%_small": {
            "baseline": ResultSet([fake_run("baseline", 80.0, 28, 700.0)]),
            "bidding": ResultSet([fake_run("bidding", 60.0, 16, 400.0)]),
        },
    }
    fig4 = {("80%_large", "all-equal"): fake_row(baseline=200.0, bidding=100.0, spark=420.0)}
    tables = {
        "run 1": {
            "bidding": ResultSet([fake_run("bidding", 3000.0)]),
            "baseline": ResultSet([fake_run("baseline", 3600.0, misses=20, data=200.0)]),
        }
    }
    return (
        fig2_spark.tables(fig2)
        + fig3_aggregates.tables(fig3)
        + fig4_breakdown.tables(fig4)
        + tables_msr.tables(tables)
    )


class TestSvg:
    def test_bars_scale_to_max(self):
        svg = _svg_grouped_bars([("g", [("a", 50.0), ("b", 100.0)])], unit="s", width=860)
        assert svg.startswith("<svg")
        assert svg.count("<rect") == 2
        # The larger value fills the chart area (860 - 200 - 90 = 570).
        assert 'width="570.0"' in svg

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _svg_grouped_bars([], unit="s")

    def test_labels_escaped(self):
        svg = _svg_grouped_bars([("<evil>", [("a", 1.0), ("b", 2.0)])], unit="s")
        assert "<evil>" not in svg
        assert "&lt;evil&gt;" in svg


class TestTable:
    def test_cells_escaped(self):
        table = _table(["h"], [["<script>"]])
        assert "<script>" not in table
        assert "&lt;script&gt;" in table


class TestBuildReport:
    def test_contains_all_sections(self):
        report = build_report(fake_tables())
        for marker in (
            "<!DOCTYPE html>",
            "Figure 2",
            "Figure 3",
            "Figure 4",
            "Table 1",
            "Table 3",
            "<svg",
            "4.20x",
        ):
            assert marker in report, marker

    def test_numbers_flow_through(self):
        report = build_report(fake_tables())
        assert "6.00x" in report  # G1 spark slowdown 600/100
        assert "<td>+50.0</td>" in report  # fig3 speedup [%] for 80%_large

    def test_every_printed_cell_is_in_the_report(self):
        import html

        tables = fake_tables()
        report = build_report(tables)
        for table in tables:
            assert html.escape(table.title) in report
            for row in table.rows:
                for cell in row:
                    assert f"<td>{html.escape(cell)}</td>" in report, (table.title, cell)

    def test_report_is_self_contained(self):
        report = build_report(fake_tables())
        assert "http://" not in report.replace("http://www.w3.org", "")
        assert "src=" not in report  # no external resources
