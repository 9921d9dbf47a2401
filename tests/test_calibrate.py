"""Tests for the calibration audit."""

import pytest

from repro.experiments.calibrate import (
    Calibration,
    CalibrationScore,
    PAPER_DATA_REDUCTION_PCT,
    PAPER_MISS_REDUCTION_PCT,
    PAPER_SPEEDUP_PCT,
    evaluate,
    run_grid,
    score_result,
    table,
)
from repro.experiments.grid import render
from repro.experiments.runner import ResultSet
from repro.metrics.report import RunResult


def workload_row(baseline, bidding):
    """A Figure-3 sweep row from (time, misses, data MB) per algorithm."""

    def runs(scheduler, values):
        makespan_s, misses, data_mb = values
        return ResultSet([RunResult(
            scheduler=scheduler, workload="w", profile="p", seed=1, iteration=0,
            makespan_s=makespan_s, cache_misses=misses, cache_hits=0,
            data_load_mb=data_mb, jobs_completed=1,
        )])

    return {"baseline": runs("baseline", baseline), "bidding": runs("bidding", bidding)}


def synthetic_result(speedup_factor):
    """A Figure-3 sweep with uniform rows at a chosen baseline/bidding ratio."""
    return {
        name: workload_row((100.0, 40, 1000.0), (100.0 / speedup_factor, 20, 550.0))
        for name in ("a", "b")
    }


class TestScoring:
    def test_perfect_match_scores_zero(self):
        # Construct a result hitting the paper numbers exactly.
        sweep = {
            "w": workload_row(
                (100.0, 100, 100.0),
                (
                    100.0 - PAPER_SPEEDUP_PCT,
                    100 - PAPER_MISS_REDUCTION_PCT,
                    100.0 - PAPER_DATA_REDUCTION_PCT,
                ),
            )
        }
        score = score_result(Calibration(), sweep)
        assert score.score == pytest.approx(0.0, abs=1e-9)

    def test_gap_is_mean_absolute(self):
        result = synthetic_result(speedup_factor=2.0)  # 50% speedup
        score = score_result(Calibration(), result)
        expected = (
            abs(50.0 - PAPER_SPEEDUP_PCT)
            + abs(50.0 - PAPER_MISS_REDUCTION_PCT)
            + abs(45.0 - PAPER_DATA_REDUCTION_PCT)
        ) / 3.0
        assert score.score == pytest.approx(expected)

    def test_calibration_name(self):
        assert Calibration(label="x").name() == "x"
        assert "sigma=0.3" in Calibration(noise_sigma=0.3).name()


class TestGrid:
    def test_small_grid_runs_and_sorts(self):
        grid = (
            Calibration(noise_sigma=0.0, label="quiet"),
            Calibration(noise_sigma=0.25, label="noisy"),
        )
        scores = run_grid(grid, seeds=(11,))
        assert len(scores) == 2
        assert scores[0].score <= scores[1].score

    def test_evaluate_respects_window(self):
        # A pathologically short window degrades the aggregates.
        good = evaluate(Calibration(bid_window_s=1.0), profiles=("one-slow",))
        bad = evaluate(Calibration(bid_window_s=0.05), profiles=("one-slow",))
        assert bad.speedup_pct < good.speedup_pct

    def test_render_contains_labels(self):
        scores = [
            CalibrationScore(
                calibration=Calibration(label="demo"),
                speedup_pct=30.0,
                miss_reduction_pct=40.0,
                data_reduction_pct=50.0,
            )
        ]
        text = render([table(scores)])
        assert "demo" in text and "mean |gap|" in text
