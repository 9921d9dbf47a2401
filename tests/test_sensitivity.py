"""Tests for the scale/parameter sensitivity sweeps (future-work S1-S4)."""

import pytest

from repro.experiments.grid import render, run_grids, speedup
from repro.experiments.runner import ResultSet
from repro.experiments.sensitivity import (
    sweep_arrival_rate,
    sweep_heterogeneity,
    sweep_job_count,
    sweep_worker_count,
    table,
)
from repro.metrics.report import RunResult


def rows(grid):
    """Run one sweep grid; its rows in setting order."""
    [sweep] = run_grids([grid])
    return list(sweep.values())


def makespan(row, scheduler):
    return row[scheduler].mean("makespan_s")


class TestSweepPoint:
    def test_speedup(self):
        def run(scheduler, makespan_s):
            return ResultSet([RunResult(
                scheduler=scheduler, workload="w", profile="p", seed=1, iteration=0,
                makespan_s=makespan_s, cache_misses=0, cache_hits=0, data_load_mb=1.0,
                jobs_completed=1,
            )])

        row = {"bidding": run("bidding", 50.0), "baseline": run("baseline", 100.0)}
        assert speedup(row) == pytest.approx(2.0)


class TestWorkerCountSweep:
    def test_more_workers_shorter_makespans(self):
        small, large = rows(sweep_worker_count(counts=(5, 15)))
        assert makespan(large, "bidding") < makespan(small, "bidding")
        assert makespan(large, "baseline") < makespan(small, "baseline")

    def test_bidding_wins_at_every_scale(self):
        for row in rows(sweep_worker_count(counts=(5, 15))):
            assert speedup(row) > 1.0


class TestJobCountSweep:
    def test_more_jobs_longer_makespans(self):
        short, long = rows(sweep_job_count(counts=(60, 240)))
        assert makespan(long, "bidding") > makespan(short, "bidding")

    def test_advantage_persists_with_scale(self):
        assert all(speedup(row) > 1.0 for row in rows(sweep_job_count(counts=(60, 240))))


class TestHeterogeneitySweep:
    def test_larger_spread_larger_advantage(self):
        equal, spread = rows(sweep_heterogeneity(factors=(1.0, 8.0)))
        assert speedup(spread) > speedup(equal)


class TestArrivalRateSweep:
    def test_sparse_arrivals_erode_advantage(self):
        burst, sparse = rows(sweep_arrival_rate(interarrivals=(0.0, 10.0)))
        assert speedup(burst) > speedup(sparse)

    def test_render_includes_all_settings(self):
        [sweep] = run_grids([sweep_arrival_rate(interarrivals=(0.0, 4.0))])
        text = render([table("S4", sweep)])
        assert "burst" in text and "gap=4s" in text
