"""Benchmark S1-S4: the larger-scale evaluation the paper leaves as
future work -- how the Bidding-vs-Baseline comparison moves with scale.
"""

from conftest import once
from repro.experiments.grid import render, run_grids, speedup
from repro.experiments.sensitivity import (
    sweep_arrival_rate,
    sweep_heterogeneity,
    sweep_job_count,
    sweep_worker_count,
    table,
)


def speedups(benchmark, title, build):
    """Run one sweep, print it, and return its speedups in setting order."""
    [sweep] = once(benchmark, lambda: run_grids([build()]))
    print()
    print(render([table(title, sweep)]))
    return [speedup(row) for row in sweep.values()]


def test_bench_s1_worker_count(benchmark):
    points = speedups(benchmark, "S1: worker-count sweep (all_diff_large)", sweep_worker_count)
    # Bidding's advantage survives a 5x fleet scale-up.
    assert all(point > 1.3 for point in points)


def test_bench_s2_job_count(benchmark):
    points = speedups(benchmark, "S2: job-count sweep (80%_large)", sweep_job_count)
    # Advantage is stable across a 20x workflow scale-up.
    assert min(points) > 1.2
    assert max(points) / min(points) < 1.5


def test_bench_s3_heterogeneity(benchmark):
    points = speedups(benchmark, "S3: heterogeneity sweep (all_diff_large)", sweep_heterogeneity)
    # The more unequal the fleet, the more speed-aware bidding pays.
    assert points[-1] > points[0]


def test_bench_s4_arrival_rate(benchmark):
    points = speedups(benchmark, "S4: arrival-rate sweep (80%_large)", sweep_arrival_rate)
    # Contention is where scheduling matters: the burst end of the sweep
    # shows a clear win, the sparse end approaches parity.
    assert points[0] > points[-1]
    assert points[0] > 1.2
