"""Benchmark E5 + E9: regenerate Figure 4 and the abstract's 3.57x claim.

Paper reference points:
* Bidding outperforms the Baseline most where workers are slow or
  repositories large (one-slow columns),
* it is "comparable to, or somewhat slower than" the Baseline where one
  worker is much faster and the data small -- visible on the cold first
  iteration, before warm-cache locality dominates,
* abstract: "up to 3.57x faster execution times when compared to the
  baseline centralized approach where the master controls data
  locality" (our Spark-style locality-aware policy).
"""

from conftest import once
from repro.experiments.fig4_breakdown import best_vs_centralized, cold_speedup, grid, tables
from repro.experiments.grid import render, run_grids, speedup

BENCH_SEEDS = (11,)


def test_bench_fig4_breakdown(benchmark):
    [sweep] = once(benchmark, lambda: run_grids([grid(seeds=BENCH_SEEDS)]))
    print()
    print(render(tables(sweep)))

    # Bidding wins every cell on the 3-iteration average.
    for cell, row in sweep.items():
        assert speedup(row) > 1.0, cell

    # The one-slow column is bidding's strongest territory (per workload,
    # one-slow beats the one-fast column's speedup more often than not).
    wins = 0
    workloads = {workload for workload, _profile in sweep}
    for workload in workloads:
        if speedup(sweep[workload, "one-slow"]) >= speedup(sweep[workload, "one-fast"]):
            wins += 1
    assert wins >= len(workloads) / 2

    # Cold first iteration: at least one cell is comparable-or-slower
    # (<= 1.05x), reproducing the contest-overhead caveat.
    assert any(cold_speedup(row) <= 1.05 for row in sweep.values())

    # Abstract claim: "up to 3.57x" vs the centralized locality approach.
    best, _cell = best_vs_centralized(sweep)
    assert best >= 3.0
