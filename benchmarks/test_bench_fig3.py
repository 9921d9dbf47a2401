"""Benchmark E2-E4: regenerate Figure 3 (a, b, c) and the Section 6.3.2
headline claims.

Paper reference points:
* ~24.5 % average speedup of Bidding over Baseline,
* ~49 % fewer cache misses, ~45.3 % less data load,
* 80%_large: ~22.65 vs ~45.5 misses, ~5270.87 vs ~10786.88 MB,
* all_diff_equal: ~9591.45 vs ~17908.08 MB (~57 % speedup).

We assert the *shape*: Bidding wins all three metrics on every workload
and the aggregate reductions land in the right ballpark.
"""

from conftest import once
from repro.experiments.fig3_aggregates import grid, overall_reduction, tables
from repro.experiments.grid import reduction, render, run_grids

#: One seed keeps the bench under ~10 s; the CLI runs the full 3 seeds.
BENCH_SEEDS = (11,)


def test_bench_fig3_aggregates(benchmark):
    [sweep] = once(benchmark, lambda: run_grids([grid(seeds=BENCH_SEEDS)]))
    print()
    print(render(tables(sweep)))

    # Figures 3a-3c: bidding faster, fewer misses, less data on every workload.
    for workload, row in sweep.items():
        for metric in ("makespan_s", "cache_misses", "data_load_mb"):
            assert reduction(row, metric) > 0, (workload, metric)

    # Section 6.3.2 claim 1: ~24.5 % speedup (accept a generous band --
    # our substrate is a simulator, not the authors' AWS testbed).
    assert 15.0 <= overall_reduction(sweep, "makespan_s") <= 60.0

    # Claim 2: ~49 % fewer misses, ~45.3 % less data.
    assert 20.0 <= overall_reduction(sweep, "cache_misses") <= 65.0
    assert 30.0 <= overall_reduction(sweep, "data_load_mb") <= 65.0

    # The repetitive 80%_large callout: misses roughly halve.
    row = sweep["80%_large"]
    assert row["baseline"].mean("cache_misses") / row["bidding"].mean("cache_misses") > 1.25
