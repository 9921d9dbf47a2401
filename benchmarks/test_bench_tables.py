"""Benchmark E6-E8: regenerate Tables 1-3 (full MSR pipeline, cold caches).

Paper reference points (three runs each):
* Table 1: Bidding finishes 10.3 %-25.5 % faster,
* Table 2: Bidding downloads ~62-63 % less (~330 GB vs ~880 GB),
* Table 3: Bidding roughly halves cache misses (~200 vs ~400).

Shape asserted: per-run wins on all three metrics with reductions in a
band around the paper's; see EXPERIMENTS.md for the measured-vs-paper
discussion (our Bidding duplicates somewhat more than theirs because
the simulated pipeline saturates queues harder).
"""

from conftest import once
from repro.experiments.grid import reduction, render
from repro.experiments.tables_msr import run_tables, tables

BENCH_SEEDS = (101, 202, 303)


def test_bench_tables_msr(benchmark):
    sweep = once(benchmark, lambda: run_tables(seeds=BENCH_SEEDS))
    print()
    print(render(tables(sweep)))

    for run, row in sweep.items():
        # Table 1: bidding faster every run, in a 5-40 % band
        # (paper: 10.3-25.5 %).
        time_reduction = reduction(row, "makespan_s")
        assert 5.0 <= time_reduction <= 40.0, f"{run}: {time_reduction:.1f}%"

        # Table 2: bidding moves substantially less data (paper ~62 %).
        data_reduction = reduction(row, "data_load_mb")
        assert data_reduction >= 25.0, f"{run}: {data_reduction:.1f}%"

        # Table 3: a large cache-miss gap (paper ~halving).
        misses = {name: row[name].mean("cache_misses") for name in row}
        assert misses["baseline"] / misses["bidding"] >= 1.3, run

    # Cross-table consistency: per-run data ratio tracks miss ratio in
    # direction (more misses -> more data) for the baseline.
    baseline = [row["baseline"] for row in sweep.values()]
    by_misses = sorted(baseline, key=lambda results: results.mean("cache_misses"))
    assert by_misses[0].mean("data_load_mb") <= by_misses[-1].mean("data_load_mb") * 1.1
