"""Benchmark A1-A10: the design-choice ablations of DESIGN.md Section 5."""

from conftest import once
from repro.experiments import ablations
from repro.experiments.grid import render, run_grids, speedup

TITLES = {build: title for title, build in ablations.ABLATIONS}


def ablate(benchmark, build):
    """Run one ablation, print it, and return its sweep."""
    [sweep] = once(benchmark, lambda: run_grids([build()]))
    print()
    print(render([ablations.table(TITLES[build], sweep)]))
    return sweep


def makespans(sweep):
    """A one-policy ablation's mean makespan per setting."""
    return {
        setting: results.mean("makespan_s")
        for setting, row in sweep.items()
        for results in row.values()
    }


def test_bench_a1_bid_window(benchmark):
    by_setting = makespans(ablate(benchmark, ablations.ablate_bid_window))
    # A too-short window (0.1 s < the slow worker's bid latency) degrades
    # to fallback-random assignment: far worse than the paper's 1 s.
    assert by_setting["window=0.1s"] > 2 * by_setting["window=1.0s"]
    # Widening beyond 1 s changes little: contests close early on bids.
    assert by_setting["window=5.0s"] < 1.3 * by_setting["window=1.0s"]


def test_bench_a1_bid_compute(benchmark):
    by_setting = makespans(ablate(benchmark, ablations.ablate_bid_compute))
    # Bids costing a full second blow through the 1 s window -> fallback.
    assert by_setting["bid_compute=1.0s"] > 1.5 * by_setting["bid_compute=0.0s"]


def test_bench_a2_noise(benchmark):
    sweep = ablate(benchmark, ablations.ablate_noise)
    # Bidding's advantage persists at the paper-calibration sigma=0.25.
    for label in ("sigma=0.0", "sigma=0.1", "sigma=0.25"):
        assert speedup(sweep[label]) > 1.0, label


def test_bench_a3_scheduler_shootout(benchmark):
    by_name = makespans(ablate(benchmark, ablations.ablate_schedulers))
    # Bidding is the fastest policy on the repetitive heterogeneous cell.
    assert by_name["bidding"] == min(by_name.values())
    # Any locality-aware pull policy beats random.
    assert by_name["baseline"] < by_name["random"]
    assert by_name["matchmaking"] < by_name["random"]


def test_bench_a4_cache_capacity(benchmark):
    sweep = ablate(benchmark, ablations.ablate_cache_capacity)
    unbounded, *_rest, smallest = sweep.values()

    def advantage(row):
        return row["baseline"].mean("data_load_mb") - row["bidding"].mean("data_load_mb")

    # Bidding's data-load advantage erodes as eviction defeats locality.
    assert advantage(unbounded) > advantage(smallest)


def test_bench_a6_fast_local_close(benchmark):
    sweep = ablate(benchmark, ablations.ablate_fast_local_close)
    off, on = (row["bidding"] for row in sweep.values())
    # The future-work claim: bidding overhead for highly local jobs
    # drops substantially, with no loss of locality.
    assert on.mean("contest_seconds") < 0.8 * off.mean("contest_seconds")
    assert on.mean("data_load_mb") <= 1.1 * off.mean("data_load_mb")


def test_bench_a7_adaptive_bids(benchmark):
    off, on = makespans(ablate(benchmark, ablations.ablate_adaptive_bids)).values()
    # Bias-corrected bids must not hurt, and typically help, under
    # sustained drift between nominal and realised speeds.
    assert on <= 1.05 * off


def test_bench_a8_popularity_skew(benchmark):
    sweep = ablate(benchmark, ablations.ablate_popularity_skew)
    rows = list(sweep.values())
    # More skew -> more reuse -> less data moved, for both schedulers.
    for name in ("bidding", "baseline"):
        assert rows[-1][name].mean("data_load_mb") < rows[0][name].mean("data_load_mb")
    # Bidding stays ahead on data movement at every skew level.
    for row in rows:
        assert row["bidding"].mean("data_load_mb") < row["baseline"].mean("data_load_mb")


def test_bench_a9_prefetch(benchmark):
    off, on = ablate(benchmark, ablations.ablate_prefetch).values()
    # Prefetch helps the queue-building scheduler...
    assert on["bidding"].mean("makespan_s") < off["bidding"].mean("makespan_s")
    # ...and cannot help the one-job-at-a-time pull baseline.
    assert on["baseline"].mean("makespan_s") == off["baseline"].mean("makespan_s")
    # It moves no extra data (same misses, earlier downloads).
    assert on["bidding"].mean("data_load_mb") <= 1.05 * off["bidding"].mean("data_load_mb")


def test_bench_a10_shared_origin(benchmark):
    free, *_rest, tight = ablate(benchmark, ablations.ablate_shared_origin).values()
    # Everything slows under a tight origin...
    assert tight["bidding"].mean("makespan_s") > free["bidding"].mean("makespan_s")
    # ...but the locality scheduler's relative advantage grows: redundant
    # clones now also throttle everyone else's downloads.
    assert speedup(tight) > speedup(free)


def test_bench_a5_contest_concurrency(benchmark):
    times = list(makespans(ablate(benchmark, ablations.ablate_contest_concurrency)).values())
    # Overlapping contests must not corrupt the protocol; results stay
    # within a tight band of the serialized default.
    assert max(times) <= 1.2 * min(times)
