"""Ablation experiments for the design choices DESIGN.md calls out.

A1 -- **bid window & bid compute**: sweep the contest window (paper:
      1 s) and the worker-side bid computation cost.  Larger windows /
      costlier bids inflate the allocation overhead that the paper says
      makes Bidding "less advantageous" for small resources.
A2 -- **noise amplitude**: sweep the log-normal sigma.  Bidding relies
      on estimates ranking workers correctly; moderate noise should
      leave the ranking (and the win) intact, heavy noise erodes it.
A3 -- **scheduler shoot-out**: all seven policies on one workload,
      including the related-work comparators (Matchmaking, Delay
      scheduling) the paper names as future-work comparisons, and the
      Baseline's requeue-position variant.
A4 -- **cache capacity**: bound the clone store and watch Bidding's
      locality advantage erode as evictions defeat it.
A5 -- **contest concurrency**: Listing 1 admits overlapping contests;
      overlap trades allocation latency against stale workload
      estimates.
A6 -- **fast local close** (future work): short-circuit contests once
      an idle holder bids, "minimizing the bidding overhead for highly
      local jobs".
A7 -- **adaptive bids** (future work): workers learn an
      estimate-vs-actual bias from their bid history and correct
      future bids; matters when realised speeds drift from nominal.
A8 -- **popularity skew**: sweep the Zipf exponent of repository
      popularity; locality-aware scheduling should gain with skew
      (more reuse to exploit).
A9 -- **download prefetching** (extension): overlap queued jobs'
      downloads with processing.  Only helps schedulers that build
      queues ahead of time -- i.e. Bidding; the pull-based Baseline
      holds one job at a time and has nothing to prefetch.
A10 -- **shared-origin contention** (extension): cap the data origin's
      total egress and fair-share it across the cluster.  Redundant
      downloads now also slow *other* workers' clones, so locality
      scheduling saves more than its own transfer time.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.cluster.profiles import WorkerProfile, profile_by_name
from repro.experiments.configs import DEFAULT_SEED, noise_overrides
from repro.experiments.grid import Grid, Sweep, Table, pair, render, run_grids, single
from repro.experiments.runner import CellSpec


def ablate_bid_window(
    windows: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 5.0), seed: int = DEFAULT_SEED
) -> Grid:
    """A1a: contest window sweep on a small-resource workload.

    ``one-slow`` is the interesting profile: its slow worker takes ~1 s
    to compute a bid, so windows below that close by timeout and
    windows above it wait for the straggler bid.
    """
    cell = CellSpec("bidding", "all_diff_small", "one-slow", seed)
    return [single(f"window={w}s", cell.with_scheduler_kwargs(window_s=w)) for w in windows]


def ablate_bid_compute(
    costs: Sequence[float] = (0.0, 0.1, 0.25, 0.5, 1.0), seed: int = DEFAULT_SEED
) -> Grid:
    """A1b: worker-side bid computation cost sweep."""
    cell = CellSpec("bidding", "all_diff_small", "all-equal", seed)
    return [
        single(f"bid_compute={cost}s", cell.with_scheduler_kwargs(bid_compute_s=cost))
        for cost in costs
    ]


def ablate_noise(
    sigmas: Sequence[float] = (0.0, 0.1, 0.25, 0.5, 1.0), seed: int = DEFAULT_SEED
) -> Grid:
    """A2: noise sweep, bidding against baseline.

    The comparison matters more than either absolute number: bidding's
    advantage should persist at moderate sigma and shrink as estimates
    stop ranking workers correctly.
    """
    cell = CellSpec("bidding", "all_diff_equal", "fast-slow", seed)
    return [
        pair(f"sigma={sigma}", replace(cell, engine_overrides=noise_overrides(sigma)))
        for sigma in sigmas
    ]


#: A3's policies, in print order.
SHOOTOUT = ("bidding", "baseline", "matchmaking", "delay", "bar", "spark", "random", "round-robin")


def ablate_schedulers(seed: int = DEFAULT_SEED) -> Grid:
    """A3: every policy on one cell, plus the Baseline requeue variant."""
    cell = CellSpec("bidding", "80%_large", "fast-slow", seed)
    return [single(name, replace(cell, scheduler=name)) for name in SHOOTOUT] + [
        single(
            "baseline(requeue=back)",
            replace(cell, scheduler="baseline").with_scheduler_kwargs(requeue="back"),
        )
    ]


def _capped(profile: str, capacity_mb: float) -> WorkerProfile:
    base = profile_by_name(profile)
    return replace(
        base, specs=tuple(replace(spec, cache_capacity_mb=capacity_mb) for spec in base.specs)
    )


def ablate_cache_capacity(
    capacities_mb: Sequence[float] = (float("inf"), 4096.0, 2048.0, 1024.0),
    seed: int = DEFAULT_SEED,
) -> Grid:
    """A4: bounded clone stores; locality erodes as eviction bites."""
    return [
        pair(
            "unbounded" if capacity == float("inf") else f"{capacity:.0f}MB",
            CellSpec("bidding", "80%_large", _capped("all-equal", capacity), seed),
        )
        for capacity in capacities_mb
    ]


def ablate_contest_concurrency(
    levels: Sequence[int] = (1, 2, 4, 8), seed: int = DEFAULT_SEED
) -> Grid:
    """A5: overlapping contests -- latency vs estimate staleness."""
    cell = CellSpec("bidding", "all_diff_large", "all-equal", seed)
    return [
        single(f"concurrency={level}", cell.with_scheduler_kwargs(max_concurrent_contests=level))
        for level in levels
    ]


def ablate_fast_local_close(seed: int = DEFAULT_SEED) -> Grid:
    """A6: contest short-circuiting on a repetitive workload.

    ``one-slow`` is where the overhead lives: the slow worker computes
    its bid in ~1 s, so without the fast path every contest waits for it
    (or the window); with it, contests for cached repositories close as
    soon as the idle holder answers.  The stream is spaced out (8 s mean
    inter-arrival) because an idle holder is precisely the "highly local
    job" case the future-work note targets -- saturated queues have no
    idle holders to fast-close on.
    """
    sparse = (("mean_interarrival_s", 8.0),)
    cell = CellSpec("bidding", "80%_large", "one-slow", seed, workload_overrides=sparse)
    return [
        single(
            f"fast-close {'on' if on else 'off'}", cell.with_scheduler_kwargs(fast_local_close=on)
        )
        for on in (False, True)
    ]


def ablate_adaptive_bids(seed: int = DEFAULT_SEED) -> Grid:
    """A7: estimate-vs-actual learning under sustained speed drift.

    The OU-noise log-std of 0.5 makes workers' realised speeds wander far
    from nominal for long stretches, which is exactly when bias-corrected
    bids should help.
    """
    ou = (("noise_kind", "ou"), ("noise_params", {"sigma": 0.5, "tau": 300.0}))
    cell = CellSpec("bidding", "all_diff_equal", "all-equal", seed, engine_overrides=ou)
    return [
        single(f"adaptive {'on' if on else 'off'}", cell.with_scheduler_kwargs(adaptive=on))
        for on in (False, True)
    ]


def ablate_popularity_skew(
    alphas: Sequence[float] = (0.0, 0.5, 1.0, 2.0), seed: int = DEFAULT_SEED
) -> Grid:
    """A8: Zipf-exponent sweep, bidding against baseline.

    The name is overridden along with the exponent, as
    :func:`~repro.workload.generators.zipf_workload` sets it: the name
    prefixes every repository id.
    """
    return [
        pair(
            f"alpha={alpha:g}",
            CellSpec(
                "bidding",
                "zipf",
                "all-equal",
                seed,
                workload_overrides=(("alpha", alpha), ("name", f"zipf-{alpha:g}")),
            ),
        )
        for alpha in alphas
    ]


def ablate_prefetch(seed: int = DEFAULT_SEED) -> Grid:
    """A9: prefetch off/on, bidding against baseline."""
    cell = CellSpec("bidding", "all_diff_large", "all-equal", seed)
    return [
        pair(
            f"prefetch {'on' if on else 'off'}",
            replace(cell, engine_overrides=(("prefetch", on),)),
        )
        for on in (False, True)
    ]


def ablate_shared_origin(
    capacities: Sequence[Optional[float]] = (None, 40.0, 20.0, 10.0),
    seed: int = DEFAULT_SEED,
) -> Grid:
    """A10: origin-egress sweep, bidding against baseline."""
    cell = CellSpec("bidding", "80%_large", "all-equal", seed)
    return [
        pair(
            "uncapped" if capacity is None else f"origin={capacity:g}MB/s",
            replace(cell, engine_overrides=(("shared_origin_mbps", capacity),)),
        )
        for capacity in capacities
    ]


#: Every ablation, with the title it prints under.
ABLATIONS = (
    ("A1a: bidding window sweep (one-slow, all_diff_small)", ablate_bid_window),
    ("A1b: bid computation cost sweep (all-equal, all_diff_small)", ablate_bid_compute),
    ("A2: noise sweep (fast-slow, all_diff_equal)", ablate_noise),
    ("A3: scheduler shoot-out (fast-slow, 80%_large)", ablate_schedulers),
    ("A4: cache capacity sweep (all-equal, 80%_large)", ablate_cache_capacity),
    ("A5: contest concurrency (all-equal, all_diff_large)", ablate_contest_concurrency),
    ("A6: fast local close (one-slow, 80%_large)", ablate_fast_local_close),
    ("A7: adaptive bids under speed drift (all-equal, all_diff_equal)", ablate_adaptive_bids),
    ("A8: popularity-skew sweep (all-equal, zipf)", ablate_popularity_skew),
    ("A9: download prefetching (all-equal, all_diff_large)", ablate_prefetch),
    ("A10: shared-origin contention (all-equal, 80%_large)", ablate_shared_origin),
)


def table(title: str, sweep: Sweep) -> Table:
    """A one-policy ablation shows its four means per setting; a
    bidding/baseline one compares makespans and data loads."""
    if all(len(row) == 1 for row in sweep.values()):
        metrics = ("makespan_s", "cache_misses", "data_load_mb", "contest_seconds")
        return Table(
            title,
            ["setting", "makespan [s]", "misses", "data [MB]", "contest [s]"],
            [
                [setting] + [f"{results.mean(metric):.1f}" for metric in metrics]
                for setting, row in sweep.items()
                for results in row.values()
            ],
        )
    return Table(
        title,
        ["setting", "bidding [s]", "baseline [s]", "bidding data", "baseline data"],
        [
            [
                setting,
                f"{row['bidding'].mean('makespan_s'):.1f}",
                f"{row['baseline'].mean('makespan_s'):.1f}",
                f"{row['bidding'].mean('data_load_mb'):.0f}",
                f"{row['baseline'].mean('data_load_mb'):.0f}",
            ]
            for setting, row in sweep.items()
        ],
    )


def main(parallel: Optional[int] = None) -> None:
    """Run and print every ablation (the CLI entry point)."""
    sweeps = run_grids([build() for _title, build in ABLATIONS], parallel)
    print(render([table(title, sweep) for (title, _), sweep in zip(ABLATIONS, sweeps)]))
