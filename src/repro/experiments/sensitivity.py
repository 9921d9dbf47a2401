"""Scale and parameter sensitivity -- the "larger-scale evaluation"
future-work item (Section 7).

The paper evaluates 5 workers x 120 jobs.  These sweeps ask how the
Bidding-vs-Baseline comparison moves as the deployment grows or the
environment changes:

* :func:`sweep_worker_count`  -- 5 -> 25 workers (contest cost grows
  with fleet size: every worker bids on every job),
* :func:`sweep_job_count`     -- 120 -> 1200 jobs (longer workflows
  amortise bidding overhead; the paper predicts bidding favours
  "long-running workflows"),
* :func:`sweep_heterogeneity` -- fast/slow factor 1x -> 8x (the more
  unequal the fleet, the more speed-aware allocation matters),
* :func:`sweep_arrival_rate`  -- burst -> sparse arrivals (saturation
  controls how much committed workload dominates bids).

Each sweep is a grid of (setting, bidding, baseline) rows over the
standard 3 cache-persisting iterations.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.profiles import BASE_NETWORK_MBPS, BASE_RW_MBPS, WorkerProfile
from repro.cluster.worker_spec import WorkerSpec
from repro.experiments.configs import DEFAULT_SEED
from repro.experiments.grid import Grid, Sweep, Table, pair, render, run_grids, speedup
from repro.experiments.runner import CellSpec


def _uniform_profile(n: int) -> WorkerProfile:
    specs = tuple(
        WorkerSpec(name=f"w{i + 1}", network_mbps=BASE_NETWORK_MBPS, rw_mbps=BASE_RW_MBPS)
        for i in range(n)
    )
    return WorkerProfile(f"equal-{n}", specs)


def _spread_profile(factor: float) -> WorkerProfile:
    base = WorkerSpec(name="w0", network_mbps=BASE_NETWORK_MBPS, rw_mbps=BASE_RW_MBPS)
    specs = (
        base.scaled(factor, name="w1"),
        base.scaled(1.0 / factor, name="w2"),
        base.renamed("w3"),
        base.renamed("w4"),
        base.renamed("w5"),
    )
    return WorkerProfile(f"spread-{factor:g}x", specs)


def sweep_worker_count(
    counts: Sequence[int] = (5, 10, 15, 25), seed: int = DEFAULT_SEED
) -> Grid:
    """S1: grow the fleet at fixed workload size."""
    return [
        pair(f"workers={n}", CellSpec("bidding", "all_diff_large", _uniform_profile(n), seed))
        for n in counts
    ]


def sweep_job_count(
    counts: Sequence[int] = (60, 120, 360, 1200), seed: int = DEFAULT_SEED
) -> Grid:
    """S2: grow the workflow at fixed fleet size (5 workers)."""
    return [
        pair(
            f"jobs={n}",
            CellSpec(
                "bidding",
                "80%_large",
                _uniform_profile(5),
                seed,
                workload_overrides=(("n_jobs", n),),
            ),
        )
        for n in counts
    ]


def sweep_heterogeneity(
    factors: Sequence[float] = (1.0, 2.0, 4.0, 8.0), seed: int = DEFAULT_SEED
) -> Grid:
    """S3: one worker ``factor``-times faster, one ``factor``-times slower."""
    return [
        pair(
            f"spread={factor:g}x",
            CellSpec("bidding", "all_diff_large", _spread_profile(factor), seed),
        )
        for factor in factors
    ]


def sweep_arrival_rate(
    interarrivals: Sequence[float] = (0.0, 0.5, 1.0, 4.0, 10.0),
    seed: int = DEFAULT_SEED,
) -> Grid:
    """S4: from burst submission to a sparse stream."""
    return [
        pair(
            "burst" if gap == 0.0 else f"gap={gap:g}s",
            CellSpec(
                "bidding",
                "80%_large",
                _uniform_profile(5),
                seed,
                workload_overrides=(("mean_interarrival_s", gap),),
            ),
        )
        for gap in interarrivals
    ]


#: The four sweeps, with the titles they print under.
SWEEPS = (
    ("S1: worker-count sweep (all_diff_large)", sweep_worker_count),
    ("S2: job-count sweep (80%_large)", sweep_job_count),
    ("S3: heterogeneity sweep (all_diff_large)", sweep_heterogeneity),
    ("S4: arrival-rate sweep (80%_large)", sweep_arrival_rate),
)


def table(title: str, sweep: Sweep) -> Table:
    """One sweep with the speedup trend."""
    return Table(
        title,
        ["setting", "bidding [s]", "baseline [s]", "speedup", "bidding [MB]", "baseline [MB]"],
        [
            [
                setting,
                f"{row['bidding'].mean('makespan_s'):.1f}",
                f"{row['baseline'].mean('makespan_s'):.1f}",
                f"{speedup(row):.2f}x",
                f"{row['bidding'].mean('data_load_mb'):.0f}",
                f"{row['baseline'].mean('data_load_mb'):.0f}",
            ]
            for setting, row in sweep.items()
        ],
    )


def main(parallel: Optional[int] = None) -> None:
    """Run and print every sweep (the CLI entry point)."""
    sweeps = run_grids([build() for _title, build in SWEEPS], parallel)
    print(render([table(title, sweep) for (title, _), sweep in zip(SWEEPS, sweeps)]))
