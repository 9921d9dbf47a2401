"""Figure 3: accumulated results per workload per algorithm.

Reproduces the three charts of Figure 3 -- average total execution time
(3a), average cache-miss count (3b) and average data load (3c) per job
configuration for the Bidding Scheduler vs. the Baseline -- plus the
headline aggregates of Section 6.3.2:

1. "Bidding Scheduler achieves a speedup of approximately 24.5%
   compared to the Baseline",
2. "approximately 49% fewer cache misses and approximately 45.3%
   reduction in data load per workflow run",
3. the per-workload callouts (80%_large: ~22.65 vs ~45.5 misses,
   ~5270.87 vs ~10786.88 MB; all_diff_equal: ~9591.45 vs ~17908.08 MB).

Averages are taken over all four worker profiles, all iterations and
all seeds, mirroring the paper's "accumulated results per workload".
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.configs import (
    EVALUATION_SEEDS,
    ITERATIONS,
    JOB_CONFIG_NAMES,
    PROFILE_NAMES,
)
from repro.experiments.grid import (
    Bars,
    Grid,
    Sweep,
    Table,
    compared,
    reduction,
    render,
    run_grids,
)
from repro.experiments.runner import expand_matrix

SCHEDULERS = ("baseline", "bidding")


def grid(
    seeds: Sequence[int] = EVALUATION_SEEDS,
    profiles: Sequence[str] = PROFILE_NAMES,
    workloads: Sequence[str] = JOB_CONFIG_NAMES,
    iterations: int = ITERATIONS,
) -> Grid:
    """One row per workload: each algorithm over every profile and seed."""
    return [
        (
            workload,
            {
                scheduler: expand_matrix(
                    [scheduler], [workload], list(profiles), list(seeds), iterations
                )
                for scheduler in SCHEDULERS
            },
        )
        for workload in workloads
    ]


def overall_reduction(sweep: Sweep, metric: str) -> float:
    """Mean per-workload reduction: the Section 6.3.2 aggregates."""
    return sum(reduction(row, metric) for row in sweep.values()) / len(sweep)


def tables(sweep: Sweep) -> list[Table]:
    """Figures 3a-3c, 3a as bars, and the Section 6.3.2 claims."""
    bars = Bars(
        "Figure 3a as bars (average execution time)",
        "s",
        [
            (workload, [(name, row[name].mean("makespan_s")) for name in SCHEDULERS])
            for workload, row in sweep.items()
        ],
    )
    note = (
        "Section 6.3.2 aggregates (paper: ~24.5% speedup, ~49% fewer misses, "
        "~45.3% less data):\n"
        f"  measured speedup        : {overall_reduction(sweep, 'makespan_s'):+.1f}%\n"
        f"  measured miss reduction : {overall_reduction(sweep, 'cache_misses'):+.1f}%\n"
        f"  measured data reduction : {overall_reduction(sweep, 'data_load_mb'):+.1f}%"
    )
    return [
        compared(
            "Figure 3a: average total execution time per workload",
            ["workload", "baseline [s]", "bidding [s]", "speedup [%]"],
            sweep, "makespan_s", "{:.1f}",
        ),
        compared(
            "Figure 3b: average cache-miss count per workload",
            ["workload", "baseline", "bidding", "reduction [%]"],
            sweep, "cache_misses", "{:.2f}",
        ),
        compared(
            "Figure 3c: average data load per workload",
            ["workload", "baseline [MB]", "bidding [MB]", "reduction [%]"],
            sweep, "data_load_mb", "{:.2f}",
            bars=bars,
            note=note,
        ),
    ]


def main(parallel: Optional[int] = None) -> None:
    """Run and print Figure 3 (the CLI entry point)."""
    print(render(tables(run_grids([grid()], parallel)[0])))
