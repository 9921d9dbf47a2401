"""Figure 2: Spark vs Crossflow-Baseline execution times.

Section 4 motivates Crossflow with four column groups comparing its
Baseline scheduler against Apache Spark on the MSR workload:

1. one fast + one slow worker, large repositories -- "Spark takes 7.94x
   longer to complete the workflow than Crossflow";
2. all workers equal, small repositories (< 50 MB) -- "Crossflow is
   2.3x faster than Spark";
3. all workers equal, non-repetitive dataset;
4. varying network and read/write speeds, repetitive dataset (80 % of
   jobs required the same repository).

Mapping to our matrix (each group is a (profile, workload) pair run for
the standard three cache-persisting iterations):

====  ===========  ==================
 G1   fast-slow    all_diff_large
 G2   all-equal    all_small_strict
 G3   all-equal    all_diff_equal
 G4   fast-slow    80%_large
====  ===========  ==================

The Spark model runs with ``use_locality=False``: Spark's driver cannot
see the clone caches Crossflow workers keep on local disk, so its
locality-wait machinery has nothing to act on (the locality-aware
variant is exercised in the ablations instead).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.configs import EVALUATION_SEEDS, ITERATIONS
from repro.experiments.grid import Bars, Grid, Sweep, Table, render, run_grids, speedup
from repro.experiments.runner import ResultSet, expand_matrix

#: The four column groups: (label, profile, workload).
COLUMN_GROUPS: tuple[tuple[str, str, str], ...] = (
    ("G1 fast-slow / large", "fast-slow", "all_diff_large"),
    ("G2 all-equal / small", "all-equal", "all_small_strict"),
    ("G3 all-equal / non-repetitive", "all-equal", "all_diff_equal"),
    ("G4 varying-speeds / repetitive", "fast-slow", "80%_large"),
)

#: Paper reference points, where stated.
PAPER_RATIOS = {"G1 fast-slow / large": 7.94, "G2 all-equal / small": 2.3}


def grid(seeds: Sequence[int] = EVALUATION_SEEDS, iterations: int = ITERATIONS) -> Grid:
    """One row per column group: Crossflow's Baseline and Spark."""

    def cells(scheduler: str, profile: str, workload: str):
        return expand_matrix(
            [scheduler],
            [workload],
            [profile],
            list(seeds),
            iterations,
            scheduler_kwargs={"spark": {"use_locality": False}},
            # The MSR pipeline hands Spark a whole stage of analysis
            # jobs at once; a burst submission reproduces that and
            # keeps the comparison scheduler-bound rather than
            # arrival-bound.
            workload_overrides={"mean_interarrival_s": 0.0},
        )

    return [
        (label, {"crossflow": cells("baseline", *cell), "spark": cells("spark", *cell)})
        for label, *cell in COLUMN_GROUPS
    ]


def spark_slowdown(row: dict[str, ResultSet]) -> float:
    """How many times longer Spark takes (paper: 7.94x in G1)."""
    return speedup(row, over="spark", of="crossflow")


def tables(sweep: Sweep) -> list[Table]:
    """Figure 2 with the paper's stated ratios, and as bars."""
    rows, groups = [], []
    for label, row in sweep.items():
        crossflow = row["crossflow"].mean("makespan_s")
        spark = row["spark"].mean("makespan_s")
        paper = PAPER_RATIOS.get(label)
        rows.append(
            [
                label,
                f"{crossflow:.1f}",
                f"{spark:.1f}",
                f"{spark_slowdown(row):.2f}x",
                f"{paper:.2f}x" if paper else "-",
            ]
        )
        groups.append((label, [("crossflow", crossflow), ("spark", spark)]))
    return [
        Table(
            "Figure 2: execution times of MSR in Spark compared to Crossflow Baseline",
            ["column group", "crossflow [s]", "spark [s]", "spark slower by", "paper"],
            rows,
            bars=Bars("Figure 2 as bars", "s", groups),
        )
    ]


def main(parallel: Optional[int] = None) -> None:
    """Run and print Figure 2 (the CLI entry point)."""
    print(render(tables(run_grids([grid()], parallel)[0])))
