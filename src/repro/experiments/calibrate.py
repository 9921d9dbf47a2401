"""Calibration search: score free parameters against the paper's claims.

The paper withholds the physical constants its results depend on
(worker speeds, noise law, arrival pacing).  DESIGN.md fixes defaults
with rationale; this module makes the choice *auditable*: it sweeps a
grid of candidate calibrations, reproduces the Section 6.3.2 headline
aggregates under each, and scores the distance to the paper's numbers

    speedup ~24.5 %, miss reduction ~49 %, data reduction ~45.3 %.

Usage::

    python -m repro.experiments.calibrate           # default small grid

The score is the mean absolute percentage-point gap across the three
claims -- deliberately simple, because the goal is a sanity check
("are we in the right parameter region?"), not a fit ("tune until the
numbers match"), which would just overfit the simulator to the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.experiments import fig3_aggregates
from repro.experiments.configs import noise_overrides
from repro.experiments.grid import Sweep, Table, render, run_grids

#: The Section 6.3.2 targets.
PAPER_SPEEDUP_PCT = 24.5
PAPER_MISS_REDUCTION_PCT = 49.0
PAPER_DATA_REDUCTION_PCT = 45.3


@dataclass(frozen=True)
class Calibration:
    """One candidate calibration of the unpublished constants."""

    noise_sigma: float = 0.25
    bid_window_s: float = 1.0
    label: str = ""

    def name(self) -> str:
        return self.label or f"sigma={self.noise_sigma:g}, window={self.bid_window_s:g}s"


@dataclass(frozen=True)
class CalibrationScore:
    """Measured aggregates and the distance to the paper under one
    calibration."""

    calibration: Calibration
    speedup_pct: float
    miss_reduction_pct: float
    data_reduction_pct: float

    @property
    def score(self) -> float:
        """Mean absolute percentage-point gap to the paper (lower=closer)."""
        return (
            abs(self.speedup_pct - PAPER_SPEEDUP_PCT)
            + abs(self.miss_reduction_pct - PAPER_MISS_REDUCTION_PCT)
            + abs(self.data_reduction_pct - PAPER_DATA_REDUCTION_PCT)
        ) / 3.0


def score_result(calibration: Calibration, sweep: Sweep) -> CalibrationScore:
    """Fold a Figure-3 sweep into a score row."""
    return CalibrationScore(
        calibration=calibration,
        speedup_pct=fig3_aggregates.overall_reduction(sweep, "makespan_s"),
        miss_reduction_pct=fig3_aggregates.overall_reduction(sweep, "cache_misses"),
        data_reduction_pct=fig3_aggregates.overall_reduction(sweep, "data_load_mb"),
    )


def evaluate(
    calibration: Calibration,
    seeds: Sequence[int] = (11,),
    profiles: Sequence[str] = ("all-equal", "fast-slow"),
) -> CalibrationScore:
    """Run Figure 3's grid, reduced, under one calibration and score it."""

    def calibrated(cell):
        cell = replace(cell, engine_overrides=noise_overrides(calibration.noise_sigma))
        if cell.scheduler != "bidding":
            return cell
        return cell.with_scheduler_kwargs(window_s=calibration.bid_window_s)

    grid = [
        (workload, {name: [calibrated(cell) for cell in cells] for name, cells in row.items()})
        for workload, row in fig3_aggregates.grid(seeds=seeds, profiles=profiles)
    ]
    return score_result(calibration, run_grids([grid])[0])


#: The default audit grid: noise around the chosen 0.25, window around
#: the paper's stated 1 s.
DEFAULT_GRID: tuple[Calibration, ...] = (
    Calibration(noise_sigma=0.0, bid_window_s=1.0),
    Calibration(noise_sigma=0.1, bid_window_s=1.0),
    Calibration(noise_sigma=0.25, bid_window_s=1.0, label="chosen defaults"),
    Calibration(noise_sigma=0.5, bid_window_s=1.0),
    Calibration(noise_sigma=0.25, bid_window_s=0.5),
    Calibration(noise_sigma=0.25, bid_window_s=2.0),
)


def run_grid(
    grid: Sequence[Calibration] = DEFAULT_GRID,
    seeds: Sequence[int] = (11,),
) -> list[CalibrationScore]:
    """Score every calibration in the grid, best first."""
    scores = [evaluate(calibration, seeds=seeds) for calibration in grid]
    scores.sort(key=lambda row: row.score)
    return scores


def table(scores: Sequence[CalibrationScore]) -> Table:
    """The audit table (gap columns are measured − paper)."""
    return Table(
        "Calibration audit vs Section 6.3.2 "
        f"(paper: +{PAPER_SPEEDUP_PCT}%, +{PAPER_MISS_REDUCTION_PCT}%, "
        f"+{PAPER_DATA_REDUCTION_PCT}%)",
        ["calibration", "speedup", "miss red.", "data red.", "mean |gap| [pp]"],
        [
            [
                row.calibration.name(),
                f"{row.speedup_pct:+.1f}% ({row.speedup_pct - PAPER_SPEEDUP_PCT:+.1f})",
                f"{row.miss_reduction_pct:+.1f}% ({row.miss_reduction_pct - PAPER_MISS_REDUCTION_PCT:+.1f})",
                f"{row.data_reduction_pct:+.1f}% ({row.data_reduction_pct - PAPER_DATA_REDUCTION_PCT:+.1f})",
                f"{row.score:.1f}",
            ]
            for row in scores
        ],
    )


def main() -> None:
    """Run and print the default audit grid."""
    print(render([table(run_grid())]))


if __name__ == "__main__":  # pragma: no cover
    main()
