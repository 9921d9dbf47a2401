"""Evaluation harness: one module per paper table/figure plus sweeps.

Every figure, table, ablation and sweep is a grid of
:class:`~repro.experiments.runner.CellSpec` rows run through one
:func:`~repro.experiments.runner.run_matrix` call and printed as
:class:`~repro.experiments.grid.Table` s (:mod:`repro.experiments.grid`).
Each driver has a ``main()`` that prints the rows/series the paper
reports.  The mapping to the paper (see DESIGN.md Section 4):

* :mod:`repro.experiments.fig2_spark`      -- Figure 2 (Spark vs Crossflow Baseline),
* :mod:`repro.experiments.fig3_aggregates` -- Figures 3a/3b/3c,
* :mod:`repro.experiments.fig4_breakdown`  -- Figure 4 + the abstract's
  "up to 3.57x" best case,
* :mod:`repro.experiments.tables_msr`      -- Tables 1-3 (full MSR runs),
* :mod:`repro.experiments.ablations`       -- design-choice sweeps (A1-A10),
* :mod:`repro.experiments.sensitivity`     -- scale/parameter sweeps (S1-S4),
* :mod:`repro.experiments.faults_sweep`    -- makespan under rising crash rates,
* :mod:`repro.experiments.calibrate`       -- the free constants scored
  against Section 6.3.2,
* :mod:`repro.experiments.html_report`     -- the same tables as one HTML file.

:mod:`repro.experiments.configs` fixes the evaluation matrix and the
calibration constants; :mod:`repro.experiments.runner` drives cells of
that matrix with the paper's 3-iteration, cache-persisting methodology.
"""

from repro.experiments.configs import (
    EVALUATION_SEEDS,
    ITERATIONS,
    JOB_CONFIG_NAMES,
    PROFILE_NAMES,
    default_engine_config,
)
from repro.experiments.runner import CellSpec, run_cell, run_matrix

__all__ = [
    "CellSpec",
    "EVALUATION_SEEDS",
    "ITERATIONS",
    "JOB_CONFIG_NAMES",
    "PROFILE_NAMES",
    "default_engine_config",
    "run_cell",
    "run_matrix",
]
