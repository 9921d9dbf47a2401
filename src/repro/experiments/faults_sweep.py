"""Degradation sweep: how schedulers cope as workers start crashing.

The paper evaluates a healthy fleet; this extension asks how gracefully
each allocation policy degrades when workers fail and the master
re-dispatches orphaned work (:mod:`repro.faults`).  One sweep axis --
the crash rate, expressed as mean time between failures (MTBF) -- from
fault-free down to an MTBF comparable to the run length, with each
crashed worker repaired after an exponential MTTR of 30 s.

Expectations, borne out by the rows:

* every policy completes the full workload at every crash rate (the
  recovery protocol guarantees it -- only the retry budget can fail a
  job),
* makespan inflates as MTBF shrinks, because orphans repeat downloads
  and computation on a new worker,
* locality-aware policies (bidding) lose part of their edge under
  churn: a crash evicts exactly the cache state the policy was
  exploiting, while locality-blind baselines have less to lose.

Run via ``repro faults`` or :func:`main`.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.configs import DEFAULT_SEED
from repro.experiments.grid import Grid, Sweep, Table, render, run_grids, single
from repro.experiments.runner import CellSpec
from repro.faults.plan import CrashRenewal, FaultPlan, RecoveryConfig

SCHEDULERS = ("bidding", "baseline", "spark")
#: MTBF settings (simulated seconds); ``None`` is the fault-free control.
MTBFS: tuple[Optional[float], ...] = (None, 600.0, 300.0, 150.0)
MTTR_S = 30.0


def plan_for(mtbf_s: Optional[float]) -> Optional[FaultPlan]:
    """The sweep's fault scenario at one crash rate (None = healthy)."""
    if mtbf_s is None:
        return None
    return FaultPlan(
        renewals=(CrashRenewal(mtbf_s=mtbf_s, mttr_s=MTTR_S),),
        recovery=RecoveryConfig(max_redispatches=5, backoff_base_s=0.5),
    )


def grid(
    seed: int = DEFAULT_SEED, workload: str = "80%_large", profile: str = "all-equal"
) -> Grid:
    """One iteration per (scheduler, MTBF) row, identical seed per row."""
    return [
        single(
            (scheduler, mtbf),
            CellSpec(
                scheduler=scheduler,
                workload=workload,
                profile=profile,
                seed=seed,
                iterations=1,
                faults=plan_for(mtbf),
                allow_partial=True,
            ),
        )
        for scheduler in SCHEDULERS
        for mtbf in MTBFS
    ]


def table(title: str, sweep: Sweep) -> Table:
    """Makespan, slowdown against the healthy row, and the recovery counts."""
    runs = {label: row[label[0]].results[0] for label, row in sweep.items()}
    healthy = {
        scheduler: run.makespan_s for (scheduler, mtbf), run in runs.items() if mtbf is None
    }
    return Table(
        title,
        ["scheduler", "MTBF [s]", "makespan [s]", "slowdown", "crashes",
         "redispatches", "failed", "completed"],
        [
            [
                scheduler,
                "inf" if mtbf is None else f"{mtbf:.0f}",
                f"{run.makespan_s:.1f}",
                f"{run.makespan_s / healthy[scheduler]:.2f}x",
                str(run.crashes),
                str(run.redispatches),
                str(len(run.failed_jobs)),
                str(run.jobs_completed),
            ]
            for (scheduler, mtbf), run in runs.items()
        ],
    )


def main(
    seed: int = DEFAULT_SEED,
    workload: str = "80%_large",
    profile: str = "all-equal",
) -> None:
    """Run and print the degradation table (the CLI entry point)."""
    [sweep] = run_grids([grid(seed=seed, workload=workload, profile=profile)])
    title = (
        f"degradation sweep on {workload} / {profile} "
        f"(seed {seed}, MTTR {MTTR_S:.0f}s, recovery budget 5)"
    )
    print(render([table(title, sweep)]))
