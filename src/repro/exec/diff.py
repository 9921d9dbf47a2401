"""Differential validation: the simulator vs the real backend.

One seeded smoke scenario is played through both backends.  The sim runs
it (deciding every allocation) and its decision stream is frozen into an
:class:`~repro.exec.plan.ExecPlan`; the real pool then executes that
plan on actual processes.  The harness asserts that reality *preserved*
the plan:

* **assignment sequence** -- the real pool applied exactly the sim's
  decisions, in order (nothing dropped, duplicated or reordered across
  serialization and the socket handoff);
* **per-worker completion order** -- each real worker finished its jobs
  in plan order (the FIFO survived dispatch batching);
* **cache behaviour** -- per-worker hit/miss counts match the sim
  exactly (the real caches replayed the sim's locality model), and the
  downloaded megabytes agree;
* **conservation** -- ``completed + failed == admitted`` on both sides
  (also enforced *live* by the shared
  :class:`~repro.check.invariants.InvariantMonitor`);
* **observability** -- the real run's trace exports through
  :mod:`repro.obs` with every completed job's span path connected
  end to end.

With a ``kill`` injected, sequence equality is out of scope (recovery
legitimately re-routes orphans); the contract becomes *no job is lost*:
conservation still holds, the crash was observed, and orphans were
re-dispatched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.cluster.profiles import profile_by_name
from repro.exec.plan import ExecPlan, capture_workflow_plan
from repro.exec.pool import ExecBackend, ExecConfig, ExecReport, KillSpec
from repro.host import EngineConfig, WorkflowRuntime
from repro.obs import build_spans, span_coverage
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.workload.job import Job, JobStream
from repro.workload.msr import TASK_ANALYZER

#: Seeded smoke-matrix defaults: small enough that the full 8-scheduler
#: sweep (5 real processes each) stays well under CI's two-minute gate,
#: large enough that every worker sees work and caches see reuse.
SMOKE_JOBS = 18
SMOKE_REPOS = 6
SMOKE_SEED = 11
SMOKE_TIME_SCALE = 0.01


def smoke_stream(seed: int = SMOKE_SEED, n_jobs: int = SMOKE_JOBS, n_repos: int = SMOKE_REPOS) -> JobStream:
    """The pinned differential workload: bursty, repo-skewed, seeded.

    Sizes are drawn from a fixed small range so scaled real sleeps stay
    in the tens of milliseconds; a couple of data-free jobs exercise the
    no-cache path.
    """
    rng = np.random.default_rng(seed)
    jobs = []
    for index in range(n_jobs):
        if index % 9 == 8:
            jobs.append(Job(job_id=f"s{index}", task=TASK_ANALYZER))
            continue
        repo = int(rng.integers(n_repos))
        size = float(rng.uniform(8.0, 40.0))
        jobs.append(
            Job(
                job_id=f"s{index}",
                task=TASK_ANALYZER,
                repo_id=f"r{repo}",
                size_mb=round(size, 3),
                base_compute_s=0.5,
            )
        )
    return JobStream.burst(jobs, name="exec-smoke")


def smoke_runtime(
    scheduler: str,
    seed: int = SMOKE_SEED,
    n_jobs: int = SMOKE_JOBS,
    profile: str = "all-equal",
) -> WorkflowRuntime:
    """A sim run of the smoke scenario, monitored and traced."""
    return WorkflowRuntime(
        profile=profile_by_name(profile),
        stream=smoke_stream(seed=seed, n_jobs=n_jobs),
        scheduler=make_scheduler(scheduler),
        config=EngineConfig(seed=seed, check=True, trace=True),
    )


@dataclass(frozen=True)
class DiffCell:
    """One scheduler's sim-vs-real verdict."""

    scheduler: str
    divergences: tuple[str, ...]
    sim: dict[str, Any]
    real: dict[str, Any]

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "ok": self.ok,
            "divergences": list(self.divergences),
            "sim": self.sim,
            "real": self.real,
        }


@dataclass(frozen=True)
class DiffReport:
    """The whole matrix: one cell per scheduler."""

    cells: tuple[DiffCell, ...]
    seed: int
    n_jobs: int
    kill: Optional[str] = None

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "n_jobs": self.n_jobs,
            "kill": self.kill,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def write(self, path: str) -> str:
        """Persist the (divergence) report as JSON; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
        return path

    def summary_lines(self) -> list[str]:
        lines = []
        for cell in self.cells:
            status = "OK " if cell.ok else "DIVERGED"
            lines.append(
                f"  {cell.scheduler:<12} {status}  "
                f"sim {cell.sim['completed']:>3} completed / "
                f"real {cell.real['completed']:>3} completed, "
                f"{cell.real['crashes']} crash(es), "
                f"{cell.real['redispatches']} redispatch(es)"
            )
            for divergence in cell.divergences:
                lines.append(f"      - {divergence}")
        return lines


def _compare_clean(plan: ExecPlan, runtime: WorkflowRuntime, sim_result, report: ExecReport) -> list[str]:
    """All the equalities a fault-free replay must satisfy."""
    divergences: list[str] = []
    expected_seq = [(d.job_id, d.worker) for d in plan.decisions]
    got_seq = [(job_id, worker) for job_id, worker, _re in report.assigned]
    if got_seq != expected_seq:
        first = next(
            (i for i, (a, b) in enumerate(zip(expected_seq, got_seq)) if a != b),
            min(len(expected_seq), len(got_seq)),
        )
        divergences.append(
            f"assignment sequence diverged at #{first}: "
            f"sim {expected_seq[first:first + 2]} vs real {got_seq[first:first + 2]}"
        )
    if report.completed != sim_result.jobs_completed:
        divergences.append(
            f"completions: sim {sim_result.jobs_completed} vs real {report.completed}"
        )
    if report.failed or report.crashes:
        divergences.append(
            f"clean run saw {report.failed} failures / {report.crashes} crashes"
        )
    for worker, expected_order in plan.per_worker_order().items():
        got_order = list(report.per_worker_completed.get(worker, ()))
        if got_order != expected_order:
            divergences.append(
                f"{worker}: completion order {got_order} != plan order {expected_order}"
            )
    for worker in (w.name for w in plan.workers):
        sim_block = runtime.metrics.workers.get(worker)
        sim_counts = (
            (sim_block.cache_hits, sim_block.cache_misses) if sim_block else (0, 0)
        )
        real_counts = tuple(report.per_worker_cache.get(worker, (0, 0)))
        if sim_counts != real_counts:
            divergences.append(
                f"{worker}: cache (hits, misses) sim {sim_counts} vs real {real_counts}"
            )
    if abs(report.data_load_mb - sim_result.data_load_mb) > 1e-6:
        divergences.append(
            f"data load: sim {sim_result.data_load_mb} MB vs real "
            f"{report.data_load_mb} MB"
        )
    return divergences


def _compare_faulty(plan: ExecPlan, report: ExecReport) -> list[str]:
    """The crash contract: the kill happened and nothing was lost."""
    divergences: list[str] = []
    if report.crashes < 1:
        divergences.append("kill was requested but no crash was observed")
    terminal = report.completed + report.failed
    if terminal != report.admitted:
        divergences.append(
            f"jobs lost: admitted {report.admitted} != completed "
            f"{report.completed} + failed {report.failed}"
        )
    if report.failed and report.redispatches == 0:
        divergences.append(
            f"{report.failed} job(s) failed without any re-dispatch attempt"
        )
    return divergences


def run_diff(
    scheduler: str,
    seed: int = SMOKE_SEED,
    n_jobs: int = SMOKE_JOBS,
    profile: str = "all-equal",
    time_scale: float = SMOKE_TIME_SCALE,
    kill: Optional[KillSpec] = None,
    exec_config: Optional[ExecConfig] = None,
) -> DiffCell:
    """Play one scheduler's smoke scenario through both backends."""
    runtime = smoke_runtime(scheduler, seed=seed, n_jobs=n_jobs, profile=profile)
    plan, sim_result = capture_workflow_plan(runtime)
    config = exec_config or ExecConfig(time_scale=time_scale)
    backend = ExecBackend(plan, config, kills=(kill,) if kill is not None else ())
    report = backend.run()

    divergences: list[str] = []
    if report.admitted != len(plan.jobs):
        divergences.append(
            f"admitted {report.admitted} != planned {len(plan.jobs)} jobs"
        )
    if not report.conserved:
        divergences.append(
            f"real conservation broken: {report.completed} + {report.failed} "
            f"!= {report.admitted}"
        )
    if kill is None:
        divergences.extend(_compare_clean(plan, runtime, sim_result, report))
    else:
        divergences.extend(_compare_faulty(plan, report))
    if config.trace:
        spans = build_spans(backend.metrics.trace)
        coverage = span_coverage(backend.metrics.trace, spans)
        if coverage.connected_jobs != coverage.completed_jobs:
            divergences.append(
                f"real trace: only {coverage.connected_jobs}/"
                f"{coverage.completed_jobs} jobs traced end-to-end"
            )

    sim_summary = {
        "completed": sim_result.jobs_completed,
        "cache_hits": sim_result.cache_hits,
        "cache_misses": sim_result.cache_misses,
        "data_load_mb": sim_result.data_load_mb,
        "makespan_s": sim_result.makespan_s,
        "decisions": len(plan.decisions),
    }
    return DiffCell(
        scheduler=scheduler,
        divergences=tuple(divergences),
        sim=sim_summary,
        real=report.to_dict(),
    )


def diff_matrix(
    schedulers: tuple[str, ...] = (),
    seed: int = SMOKE_SEED,
    n_jobs: int = SMOKE_JOBS,
    time_scale: float = SMOKE_TIME_SCALE,
    kill: Optional[KillSpec] = None,
) -> DiffReport:
    """The full seeded smoke matrix (defaults to every scheduler)."""
    names = tuple(schedulers) or tuple(sorted(SCHEDULERS))
    cells = tuple(
        run_diff(name, seed=seed, n_jobs=n_jobs, time_scale=time_scale, kill=kill)
        for name in names
    )
    return DiffReport(
        cells=cells, seed=seed, n_jobs=n_jobs, kill=kill.worker if kill else None
    )
