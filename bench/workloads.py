"""The six workloads: what each builds from the seed, and what one rep runs.

Every workload is a fixed job stream run to completion (closed), except
``serve-churn``, which is an open loop *inside simulated time*, and
``exec-real``, a closed replay with ``inflight_per_worker`` jobs
outstanding per real worker process.  The program only ever receives
what is generated here from ``--seed``: a worker profile, a job stream,
a cell spec or a frozen plan.

Only public names of :mod:`repro` are imported -- no underscore names,
no per-policy classes, no environment switches -- so the benchmark
survives the deletions ROADMAP item 3 plans.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro import (
    CrashRenewal,
    EngineConfig,
    FaultPlan,
    OracleMismatch,
    WorkflowRuntime,
    run_service,
    verify_run,
)
from repro.cluster import WorkerProfile, WorkerSpec
from repro.exec import ExecBackend, ExecConfig, capture_workflow_plan, smoke_stream
from repro.experiments.runner import CellSpec, run_cell
from repro.schedulers.registry import make_scheduler
from repro.workload.generators import job_config_by_name
from repro.workload.job import JobArrival, JobStream

from spans import SpanRecorder

#: Size of the shared repository in the fleet streams (MB): the middle
#: of the ``large`` band.  ``80%_large`` draws it once per seed from
#: 500..1024 MB, and that single draw moves host jobs/s by 13 % and
#: simulated MB by 19 % between seeds (inter-quartile); pinned, ten
#: seeds give ten comparable streams (6 % and 3 %).
HOT_REPO_MB = 762.0

#: Scale of the untimed warm-up and of the traced pass.
WARMUP_SCALE = 0.1
TRACE_SCALE = 0.25
#: ``--quick`` multiplies every scale by this; never comparable.
QUICK_FACTOR = 0.025


@dataclass
class CellOutcome:
    """What one cell (one call into the program) did."""

    label: str
    scheduler: str
    attempted: int
    completed: int
    failed: int
    #: Host seconds of the timed region.
    timed_s: float
    #: The program's result rows with host-time fields left out; equal
    #: seeds must give equal rows, byte for byte.
    rows: list
    cache_hits: int
    cache_misses: int
    data_load_mb: float
    makespan_s: Optional[float] = None
    #: Counters that only some workloads have (sim or host, by name).
    extra: dict = field(default_factory=dict)
    #: Correctness failures of this cell, as sentences.
    problems: list = field(default_factory=list)


def fleet_profile(n_workers: int) -> WorkerProfile:
    """``n_workers`` near-equal workers (+-5 % network, 11 speed classes)."""
    return WorkerProfile(
        name=f"fleet-{n_workers}",
        specs=tuple(
            WorkerSpec(
                f"w{i:04d}",
                network_mbps=10 * (1 + 0.05 * ((i % 11) - 5) / 5),
                rw_mbps=60,
            )
            for i in range(n_workers)
        ),
    )


def fleet_stream(seed: int, n_jobs: int) -> JobStream:
    """``80%_large`` at fleet scale, with the shared repository's size pinned."""
    config = replace(
        job_config_by_name("80%_large"), n_jobs=n_jobs, mean_interarrival_s=0.2
    )
    _corpus, stream = config.build(seed=seed)
    shared = f"{config.name}-shared"
    return JobStream(
        arrivals=[
            JobArrival(
                arrival.at,
                replace(arrival.job, size_mb=HOT_REPO_MB)
                if arrival.job.repo_id == shared
                else arrival.job,
            )
            for arrival in stream
        ],
        name=stream.name,
    )


def _conservation(outcome: CellOutcome) -> None:
    if outcome.completed + outcome.failed != outcome.attempted:
        outcome.problems.append(
            f"{outcome.label}: completed {outcome.completed} + failed "
            f"{outcome.failed} != attempted {outcome.attempted}"
        )


def _workflow_outcome(label: str, scheduler: str, attempted: int, results, timed_s: float) -> CellOutcome:
    outcome = CellOutcome(
        label=label,
        scheduler=scheduler,
        attempted=attempted,
        completed=sum(r.jobs_completed for r in results),
        failed=sum(len(r.failed_jobs) for r in results),
        timed_s=timed_s,
        rows=[dataclasses.asdict(r) for r in results],
        cache_hits=sum(r.cache_hits for r in results),
        cache_misses=sum(r.cache_misses for r in results),
        data_load_mb=sum(r.data_load_mb for r in results),
        makespan_s=sum(r.makespan_s for r in results),
        extra={
            "contest_sim_s": sum(r.contest_seconds for r in results),
            "rejections": sum(r.rejections for r in results),
            "redispatches": sum(r.redispatches for r in results),
            "crashes": sum(r.crashes for r in results),
        },
    )
    _conservation(outcome)
    return outcome


# A built workload has a ``name``, its ``schedulers``, and ``cells()``:
# the calls one rep makes into the program, each taking the span
# recorder and returning a CellOutcome.


class FleetWorkload:
    """A fixed fleet, one job stream, one cell per scheduler."""

    def __init__(self, name: str, schedulers: tuple[str, ...], n_workers: int, n_jobs: int, seed: int, scale: float) -> None:
        self.name = name
        self.schedulers = schedulers
        self.seed = seed
        self.profile = fleet_profile(n_workers)
        self.stream = fleet_stream(seed, max(8, round(n_jobs * scale)))

    def cells(self, verify: bool = False):
        return [
            lambda spans, s=scheduler: self._cell(spans, s, verify)
            for scheduler in self.schedulers
        ]

    def _cell(self, spans: SpanRecorder, scheduler: str, verify: bool) -> CellOutcome:
        # verify=True is the oracle pass: full trace, live invariant
        # monitors, then the trace-replay differential check.
        config = EngineConfig(seed=self.seed, trace=verify, check=verify)
        with spans.span(f"cell.{scheduler}") as span:
            runtime = WorkflowRuntime(
                profile=self.profile,
                stream=self.stream,
                scheduler=make_scheduler(scheduler),
                config=config,
            )
            result = runtime.run()
        outcome = _workflow_outcome(
            f"{self.name}/{scheduler}", scheduler, len(self.stream), [result], span.seconds
        )
        if verify:
            with spans.span("verify"):
                try:
                    verify_run(result, runtime.metrics)
                except OracleMismatch as error:
                    outcome.problems.append(f"{outcome.label}: verify_run: {error}")
        return outcome


#: The paper's five job configurations (Section 6.3.1).
PAPER_CONFIGS = ("all_diff_equal", "all_diff_large", "all_diff_small", "80%_large", "80%_small")
PAPER_JOBS = 120
PAPER_ITERATIONS = 3
#: Seeds per rep, each derived from ``--seed``.
PAPER_SEEDS = 3


class PaperObserved:
    """The paper's own cell with every observer on.

    5 workers (``fast-slow``), 120 jobs, 3 cache-persisting iterations,
    all five job configurations x {bidding, baseline} x ``PAPER_SEEDS``
    seeds derived from ``--seed``.
    """

    name = "paper-observed"
    schedulers = ("bidding", "baseline")

    def __init__(self, seed: int, scale: float, obs: bool = True, check: bool = True, trace: bool = True) -> None:
        self.n_jobs = max(8, round(PAPER_JOBS * scale))
        self.specs = [
            CellSpec(
                scheduler=scheduler,
                workload=config,
                profile="fast-slow",
                seed=seed * 1000 + k,
                iterations=PAPER_ITERATIONS,
                workload_overrides=(("n_jobs", self.n_jobs),),
                engine_overrides=(("check", check), ("obs", obs), ("trace", trace)),
            )
            for k in range(PAPER_SEEDS)
            for config in PAPER_CONFIGS
            for scheduler in self.schedulers
        ]

    def cells(self, verify: bool = False):
        return [lambda spans, s=spec: self._cell(spans, s) for spec in self.specs]

    def _cell(self, spans: SpanRecorder, spec: CellSpec) -> CellOutcome:
        with spans.span(f"cell.{spec.scheduler}") as span:
            results = run_cell(spec)
        return _workflow_outcome(
            f"{self.name}/{spec.scheduler}/{spec.workload}/{spec.seed}",
            spec.scheduler,
            self.n_jobs * PAPER_ITERATIONS,
            results,
            span.seconds,
        )


#: Length of the arrival window of ``serve-churn`` (simulated seconds).
SERVE_DURATION_S = 4000.0


class ServeChurn:
    """The service layer under bursts, autoscaling, rebalance and crashes."""

    name = "serve-churn"
    schedulers = ("bidding", "baseline")

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.duration_s = max(120.0, SERVE_DURATION_S * scale)

    def cells(self, verify: bool = False):
        return [lambda spans, s=scheduler: self._cell(spans, s) for scheduler in self.schedulers]

    def _cell(self, spans: SpanRecorder, scheduler: str) -> CellOutcome:
        with spans.span(f"cell.{scheduler}") as span:
            report = run_service(
                scheduler=scheduler,
                arrival="burst",
                rate=1.5,
                seed=self.seed,
                duration_s=self.duration_s,
                min_workers=3,
                max_workers=24,
                rebalance=True,
                faults=FaultPlan(renewals=(CrashRenewal(mtbf_s=600, mttr_s=60),)),
                trace=False,
            )
        outcome = CellOutcome(
            label=f"{self.name}/{scheduler}",
            scheduler=scheduler,
            attempted=report.admitted,
            completed=report.completed,
            failed=report.failed,
            timed_s=span.seconds,
            rows=[report.to_dict()],
            cache_hits=report.cache_hits,
            cache_misses=report.cache_misses,
            data_load_mb=report.data_load_mb,
            extra={
                "redispatches": report.redispatches,
                "crashes": report.crashes,
                "scale_actions": report.scale_ups + report.scale_downs,
                "queue_peak": report.queue_peak,
                "arrivals": report.arrivals,
                "shed": report.shed,
                "latency_p50_s": report.latency_p50_s,
                "latency_p99_s": report.latency_p99_s,
            },
        )
        _conservation(outcome)
        return outcome


#: Jobs in the replayed plan of ``exec-real``.
EXEC_JOBS = 8000


class ExecReal:
    """Replay a captured bidding plan on two real worker processes."""

    name = "exec-real"

    def __init__(self, seed: int, scale: float, spans: SpanRecorder) -> None:
        runtime = WorkflowRuntime(
            profile=fleet_profile(2),
            stream=smoke_stream(seed, n_jobs=max(24, round(EXEC_JOBS * scale))),
            scheduler=make_scheduler("bidding"),
            config=EngineConfig(seed=seed, check=True, trace=True),
        )
        with spans.span("exec.capture_plan") as span:
            self.plan, self.sim_result = capture_workflow_plan(runtime)
        self.capture_s = span.seconds

    def cells(self, verify: bool = False):
        return [self._cell]

    def _cell(self, spans: SpanRecorder) -> CellOutcome:
        backend = ExecBackend(self.plan, ExecConfig(time_scale=1e-4, trace=False))
        with spans.span("exec.run"):
            report = backend.run()
        # Submit -> last DONE on the backend's clock; spawning and
        # registering the workers came before it and is set-up.
        timed_s = backend.metrics.makespan
        outcome = CellOutcome(
            label=f"{self.name}/bidding",
            scheduler="bidding",
            attempted=report.admitted,
            completed=report.completed,
            failed=report.failed,
            timed_s=timed_s,
            rows=[
                {
                    "admitted": report.admitted,
                    "completed": report.completed,
                    "failed": report.failed,
                    "crashes": report.crashes,
                    "redispatches": report.redispatches,
                    "cache_hits": report.cache_hits,
                    "cache_misses": report.cache_misses,
                    "data_load_mb": report.data_load_mb,
                    "per_worker_cache": report.per_worker_cache,
                    "per_worker_completed": report.per_worker_completed,
                    "assigned": report.assigned,
                }
            ],
            cache_hits=report.cache_hits,
            cache_misses=report.cache_misses,
            data_load_mb=report.data_load_mb,
            makespan_s=self.sim_result.makespan_s,
            extra={
                "redispatches": report.redispatches,
                "crashes": report.crashes,
                "plan_capture_s": self.capture_s,
                "spawn_s": report.wall_s - timed_s,
                "handoff_p50_ms": report.handoff_p50_s * 1e3,
                "handoff_max_ms": report.handoff_max_s * 1e3,
            },
        )
        _conservation(outcome)
        if not report.conserved:
            outcome.problems.append(f"{outcome.label}: ExecReport.conserved is false")
        if report.crashes:
            outcome.problems.append(f"{outcome.label}: {report.crashes} worker crash(es)")
        return outcome


#: name -> builder(seed, scale, spans).  Sized so that one full rep takes
#: 3-4.5 s on the 2-core dev container and three fit in ``run_seconds``:
#: two thirds of ISSUE 12's job counts on ``bid-fleet``, ``pull-fleet``,
#: ``paper-observed`` and ``serve-churn``.  At half, the start-up
#: transient of a 200/400-worker fleet dominates and host jobs/s moves
#: ~10 % from seed to seed.
BUILDERS: dict[str, Callable[[int, float, SpanRecorder], object]] = {
    "bid-fleet": lambda seed, scale, spans: FleetWorkload(
        "bid-fleet", ("bidding",), 200, 700, seed, scale
    ),
    "pull-fleet": lambda seed, scale, spans: FleetWorkload(
        "pull-fleet", ("baseline", "matchmaking", "delay"), 400, 2000, seed, scale
    ),
    "push-fleet": lambda seed, scale, spans: FleetWorkload(
        "push-fleet", ("spark", "bar", "random", "round-robin"), 400, 12000, seed, scale
    ),
    "paper-observed": lambda seed, scale, spans: PaperObserved(seed, scale),
    "serve-churn": lambda seed, scale, spans: ServeChurn(seed, scale),
    "exec-real": lambda seed, scale, spans: ExecReal(seed, scale, spans),
}


def run_rep(workload, spans: SpanRecorder, name: str, verify: bool = False) -> list[CellOutcome]:
    """One rep: every cell of the workload, one after another."""
    with spans.span(name):
        return [cell(spans) for cell in workload.cells(verify)]
