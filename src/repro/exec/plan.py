"""Execution plans: the sim's decision stream, frozen for real execution.

The real backend is **plan-then-execute**: scheduling runs once, in the
deterministic simulator, with the policy code completely unchanged; the
ordered allocation decisions it produces are frozen into an
:class:`ExecPlan` and then *executed for real* -- real processes, real
socket handoff, real heartbeats, real kills.  This is the only split
that lets every policy family (push, pull, bidding contests with timing
windows) drive the real pool while keeping the decision sequence
bit-identical between backends: the differential harness
(:mod:`repro.exec.diff`) then checks that reality *preserved* the plan
-- nothing dropped, duplicated or reordered across the process boundary
-- rather than asking a wall clock to reproduce simulated time.

Capture subscribes to the run's ``assigned`` seam (:mod:`repro.hooks`),
which both push- and pull-style policies funnel through, so this
module never inspects policy internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.host import WorkflowRuntime
    from repro.serve.service import ServiceRuntime


@dataclass(frozen=True)
class PlanWorker:
    """One worker's spec as the real pool must embody it."""

    name: str
    network_mbps: float
    rw_mbps: float
    cpu_factor: float = 1.0
    link_latency: float = 0.2
    cache_capacity_mb: float = float("inf")
    #: Pre-run cache contents (repo_id, size_mb) -- warm-start state.
    preload: tuple[tuple[str, float], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "network_mbps": self.network_mbps,
            "rw_mbps": self.rw_mbps,
            "cpu_factor": self.cpu_factor,
            "link_latency": self.link_latency,
            # JSON has no Infinity; None encodes "unbounded".
            "cache_capacity_mb": (
                None if self.cache_capacity_mb == float("inf") else self.cache_capacity_mb
            ),
            "preload": [list(item) for item in self.preload],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PlanWorker":
        cap = data.get("cache_capacity_mb")
        return cls(
            name=data["name"],
            network_mbps=data["network_mbps"],
            rw_mbps=data["rw_mbps"],
            cpu_factor=data.get("cpu_factor", 1.0),
            link_latency=data.get("link_latency", 0.2),
            cache_capacity_mb=float("inf") if cap is None else cap,
            preload=tuple((r, s) for r, s in data.get("preload", ())),
        )


@dataclass(frozen=True)
class PlanJob:
    """One job plus the handler its real execution runs."""

    job_id: str
    task: str
    repo_id: Optional[str] = None
    size_mb: float = 0.0
    base_compute_s: float = 0.0
    handler: str = "checksum"

    @classmethod
    def from_job(cls, job: Job, handler: str = "checksum") -> "PlanJob":
        return cls(
            job_id=job.job_id,
            task=job.task,
            repo_id=job.repo_id,
            size_mb=job.size_mb,
            base_compute_s=job.base_compute_s,
            handler=handler,
        )

    def to_job(self) -> Job:
        return Job(
            job_id=self.job_id,
            task=self.task,
            repo_id=self.repo_id,
            size_mb=self.size_mb,
            base_compute_s=self.base_compute_s,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "task": self.task,
            "repo_id": self.repo_id,
            "size_mb": self.size_mb,
            "base_compute_s": self.base_compute_s,
            "handler": self.handler,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PlanJob":
        return cls(**data)


@dataclass(frozen=True)
class Decision:
    """One allocation decision, in global decision order."""

    seq: int
    job_id: str
    worker: str
    at_s: float  # simulated decision time (diagnostic, not replayed)

    def to_dict(self) -> dict[str, Any]:
        return {"seq": self.seq, "job_id": self.job_id, "worker": self.worker, "at_s": self.at_s}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Decision":
        return cls(**data)


@dataclass(frozen=True)
class ExecPlan:
    """A frozen, executable schedule: fleet + jobs + decision stream."""

    scheduler: str
    seed: int
    workers: tuple[PlanWorker, ...]
    jobs: tuple[PlanJob, ...]  # first-assignment order
    decisions: tuple[Decision, ...]

    def __post_init__(self) -> None:
        known_jobs = {job.job_id for job in self.jobs}
        known_workers = {worker.name for worker in self.workers}
        for decision in self.decisions:
            if decision.job_id not in known_jobs:
                raise ValueError(f"decision for unknown job {decision.job_id!r}")
            if decision.worker not in known_workers:
                raise ValueError(f"decision for unknown worker {decision.worker!r}")

    @property
    def job_index(self) -> dict[str, PlanJob]:
        return {job.job_id: job for job in self.jobs}

    def per_worker_order(self) -> dict[str, list[str]]:
        """job_ids per worker, in decision order (the FIFO the real
        worker must preserve)."""
        order: dict[str, list[str]] = {worker.name: [] for worker in self.workers}
        for decision in self.decisions:
            order[decision.worker].append(decision.job_id)
        return order

    def to_dict(self) -> dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "seed": self.seed,
            "workers": [worker.to_dict() for worker in self.workers],
            "jobs": [job.to_dict() for job in self.jobs],
            "decisions": [decision.to_dict() for decision in self.decisions],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExecPlan":
        return cls(
            scheduler=data["scheduler"],
            seed=data["seed"],
            workers=tuple(PlanWorker.from_dict(w) for w in data["workers"]),
            jobs=tuple(PlanJob.from_dict(j) for j in data["jobs"]),
            decisions=tuple(Decision.from_dict(d) for d in data["decisions"]),
        )


class PlanRecorder:
    """Collects the decision stream off a run's ``assigned`` seam."""

    def __init__(self, hooks) -> None:
        self.decisions: list[Decision] = []
        self._jobs: dict[str, Job] = {}
        hooks.subscribe(self)

    def on_assigned(self, job: Job, worker: str, policy, now: float) -> None:
        self.decisions.append(
            Decision(seq=len(self.decisions), job_id=job.job_id, worker=worker, at_s=now)
        )
        self._jobs.setdefault(job.job_id, job)

    def plan_jobs(self, handler: str) -> tuple[PlanJob, ...]:
        """Jobs in first-assignment order."""
        seen: list[str] = []
        marked: set[str] = set()
        for decision in self.decisions:
            if decision.job_id not in marked:
                marked.add(decision.job_id)
                seen.append(decision.job_id)
        return tuple(PlanJob.from_job(self._jobs[job_id], handler) for job_id in seen)


def capture_workflow_plan(
    runtime: "WorkflowRuntime | ServiceRuntime", handler: str = "checksum"
) -> tuple[ExecPlan, Any]:
    """Run a workflow or a service in the sim and freeze its decision stream.

    Returns ``(plan, result)`` -- the sim's run result or service report,
    the differential baseline.  Cache contents are snapshotted *before*
    the run, so the real pool starts from the same warmth the sim did;
    the fleet is read *after* it, so elastic workers that joined a
    service mid-run are in the plan (they start cold).
    """
    preload = {
        name: tuple(sorted(node.cache.contents().items()))
        for name, node in runtime.workers.items()
    }
    recorder = PlanRecorder(runtime.hooks)
    result = runtime.run()
    workers = []
    for name, node in sorted(runtime.workers.items()):
        spec = node.spec
        workers.append(
            PlanWorker(
                name=spec.name,
                network_mbps=spec.network_mbps,
                rw_mbps=spec.rw_mbps,
                cpu_factor=spec.cpu_factor,
                link_latency=spec.link_latency,
                cache_capacity_mb=spec.cache_capacity_mb,
                preload=preload.get(name, ()),
            )
        )
    plan = ExecPlan(
        scheduler=runtime.scheduler.name,
        seed=runtime.config.seed,
        workers=tuple(workers),
        jobs=recorder.plan_jobs(handler),
        decisions=tuple(recorder.decisions),
    )
    return plan, result


#: The same capture; a service run's result is its ``ServiceReport``.
capture_service_plan = capture_workflow_plan
