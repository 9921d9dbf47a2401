"""Shrinking scenario fuzzer: random runs checked by monitors + oracle.

``repro fuzz`` repeatedly

1. **generates** a random scenario -- cluster (2-6 heterogeneous
   workers) x workload (4-24 jobs over a small repository pool) x fault
   plan (crashes, partitions, loss windows) x scheduler -- from a seeded
   RNG, so every scenario is reproducible from its integer seed alone;
2. **runs** it with invariant monitors *and* the trace oracle enabled;
3. on failure, **shrinks** the scenario greedily -- dropping jobs, then
   workers, then fault entries, then the shared origin -- re-running
   after each removal and keeping it only while the same failure
   signature reproduces;
4. emits the minimal scenario as JSON that ``repro run --scenario``
   replays exactly.

Scenario generation is deliberately conservative about *liveness*: a
crash without a restart always comes with recovery enabled, and loss
windows come with a redispatch timeout, so a hang indicts the engine
rather than the scenario.  Anything the checked run raises --
``InvariantViolation``, ``OracleMismatch``, or an unexpected engine
error -- counts as a failure worth shrinking.

Self-validation: ``fuzz(..., planted="double-allocate")``,
``planted="overdelivery"`` and ``planted="buggy-migrator"`` force one
of the :mod:`repro.fuzz.planted` bugs into every generated scenario;
the fuzzer must catch each and shrink it to a handful of jobs on a
couple of workers.

``fuzz(..., reconfig=True)`` additionally draws live-reconfiguration
events -- job migrations and scheduler hot-swaps -- into each scenario,
so the migration checkpoint/rebind path and the quiesce/export/import
handoff are exercised against random crash/partition/loss
interleavings across every scheduler.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from repro.check.invariants import InvariantViolation
from repro.check.oracle import OracleMismatch, verify_run
from repro.cluster.profiles import WorkerProfile
from repro.cluster.worker_spec import WorkerSpec
from repro.config import read_json
from repro.faults.plan import (
    FaultPlan,
    MessageLoss,
    NetworkPartition,
    RecoveryConfig,
    WorkerCrash,
)
from repro.fuzz.planted import (
    PLANTED,
    plant_buggy_migrator,
    plant_overdelivering_origin,
)
from repro.host import EngineConfig, WorkflowRuntime
from repro.reconfig.plan import JobMigration, ReconfigPlan, SchedulerSwap
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER

#: Planted-bug selectors accepted by :func:`generate_scenario`/:func:`fuzz`.
PLANTS = ("double-allocate", "overdelivery", "buggy-migrator")


# ----------------------------------------------------------------------
# Scenario: a self-contained, JSON-serialisable run description
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one checked run, bit-for-bit.

    ``seed`` drives the engine's own noise/fault streams; the cluster
    and workload are stored *explicitly* (not re-generated from the
    seed) so the shrinker can remove individual jobs and workers.
    """

    seed: int
    scheduler: str
    workers: tuple[WorkerSpec, ...]
    jobs: tuple[JobArrival, ...]
    faults: Optional[FaultPlan] = None
    shared_origin_mbps: Optional[float] = None
    #: Self-validation plant: swap the origin for an
    #: :class:`~repro.fuzz.planted.OverdeliveringPipe` before running.
    planted_pipe: bool = False
    #: Live-reconfiguration events (migrations/hot-swaps), or ``None``.
    reconfig: Optional[ReconfigPlan] = None
    #: Self-validation plant: build the run with the job-dropping
    #: :func:`~repro.fuzz.planted.plant_buggy_migrator` controller.
    planted_migrator: bool = False

    def __post_init__(self) -> None:
        if not self.workers:
            raise ValueError("scenario needs at least one worker")
        if not self.jobs:
            raise ValueError("scenario needs at least one job")
        if self.scheduler not in SCHEDULERS and self.scheduler not in PLANTED:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.planted_pipe and self.shared_origin_mbps is None:
            raise ValueError("planted_pipe needs shared_origin_mbps")
        if self.planted_migrator and (
            self.reconfig is None or not self.reconfig.migrations
        ):
            raise ValueError("planted_migrator needs a migration to corrupt")

    # -- JSON round-trip ----------------------------------------------
    def to_dict(self) -> dict:
        def spec_dict(spec: WorkerSpec) -> dict:
            return {
                "name": spec.name,
                "network_mbps": spec.network_mbps,
                "rw_mbps": spec.rw_mbps,
                "cpu_factor": spec.cpu_factor,
                # JSON has no Infinity; None encodes the unbounded cache.
                "cache_capacity_mb": (
                    None
                    if math.isinf(spec.cache_capacity_mb)
                    else spec.cache_capacity_mb
                ),
                "link_latency": spec.link_latency,
            }

        def job_dict(arrival: JobArrival) -> dict:
            return {
                "at": arrival.at,
                "job_id": arrival.job.job_id,
                "repo_id": arrival.job.repo_id,
                "size_mb": arrival.job.size_mb,
                "base_compute_s": arrival.job.base_compute_s,
            }

        return {
            "seed": self.seed,
            "scheduler": self.scheduler,
            "workers": [spec_dict(s) for s in self.workers],
            "jobs": [job_dict(a) for a in self.jobs],
            "faults": self.faults.to_dict() if self.faults is not None else None,
            "shared_origin_mbps": self.shared_origin_mbps,
            "planted_pipe": self.planted_pipe,
            "reconfig": self.reconfig.to_dict() if self.reconfig is not None else None,
            "planted_migrator": self.planted_migrator,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        workers = tuple(
            WorkerSpec(
                name=w["name"],
                network_mbps=w["network_mbps"],
                rw_mbps=w["rw_mbps"],
                cpu_factor=w.get("cpu_factor", 1.0),
                cache_capacity_mb=(
                    float("inf")
                    if w.get("cache_capacity_mb") is None
                    else w["cache_capacity_mb"]
                ),
                link_latency=w.get("link_latency", 0.2),
            )
            for w in data["workers"]
        )
        jobs = tuple(
            JobArrival(
                at=j["at"],
                job=Job(
                    job_id=j["job_id"],
                    task=TASK_ANALYZER,
                    repo_id=j["repo_id"],
                    size_mb=j["size_mb"],
                    base_compute_s=j.get("base_compute_s", 0.0),
                    payload=("fuzz", j["repo_id"]),
                ),
            )
            for j in data["jobs"]
        )
        faults = data.get("faults")
        reconfig = data.get("reconfig")
        return cls(
            seed=data["seed"],
            scheduler=data["scheduler"],
            workers=workers,
            jobs=jobs,
            faults=FaultPlan.from_dict(faults) if faults is not None else None,
            shared_origin_mbps=data.get("shared_origin_mbps"),
            planted_pipe=bool(data.get("planted_pipe", False)),
            reconfig=ReconfigPlan.from_dict(reconfig) if reconfig is not None else None,
            planted_migrator=bool(data.get("planted_migrator", False)),
        )

    def to_json(self, path: Optional[str] = None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, source: str) -> "Scenario":
        """Parse a scenario from a JSON string or an ``@path`` reference."""
        return cls.from_dict(read_json(source))


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


def generate_scenario(
    seed: int, planted: Optional[str] = None, reconfig: bool = False
) -> Scenario:
    """Random cluster x workload x faults x scheduler from ``seed``.

    Deterministic: the same ``(seed, planted, reconfig)`` always yields
    the same scenario.  ``planted`` forces one of :data:`PLANTS` into
    the run; ``reconfig`` draws live migrations and scheduler hot-swaps
    into the event mix (implied by ``planted="buggy-migrator"``, which
    needs a migration to corrupt).
    """
    if planted is not None and planted not in PLANTS:
        raise ValueError(f"unknown plant {planted!r}; valid: {PLANTS}")
    rng = np.random.default_rng(seed)

    n_workers = int(rng.integers(2, 7))
    workers = tuple(
        WorkerSpec(
            name=f"w{i + 1}",
            network_mbps=float(rng.uniform(5.0, 50.0)),
            rw_mbps=float(rng.uniform(20.0, 200.0)),
            cpu_factor=float(rng.uniform(0.5, 2.0)),
            link_latency=float(rng.uniform(0.0, 0.3)),
        )
        for i in range(n_workers)
    )

    n_repos = int(rng.integers(1, 6))
    repo_sizes = rng.uniform(1.0, 200.0, size=n_repos)
    n_jobs = int(rng.integers(4, 25))
    mean_gap = float(rng.uniform(0.2, 3.0))
    at = 0.0
    arrivals = []
    for index in range(n_jobs):
        repo = int(rng.integers(n_repos))
        arrivals.append(
            JobArrival(
                at=at,
                job=Job(
                    job_id=f"job-{index:03d}",
                    task=TASK_ANALYZER,
                    repo_id=f"repo-{repo:02d}",
                    size_mb=float(repo_sizes[repo]),
                    base_compute_s=float(rng.uniform(0.0, 2.0)),
                    payload=("fuzz", f"repo-{repo:02d}"),
                ),
            )
        )
        at += float(rng.exponential(mean_gap))

    faults: Optional[FaultPlan] = None
    if rng.random() < 0.7:
        crashes = tuple(
            WorkerCrash(
                at_s=float(rng.uniform(1.0, 30.0)),
                restart_after_s=float(rng.uniform(5.0, 20.0)),
            )
            for _ in range(int(rng.integers(0, 3)))
        )
        partitions = ()
        if rng.random() < 0.5 and n_workers >= 3:
            start = float(rng.uniform(1.0, 30.0))
            cut = int(rng.integers(n_workers))
            partitions = (
                NetworkPartition(
                    start_s=start,
                    end_s=start + float(rng.uniform(5.0, 20.0)),
                    group=(f"w{cut + 1}",),
                ),
            )
        loss = ()
        if rng.random() < 0.3:
            start = float(rng.uniform(1.0, 30.0))
            loss = (
                MessageLoss(
                    start_s=start,
                    end_s=start + float(rng.uniform(5.0, 15.0)),
                    probability=float(rng.uniform(0.05, 0.2)),
                ),
            )
        if crashes or partitions or loss:
            # Liveness guard: injected faults always come with recovery
            # and a redispatch timeout, so a stuck run is an engine bug.
            faults = FaultPlan(
                crashes=crashes,
                partitions=partitions,
                message_loss=loss,
                recovery=RecoveryConfig(redispatch_timeout_s=120.0),
            )

    shared_origin = float(rng.uniform(10.0, 80.0)) if rng.random() < 0.5 else None

    scheduler = sorted(SCHEDULERS)[int(rng.integers(len(SCHEDULERS)))]
    planted_pipe = False
    if planted == "double-allocate":
        scheduler = "planted:double-allocate"
    elif planted == "overdelivery":
        planted_pipe = True
        if shared_origin is None:
            shared_origin = 40.0

    plan: Optional[ReconfigPlan] = None
    planted_migrator = planted == "buggy-migrator"
    if reconfig or planted_migrator:
        migrations = tuple(
            JobMigration(
                at_s=float(rng.uniform(0.5, 20.0)),
                max_jobs=int(rng.integers(1, 4)),
                include_running=bool(rng.random() < 0.5),
                ack_timeout_s=30.0,
            )
            for _ in range(int(rng.integers(0, 3)))
        )
        swaps = ()
        if rng.random() < 0.5:
            swap_to = sorted(SCHEDULERS)[int(rng.integers(len(SCHEDULERS)))]
            swap_kwargs: dict = {}
            if (
                faults is not None
                and faults.message_loss
                and swap_to in ("matchmaking", "baseline", "delay")
            ):
                # Same liveness guard run_scenario applies to the initial
                # scheduler: a swapped-in pull policy under message loss
                # needs a bounded response wait, or a dropped poll wedges
                # the run and indicts the scenario rather than the engine.
                swap_kwargs["response_timeout_s"] = 10.0
            swaps = (
                SchedulerSwap(
                    at_s=float(rng.uniform(1.0, 25.0)),
                    scheduler=swap_to,
                    scheduler_kwargs=swap_kwargs,
                ),
            )
        if planted_migrator:
            # The plant corrupts the first migration; guarantee one that
            # fires early enough to find jobs still on a worker's books.
            migrations = (
                JobMigration(
                    at_s=float(rng.uniform(0.5, 5.0)),
                    max_jobs=2,
                    include_running=True,
                ),
            ) + migrations
        if migrations or swaps:
            plan = ReconfigPlan(migrations=migrations, swaps=swaps)

    return Scenario(
        seed=seed,
        scheduler=scheduler,
        workers=workers,
        jobs=tuple(arrivals),
        faults=faults,
        shared_origin_mbps=shared_origin,
        planted_pipe=planted_pipe,
        reconfig=plan,
        planted_migrator=planted_migrator,
    )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioOutcome:
    """The result of one checked scenario run.

    ``signature`` is ``None`` for a clean run; otherwise
    ``(failure kind, detail)`` -- e.g. ``("InvariantViolation",
    "exactly-once-allocation")`` -- stable across re-runs of the same
    scenario and used by the shrinker to confirm a candidate still fails
    *the same way*.
    """

    signature: Optional[tuple[str, str]]
    message: str = ""

    @property
    def failed(self) -> bool:
        return self.signature is not None


def run_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Run ``scenario`` with monitors + oracle; classify the outcome."""
    if scenario.scheduler in PLANTED:
        policy = PLANTED[scenario.scheduler]()
    else:
        kwargs: dict = {}
        if (
            scenario.faults is not None
            and scenario.faults.message_loss
            and scenario.scheduler in ("matchmaking", "baseline", "delay")
        ):
            # Pull-style control messages are droppable; the bounded
            # response wait keeps lossy scenarios live so a hang here
            # indicts the engine rather than the scenario.
            kwargs["response_timeout_s"] = 10.0
        policy = make_scheduler(scenario.scheduler, **kwargs)
    runtime = WorkflowRuntime(
        profile=WorkerProfile(name="fuzz", specs=scenario.workers),
        stream=JobStream(arrivals=list(scenario.jobs), name="fuzz"),
        scheduler=policy,
        config=EngineConfig(
            seed=scenario.seed,
            check=True,
            trace=True,
            shared_origin_mbps=scenario.shared_origin_mbps,
            # Generous for these small scenarios (arrivals span < 100 sim
            # seconds) but far below the engine default, so a stalled run
            # fails fast instead of spinning heartbeats for 1e7 sim-s.
            max_sim_time=50_000.0,
        ),
        faults=scenario.faults,
        allow_partial=True,
        reconfig=scenario.reconfig,
    )
    if scenario.planted_pipe:
        plant_overdelivering_origin(runtime)
    if scenario.planted_migrator:
        plant_buggy_migrator(runtime)
    try:
        result = runtime.run()
        verify_run(result, runtime.metrics)
    except InvariantViolation as exc:
        return ScenarioOutcome(
            signature=("InvariantViolation", exc.invariant.name), message=str(exc)
        )
    except OracleMismatch as exc:
        fields = ",".join(sorted(str(m[0]) for m in exc.mismatches))
        return ScenarioOutcome(signature=("OracleMismatch", fields), message=str(exc))
    except Exception as exc:  # engine crash/hang: also a finding
        return ScenarioOutcome(
            signature=(type(exc).__name__, ""), message=str(exc)
        )
    return ScenarioOutcome(signature=None)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------


def _candidates(scenario: Scenario):
    """Yield one-step-smaller variants, most aggressive first."""
    # Drop jobs (later jobs first, so survivors keep their arrival order).
    for index in reversed(range(len(scenario.jobs))):
        if len(scenario.jobs) > 1:
            jobs = scenario.jobs[:index] + scenario.jobs[index + 1 :]
            yield replace(scenario, jobs=jobs)
    # Drop workers, pruning fault entries that name the removed worker.
    for index in range(len(scenario.workers)):
        if len(scenario.workers) <= 1:
            break
        workers = scenario.workers[:index] + scenario.workers[index + 1 :]
        removed = scenario.workers[index].name
        faults = scenario.faults
        if faults is not None:
            names = {spec.name for spec in workers}
            faults = replace(
                faults,
                crashes=tuple(
                    c for c in faults.crashes if c.worker is None or c.worker != removed
                ),
                partitions=tuple(
                    p for p in faults.partitions if set(p.group) & names
                ),
            )
        try:
            yield replace(scenario, workers=workers, faults=faults)
        except ValueError:
            continue
    # Drop individual fault entries, then the whole plan.
    faults = scenario.faults
    if faults is not None:
        for name in ("crashes", "partitions", "message_loss"):
            entries = getattr(faults, name)
            for index in range(len(entries)):
                trimmed = entries[:index] + entries[index + 1 :]
                yield replace(scenario, faults=replace(faults, **{name: trimmed}))
        yield replace(scenario, faults=None)
    # Drop individual reconfig entries, then the whole plan.  Dropping
    # the migration the migrator plant corrupts is invalid (the guard in
    # ``__post_init__`` raises), exactly like the pipe plant's origin.
    plan = scenario.reconfig
    if plan is not None:
        for name in ("migrations", "swaps"):
            entries = getattr(plan, name)
            for index in range(len(entries)):
                trimmed = entries[:index] + entries[index + 1 :]
                shrunk_plan = replace(plan, **{name: trimmed})
                try:
                    yield replace(
                        scenario,
                        reconfig=None if shrunk_plan.is_trivial else shrunk_plan,
                    )
                except ValueError:
                    continue
        if not scenario.planted_migrator:
            yield replace(scenario, reconfig=None)
    # Drop the shared origin (impossible while the pipe plant needs it).
    if scenario.shared_origin_mbps is not None and not scenario.planted_pipe:
        yield replace(scenario, shared_origin_mbps=None)


def shrink(
    scenario: Scenario,
    signature: Optional[tuple[str, str]] = None,
    max_runs: int = 500,
) -> Scenario:
    """Greedy shrink: keep any one-step reduction that still fails
    with the same signature; stop at a fixpoint (or ``max_runs``).
    """
    if signature is None:
        outcome = run_scenario(scenario)
        if not outcome.failed:
            raise ValueError("cannot shrink a passing scenario")
        signature = outcome.signature
    runs = 0
    progress = True
    while progress and runs < max_runs:
        progress = False
        for candidate in _candidates(scenario):
            runs += 1
            if runs >= max_runs:
                break
            if run_scenario(candidate).signature == signature:
                scenario = candidate
                progress = True
                break  # restart from the shrunk scenario
    return scenario


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Failure:
    """One distinct failure: the original scenario and its shrunk form."""

    signature: tuple[str, str]
    message: str
    scenario: Scenario
    shrunk: Scenario


@dataclass
class FuzzReport:
    """What a fuzz session did: scenarios run, distinct failures found."""

    scenarios_run: int = 0
    elapsed_s: float = 0.0
    failures: list[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz(
    budget_s: float = 60.0,
    seed: int = 0,
    planted: Optional[str] = None,
    max_scenarios: Optional[int] = None,
    on_scenario: Optional[Callable[[int, Scenario, ScenarioOutcome], None]] = None,
    reconfig: bool = False,
) -> FuzzReport:
    """Generate-and-check scenarios until the wall-clock budget runs out.

    Failures are deduplicated by signature (the first witness of each is
    shrunk and kept).  ``on_scenario`` observes every run (for CLI
    progress); ``max_scenarios`` bounds the loop for tests; ``reconfig``
    mixes migrations and hot-swaps into every generated scenario.
    """
    report = FuzzReport()
    seen: set[tuple[str, str]] = set()
    started = time.monotonic()
    index = 0
    while time.monotonic() - started < budget_s:
        if max_scenarios is not None and index >= max_scenarios:
            break
        scenario = generate_scenario(seed + index, planted=planted, reconfig=reconfig)
        outcome = run_scenario(scenario)
        report.scenarios_run += 1
        if on_scenario is not None:
            on_scenario(index, scenario, outcome)
        if outcome.failed and outcome.signature not in seen:
            seen.add(outcome.signature)
            report.failures.append(
                Failure(
                    signature=outcome.signature,
                    message=outcome.message,
                    scenario=scenario,
                    shrunk=shrink(scenario, outcome.signature),
                )
            )
        index += 1
    report.elapsed_s = time.monotonic() - started
    return report


__all__ = [
    "Failure",
    "FuzzReport",
    "PLANTS",
    "Scenario",
    "ScenarioOutcome",
    "fuzz",
    "generate_scenario",
    "run_scenario",
    "shrink",
]
