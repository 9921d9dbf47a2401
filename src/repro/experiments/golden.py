"""One home for every golden fixture: record, re-record, drift-gate.

The repository pins these behavioural recordings:

``determinism``
    per-scheduler metrics of a fixed cell (``tests/golden_determinism
    .json``) -- any change to scheduling, caching or the cost model
    shows up here;
``perfetto``
    the exact Perfetto ``trace_event`` JSON of a fixed-seed two-worker
    run (``tests/golden_perfetto.json``) -- any change to span
    construction, track layout or exporter formatting shows up here;
``critical_path``
    the critical-path attribution and full decision ledger of the same
    cell (``tests/golden_critical_path.json``) -- any change to the
    chain recovery, category tiling or per-scheduler decision context
    shows up here;
``reconfig``
    metrics plus the migrate/swap event sequence of a pinned
    live-reconfiguration run (``tests/golden_reconfig.json``);
``scale``
    full result rows, per-worker bid and offer counts and -- on one
    observed cell each for ``bidding`` and ``baseline`` -- trace, flow
    and decision digests of ``bidding``, the three pull schedulers and
    ``spark`` at 100 and 400 workers, plus ``baseline`` with
    ``requeue="back"`` and ``baseline`` at 25 workers through a crash
    with restart and a pre-warm migration
    (``tests/golden_scale.json``): the determinism contract at the
    fleet sizes the benchmark measures, not only the 5-worker cell.

Both used to carry their own regen script with its own ``--check``
mode; this module is the single implementation behind them and behind
the one CLI entry point CI now gates on::

    PYTHONPATH=src python -m repro golden --check   # drift gate (CI)
    PYTHONPATH=src python -m repro golden           # re-record all
    PYTHONPATH=src python -m repro golden perfetto  # re-record one

A drift failure means the committed fixture no longer matches what the
code produces; if the behavioural change is deliberate, re-record and
review the fixture diff like any other code change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.cluster.profiles import WorkerProfile
from repro.cluster.worker_spec import WorkerSpec
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.obs import ObsConfig, build_spans, perfetto_trace
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.workload.job import Job, JobStream
from repro.workload.msr import TASK_ANALYZER

#: Default fixture directory: ``tests/`` at the repository root (this
#: file lives at ``src/repro/experiments/golden.py``).
FIXTURE_DIR = Path(__file__).resolve().parents[3] / "tests"

REGEN_HINT = "PYTHONPATH=src python -m repro golden"

# -- determinism fixture ----------------------------------------------------

DET_WORKLOAD = "80%_small"
DET_PROFILE = "fast-slow"
DET_SEED = 7
DET_ITERATIONS = 2


def record_determinism() -> dict:
    """Per-scheduler, per-iteration metrics of the pinned cell."""
    from repro.experiments.runner import CellSpec, run_cell

    golden = {}
    for scheduler in sorted(SCHEDULERS):
        results = run_cell(
            CellSpec(
                scheduler=scheduler,
                workload=DET_WORKLOAD,
                profile=DET_PROFILE,
                seed=DET_SEED,
                iterations=DET_ITERATIONS,
            )
        )
        golden[scheduler] = [
            {
                "iteration": result.iteration,
                "makespan_s": result.makespan_s,
                "cache_misses": result.cache_misses,
                "cache_hits": result.cache_hits,
                "data_load_mb": result.data_load_mb,
                "jobs_completed": result.jobs_completed,
            }
            for result in results
        ]
    return golden


def explain_determinism_drift(committed: dict, current: dict) -> list[str]:
    lines = []
    for scheduler in sorted(set(committed) | set(current)):
        was, now = committed.get(scheduler), current.get(scheduler)
        if was != now:
            lines.append(f"  {scheduler}:")
            lines.append(f"    committed: {json.dumps(was, sort_keys=True)}")
            lines.append(f"    current:   {json.dumps(now, sort_keys=True)}")
    return lines


# -- perfetto fixture -------------------------------------------------------

PERFETTO_SEED = 3
PERFETTO_SCHEDULER = "bidding"


def golden_runtime() -> WorkflowRuntime:
    """The pinned scenario: 2 unequal workers, 8 burst jobs, seed 3."""
    profile = WorkerProfile(
        "golden-2w",
        (
            WorkerSpec(name="w1", network_mbps=50.0, rw_mbps=100.0, link_latency=0.0),
            WorkerSpec(name="w2", network_mbps=40.0, rw_mbps=80.0, link_latency=0.0),
        ),
    )
    jobs = [
        Job(
            job_id=f"j{index}",
            task=TASK_ANALYZER,
            repo_id=f"r{index % 3}",
            size_mb=20.0 + 5.0 * (index % 3),
        )
        for index in range(8)
    ]
    return WorkflowRuntime(
        profile=profile,
        stream=JobStream.burst(jobs),
        scheduler=make_scheduler(PERFETTO_SCHEDULER),
        config=EngineConfig(
            seed=PERFETTO_SEED, trace=True, obs=ObsConfig(probe_interval_s=5.0)
        ),
    )


def record_perfetto() -> dict:
    """The exact Perfetto export of the pinned scenario."""
    runtime = golden_runtime()
    runtime.run()
    trace = runtime.metrics.trace
    return perfetto_trace(
        trace,
        spans=build_spans(trace),
        probes=runtime.obs.probes,
        flows=runtime.obs.flows,
        label="golden",
    )


def explain_perfetto_drift(committed: dict, current: dict) -> list[str]:
    was, now = committed["traceEvents"], current["traceEvents"]
    lines = [f"  {len(was)} committed events vs {len(now)} current"]
    for index, (a, b) in enumerate(zip(was, now)):
        if a != b:
            lines.append(f"  first differing event [{index}]:")
            lines.append(f"    committed: {json.dumps(a, sort_keys=True)}")
            lines.append(f"    current:   {json.dumps(b, sort_keys=True)}")
            break
    return lines


# -- critical-path fixture --------------------------------------------------


def record_critical_path() -> dict:
    """Critical-path attribution + decision summary of the perfetto cell.

    Rides on :func:`golden_runtime` (same fleet, jobs and seed as the
    perfetto fixture), so the two recordings drift together: a change
    that moves spans but not the chain -- or vice versa -- is visible as
    exactly one fixture failing.
    """
    from repro.obs import critical_path

    runtime = golden_runtime()
    runtime.run()
    path = critical_path(runtime.metrics.trace)
    assert path is not None, "golden cell must complete at least one job"
    ledger = runtime.obs.ledger
    return {
        "makespan_s": path.makespan,
        "chain": list(path.chain),
        "categories": {name: value for name, value in sorted(path.categories.items())},
        "slack": {job_id: value for job_id, value in sorted(path.slack.items())},
        "decisions": ledger.to_dicts() if ledger is not None else [],
    }


def explain_critical_path_drift(committed: dict, current: dict) -> list[str]:
    lines = []
    for key in ("makespan_s", "chain", "categories", "slack"):
        was, now = committed.get(key), current.get(key)
        if was != now:
            lines.append(f"  {key}:")
            lines.append(f"    committed: {json.dumps(was, sort_keys=True)}")
            lines.append(f"    current:   {json.dumps(now, sort_keys=True)}")
    was_decisions = committed.get("decisions", [])
    now_decisions = current.get("decisions", [])
    if was_decisions != now_decisions:
        lines.append(
            f"  {len(was_decisions)} committed decisions vs {len(now_decisions)} current"
        )
        for index, (a, b) in enumerate(zip(was_decisions, now_decisions)):
            if a != b:
                lines.append(f"  first differing decision [{index}]:")
                lines.append(f"    committed: {json.dumps(a, sort_keys=True)}")
                lines.append(f"    current:   {json.dumps(b, sort_keys=True)}")
                break
    return lines


# -- reconfig fixture -------------------------------------------------------

RECONFIG_SEED = 3
RECONFIG_SCHEDULER = "bidding"
RECONFIG_SWAP_TO = "baseline"


def reconfig_runtime() -> WorkflowRuntime:
    """The pinned live-reconfiguration scenario: the perfetto cell's
    fleet and workload, plus a 2-job migration at t=2 and a
    bidding->baseline hot-swap at t=4.  Every re-run of the same seed
    must checkpoint the same jobs, pick the same targets, and swap at
    the same instant -- the fixture freezes the full migrate/swap event
    sequence to prove it."""
    from repro.reconfig import JobMigration, ReconfigPlan, SchedulerSwap

    profile = WorkerProfile(
        "golden-2w",
        (
            WorkerSpec(name="w1", network_mbps=50.0, rw_mbps=100.0, link_latency=0.0),
            WorkerSpec(name="w2", network_mbps=40.0, rw_mbps=80.0, link_latency=0.0),
        ),
    )
    jobs = [
        Job(
            job_id=f"j{index}",
            task=TASK_ANALYZER,
            repo_id=f"r{index % 3}",
            size_mb=20.0 + 5.0 * (index % 3),
        )
        for index in range(8)
    ]
    plan = ReconfigPlan(
        migrations=(JobMigration(at_s=2.0, max_jobs=2, include_running=False),),
        swaps=(SchedulerSwap(at_s=4.0, scheduler=RECONFIG_SWAP_TO),),
    )
    return WorkflowRuntime(
        profile=profile,
        stream=JobStream.burst(jobs),
        scheduler=make_scheduler(RECONFIG_SCHEDULER),
        config=EngineConfig(seed=RECONFIG_SEED, trace=True, check=True),
        reconfig=plan,
    )


def record_reconfig() -> dict:
    """Run metrics plus the exact migrate/swap trace of the pinned cell."""
    runtime = reconfig_runtime()
    result = runtime.run()
    reconfig_events = [
        {
            "time": event.time,
            "kind": event.kind,
            "job_id": event.job_id,
            "worker": event.worker,
            "detail": str(event.detail),
        }
        for event in runtime.metrics.trace
        if event.kind.startswith(("migrate_", "swap_"))
    ]
    return {
        "makespan_s": result.makespan_s,
        "jobs_completed": result.jobs_completed,
        "cache_misses": result.cache_misses,
        "cache_hits": result.cache_hits,
        "data_load_mb": result.data_load_mb,
        "jobs_migrated": runtime.metrics.jobs_migrated,
        "scheduler_swaps": runtime.metrics.scheduler_swaps,
        "events": reconfig_events,
    }


def explain_reconfig_drift(committed: dict, current: dict) -> list[str]:
    lines = []
    for key in sorted(set(committed) | set(current)):
        if key == "events":
            continue
        was, now = committed.get(key), current.get(key)
        if was != now:
            lines.append(f"  {key}: committed {was!r} vs current {now!r}")
    was_events = committed.get("events", [])
    now_events = current.get("events", [])
    if was_events != now_events:
        lines.append(
            f"  {len(was_events)} committed reconfig events vs {len(now_events)} current"
        )
        for index, (a, b) in enumerate(zip(was_events, now_events)):
            if a != b:
                lines.append(f"  first differing event [{index}]:")
                lines.append(f"    committed: {json.dumps(a, sort_keys=True)}")
                lines.append(f"    current:   {json.dumps(b, sort_keys=True)}")
                break
    return lines


# -- scale fixture ----------------------------------------------------------

SCALE_SEED = 11
SCALE_JOBS = 300
#: Size of the shared repository (MB): the benchmark's ``bid-fleet``
#: stream pins it so seeds give comparable streams.
SCALE_HOT_REPO_MB = 762.0
#: cell name -> (scheduler, workers, every observer on?[, what else
#: :func:`scale_runtime` is told]).
SCALE_CELLS: dict[str, tuple] = {
    f"{scheduler}-{n_workers}": (scheduler, n_workers, False)
    for scheduler in ("bidding", "baseline", "matchmaking", "delay", "spark")
    for n_workers in (100, 400)
}
SCALE_CELLS["bidding-100-observed"] = ("bidding", 100, True)
SCALE_CELLS["baseline-100-observed"] = ("baseline", 100, True)
SCALE_CELLS["baseline-back-100"] = ("baseline", 100, False, {"requeue": "back"})
SCALE_CELLS["baseline-churn-25"] = ("baseline", 25, False, {"churn": "cascade"})
# The work path (executor, link, prefetcher): the other push schedulers,
# a prefetching fleet, an origin that 100 downloads contend for, and
# kills / checkpoints that land inside a download.
SCALE_CELLS.update(
    {f"{scheduler}-100": (scheduler, 100, False) for scheduler in ("bar", "random", "round-robin")}
)
SCALE_CELLS["spark-prefetch-100"] = ("spark", 100, False, {"engine": {"prefetch": True}})
SCALE_CELLS["bidding-origin-100"] = (
    "bidding", 100, False, {"engine": {"shared_origin_mbps": 120.0}}
)
SCALE_CELLS["spark-churn-100-observed"] = ("spark", 100, True, {"churn": "mid-download"})

#: churn name -> (crashes, migrations) as keyword dicts.
#: ``cascade``: a worker dies at 6 s, mid-cascade, and is back 10 s
#: later; at 16 s three jobs migrate onto pre-warmed caches.
#: ``mid-download`` (timed against the ``spark`` cell at 100 workers):
#: w0051 dies 0.10 s into the 0.2 s latency of its first download and
#: w0063 27.5 s into the flow of its second; w0093's running job is
#: checkpointed 10 s into a 99 s flow (its next job misses at 20.8 s and
#: waits for the link behind the abandoned transfer) and w0032's 0.10 s
#: into a latency.  Both dead workers come back on their old noise
#: stream and are then handed a job, so a noise factor the abandoned
#: transfer did not draw would show.
SCALE_CHURN: dict[str, tuple] = {
    "cascade": (
        ({"at_s": 6.0, "restart_after_s": 10.0},),
        ({"at_s": 16.0, "max_jobs": 3, "include_running": True},),
    ),
    "mid-download": (
        (
            {"at_s": 1.25, "worker": "w0051", "restart_after_s": 10.0},
            {"at_s": 50.0, "worker": "w0063", "restart_after_s": 10.0},
        ),
        (
            {"at_s": 10.0, "source": "w0093", "include_running": True},
            {"at_s": 21.15, "source": "w0032", "include_running": True},
            {"at_s": 30.0, "target": "w0051"},
            {"at_s": 70.0, "target": "w0063"},
        ),
    ),
}


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    ).hexdigest()


def scale_runtime(
    n_workers: int,
    observed: bool,
    scheduler: str = "bidding",
    churn: str | None = None,
    engine: dict | None = None,
    **kwargs,
) -> WorkflowRuntime:
    """The benchmark's ``bid-fleet`` shape: near-equal workers (eleven
    network classes), ``80%_large`` at 0.2 s inter-arrival with the
    shared repository's size pinned; ``kwargs`` go to the scheduler,
    ``engine`` overrides :class:`EngineConfig` fields and ``churn``
    names a :data:`SCALE_CHURN` plan of crashes and migrations."""
    from repro.faults import FaultPlan, RecoveryConfig, WorkerCrash
    from repro.reconfig import JobMigration, ReconfigPlan
    from repro.workload.generators import job_config_by_name
    from repro.workload.job import JobArrival

    crashes, migrations = SCALE_CHURN[churn] if churn else ((), ())

    profile = WorkerProfile(
        f"fleet-{n_workers}",
        tuple(
            WorkerSpec(
                f"w{i:04d}",
                network_mbps=10 * (1 + 0.05 * ((i % 11) - 5) / 5),
                rw_mbps=60,
            )
            for i in range(n_workers)
        ),
    )
    config = dataclasses.replace(
        job_config_by_name("80%_large"), n_jobs=SCALE_JOBS, mean_interarrival_s=0.2
    )
    _corpus, stream = config.build(seed=SCALE_SEED)
    shared = f"{config.name}-shared"
    stream = JobStream(
        arrivals=[
            JobArrival(
                arrival.at,
                dataclasses.replace(arrival.job, size_mb=SCALE_HOT_REPO_MB)
                if arrival.job.repo_id == shared
                else arrival.job,
            )
            for arrival in stream
        ],
        name=stream.name,
    )
    return WorkflowRuntime(
        profile=profile,
        stream=stream,
        scheduler=make_scheduler(scheduler, **kwargs),
        config=EngineConfig(
            seed=SCALE_SEED, trace=observed, check=observed, obs=observed, **(engine or {})
        ),
        faults=FaultPlan(
            crashes=tuple(WorkerCrash(**crash) for crash in crashes),
            recovery=RecoveryConfig(),
        )
        if crashes
        else None,
        reconfig=ReconfigPlan(
            migrations=tuple(JobMigration(**migration) for migration in migrations)
        )
        if migrations
        else None,
    )


def record_scale() -> dict:
    """Result rows and bid (pull cells: offer) counts of the fleet-sized cells."""
    golden = {}
    for name, (scheduler, n_workers, observed, *extra) in SCALE_CELLS.items():
        runtime = scale_runtime(n_workers, observed, scheduler, **(extra[0] if extra else {}))
        row = dataclasses.asdict(runtime.run())
        workers = runtime.metrics.workers
        bids = {worker: block.bids_submitted for worker, block in workers.items()}
        cell = {
            key: value
            for key, value in row.items()
            if not isinstance(value, (dict, list, tuple))
        }
        cell["failed_jobs"] = list(row["failed_jobs"])
        cell["bids_submitted"] = sum(bids.values())
        per_worker = [row["per_worker_mb"], row["per_worker_jobs"], bids]
        if runtime.metrics.offers_made:  # a pull cell: who declined, who accepted
            per_worker.append(
                {w: (b.offers_rejected, b.offers_accepted) for w, b in workers.items()}
            )
        cell["per_worker_sha256"] = _digest(per_worker)
        cell["assignments_sha256"] = _digest(runtime.master.assignments)
        if observed:
            trace = runtime.metrics.trace
            cell["trace_events"] = len(trace)
            cell["trace_sha256"] = _digest(
                [
                    (event.time, event.kind, event.job_id, event.worker, event.detail)
                    for event in trace
                ]
            )
            cell["flows_sha256"] = _digest(
                [dataclasses.astuple(flow) for flow in runtime.obs.flows]
            )
            cell["decisions_sha256"] = _digest(runtime.obs.ledger.to_dicts())
            cell["monitor_checks"] = runtime.monitor.checks
        golden[name] = cell
    return golden


def explain_scale_drift(committed: dict, current: dict) -> list[str]:
    lines = []
    for cell in sorted(set(committed) | set(current)):
        was, now = committed.get(cell, {}), current.get(cell, {})
        for key in sorted(set(was) | set(now)):
            if was.get(key) != now.get(key):
                lines.append(
                    f"  {cell}.{key}: committed {was.get(key)!r} vs current {now.get(key)!r}"
                )
    return lines


# -- the registry and the shared record/check machinery ---------------------


@dataclass(frozen=True)
class GoldenFixture:
    """One pinned recording: how to produce it and how to explain drift."""

    name: str
    filename: str
    indent: int
    record: Callable[[], dict]
    explain_drift: Callable[[dict, dict], list[str]]


FIXTURES: dict[str, GoldenFixture] = {
    "determinism": GoldenFixture(
        name="determinism",
        filename="golden_determinism.json",
        indent=2,
        record=record_determinism,
        explain_drift=explain_determinism_drift,
    ),
    "perfetto": GoldenFixture(
        name="perfetto",
        filename="golden_perfetto.json",
        indent=1,
        record=record_perfetto,
        explain_drift=explain_perfetto_drift,
    ),
    "critical_path": GoldenFixture(
        name="critical_path",
        filename="golden_critical_path.json",
        indent=2,
        record=record_critical_path,
        explain_drift=explain_critical_path_drift,
    ),
    "reconfig": GoldenFixture(
        name="reconfig",
        filename="golden_reconfig.json",
        indent=2,
        record=record_reconfig,
        explain_drift=explain_reconfig_drift,
    ),
    "scale": GoldenFixture(
        name="scale",
        filename="golden_scale.json",
        indent=2,
        record=record_scale,
        explain_drift=explain_scale_drift,
    ),
}


def fixture_path(fixture: GoldenFixture, directory: Path | None = None) -> Path:
    return (directory or FIXTURE_DIR) / fixture.filename


def regenerate(fixture: GoldenFixture, directory: Path | None = None) -> Path:
    """Re-record one fixture to disk; returns the path written."""
    path = fixture_path(fixture, directory)
    path.write_text(
        json.dumps(fixture.record(), indent=fixture.indent, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"golden fixture '{fixture.name}' re-recorded at {path}")
    return path


def check(fixture: GoldenFixture, directory: Path | None = None) -> int:
    """Drift gate: regenerate into memory, compare, exit-code semantics."""
    path = fixture_path(fixture, directory)
    committed = json.loads(path.read_text(encoding="utf-8"))
    current = fixture.record()
    if committed == current:
        print(f"golden fixture '{fixture.name}' at {path} matches the current code")
        return 0
    print(f"golden fixture '{fixture.name}' at {path} DRIFTED from the current code:")
    for line in fixture.explain_drift(committed, current):
        print(line)
    print(
        "If the behavioural change is deliberate, re-record with\n"
        f"  {REGEN_HINT} {fixture.name}"
    )
    return 1


def run(
    names: Sequence[str] = (),
    do_check: bool = False,
    directory: Path | None = None,
) -> int:
    """Record (or gate) the named fixtures -- all of them by default.

    Returns a process exit code: non-zero if any gated fixture drifted.
    """
    selected = list(names) or sorted(FIXTURES)
    unknown = [name for name in selected if name not in FIXTURES]
    if unknown:
        raise SystemExit(
            f"unknown golden fixture(s) {unknown}; available: {sorted(FIXTURES)}"
        )
    status = 0
    for name in selected:
        fixture = FIXTURES[name]
        if do_check:
            status |= check(fixture, directory)
        else:
            regenerate(fixture, directory)
    return status
