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
    with restart and a pre-warm migration, one 25-worker cell per path
    of the fault injector and the reconfiguration controller, and the
    MSR pipeline on a rate-limited search API
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


# -- perfetto fixture -------------------------------------------------------

PERFETTO_SEED = 3
PERFETTO_SCHEDULER = "bidding"


def _golden_cell() -> tuple[WorkerProfile, JobStream]:
    """2 unequal workers and 8 burst jobs."""
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
    return profile, JobStream.burst(jobs)


def golden_runtime() -> WorkflowRuntime:
    """The pinned scenario: :func:`_golden_cell` under bidding, seed 3."""
    profile, stream = _golden_cell()
    return WorkflowRuntime(
        profile=profile,
        stream=stream,
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

    plan = ReconfigPlan(
        migrations=(JobMigration(at_s=2.0, max_jobs=2, include_running=False),),
        swaps=(SchedulerSwap(at_s=4.0, scheduler=RECONFIG_SWAP_TO),),
    )
    profile, stream = _golden_cell()
    return WorkflowRuntime(
        profile=profile,
        stream=stream,
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
# The contest loop: a bidding -> bidding hot-swap with jobs pending, the
# whole fleet down at once (jobs park and retry until a worker is back)
# and four contests at a time that close on the first idle holder (a
# quarter of the fleet starts warm, so there are some).
SCALE_CELLS["bidding-swap-100"] = ("bidding", 100, False, {"churn": "swap"})
SCALE_CELLS["bidding-down-25"] = ("bidding", 25, False, {"fleet_down": (20.0, 25.0, 0.25)})
SCALE_CELLS["bidding-fast4-100"] = (
    "bidding",
    100,
    False,
    {"warm": 25, "fast_local_close": True, "max_concurrent_contests": 4},
)

# The fault injector and the reconfiguration controller: one cell per
# path (see SCALE_CHURN), and the MSR pipeline's searches on an API
# limited to 4 requests a minute, w4 killed inside one of them.
SCALE_CELLS["bidding-degrade-25"] = ("bidding", 25, False, {"churn": "degrade"})
SCALE_CELLS["bidding-partition-25"] = ("bidding", 25, False, {"churn": "partition"})
SCALE_CELLS["baseline-loss-25"] = (
    "baseline", 25, False, {"churn": "loss", "response_timeout_s": 2.0}
)
SCALE_CELLS["baseline-renewal-25"] = ("baseline", 25, False, {"churn": "renewal"})
SCALE_CELLS["bidding-ack-timeout-25"] = ("bidding", 25, False, {"churn": "ack-timeout"})
SCALE_CELLS["bidding-empty-target-25-observed"] = ("bidding", 25, True, {"churn": "empty-target"})
SCALE_CELLS["bidding-quiesce-timeout-25"] = ("bidding", 25, False, {"churn": "quiesce-timeout"})
SCALE_CELLS["bidding-msr-5"] = ("bidding", 5, False, {"churn": "msr-kill", "msr_rate_limit": 4})

#: churn name -> the cell's :class:`~repro.faults.FaultPlan` and
#: :class:`~repro.reconfig.ReconfigPlan`, as their ``from_dict`` input.
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
#: ``swap``: bidding hands over to a fresh bidding policy at 20 s, with
#: about 35 jobs waiting for a contest.
#: The rest drive one path of the fault injector or the reconfiguration
#: controller each: a degraded-link window, a partition that holds
#: reliable messages and drops the rest, a loss window that pull loss
#: timeouts recover from, crash renewals whose repairs restart nodes, a
#: migration request held by a partition past its ack deadline (the
#: late ack is rebound), a migration onto a dead target that retries
#: until it is back, and a swap whose quiesce times out.  ``msr-kill``
#: kills an MSR worker inside a rate-limited search.
SCALE_CHURN: dict[str, dict] = {
    "cascade": {
        "faults": {"crashes": [{"at_s": 6.0, "restart_after_s": 10.0}]},
        "reconfig": {"migrations": [{"at_s": 16.0, "max_jobs": 3, "include_running": True}]},
    },
    "mid-download": {
        "faults": {
            "crashes": [
                {"at_s": 1.25, "worker": "w0051", "restart_after_s": 10.0},
                {"at_s": 50.0, "worker": "w0063", "restart_after_s": 10.0},
            ]
        },
        "reconfig": {
            "migrations": [
                {"at_s": 10.0, "source": "w0093", "include_running": True},
                {"at_s": 21.15, "source": "w0032", "include_running": True},
                {"at_s": 30.0, "target": "w0051"},
                {"at_s": 70.0, "target": "w0063"},
            ]
        },
    },
    "swap": {"reconfig": {"swaps": [{"at_s": 20.0, "scheduler": "bidding"}]}},
    "degrade": {"faults": {"degradations": [
        dict(start_s=10.0, end_s=40.0, bandwidth_factor=0.25, extra_latency_s=0.5,
             targets=["w0001", "w0002", "w0003", "w0004"])
    ]}},
    "partition": {"faults": {"partitions": [
        dict(start_s=10.0, end_s=40.0, group=[f"w{i:04d}" for i in range(8)])
    ]}},
    "loss": {"faults": {"message_loss": [dict(start_s=5.0, end_s=40.0, probability=0.2)]}},
    "renewal": {"faults": {"renewals": [
        dict(mtbf_s=8.0, mttr_s=5.0, start_s=5.0, end_s=50.0, max_crashes=4)
    ]}},
    "ack-timeout": {
        "faults": {"partitions": [dict(start_s=10.02, end_s=14.0, group=["w0002"])]},
        "reconfig": {"migrations": [
            dict(at_s=10.0, source="w0002", include_running=True, ack_timeout_s=1.0)
        ]},
    },
    "empty-target": {
        "faults": {"crashes": [dict(at_s=10.0, worker="w0005", restart_after_s=5.5)]},
        "reconfig": {"migrations": [dict(at_s=12.0, target="w0005", max_jobs=2)]},
    },
    "quiesce-timeout": {"reconfig": {"swaps": [
        dict(at_s=20.0, scheduler="baseline", quiesce_timeout_s=0.1, poll_s=0.03)
    ]}},
    "msr-kill": {"faults": {"crashes": [dict(at_s=790.0, worker="w4", restart_after_s=10.0)]}},
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
    fleet_down: tuple | None = None,
    warm: int = 0,
    msr_rate_limit: int | None = None,
    **kwargs,
) -> WorkflowRuntime:
    """The benchmark's ``bid-fleet`` shape: near-equal workers (eleven
    network classes), ``80%_large`` at 0.2 s inter-arrival with the
    shared repository's size pinned; ``kwargs`` go to the scheduler,
    ``engine`` overrides :class:`EngineConfig` fields, ``churn``
    names a :data:`SCALE_CHURN` plan of crashes, migrations and swaps,
    and ``fleet_down = (at_s, back_s, every_s)`` kills every worker at
    ``at_s`` -- which the fault injector never does: it spares the last
    one -- and restarts them one every ``every_s`` from ``back_s`` on;
    the first ``warm`` workers start with the shared repository cached.
    ``msr_rate_limit`` runs the MSR pipeline of
    :func:`~repro.experiments.tables_msr.run_one` instead, its searches
    limited to that many requests a minute, under ``churn``'s faults."""
    from repro.faults import FaultPlan
    from repro.reconfig import ReconfigPlan
    from repro.workload.generators import job_config_by_name
    from repro.workload.job import JobArrival

    plans = SCALE_CHURN[churn] if churn else {}
    faults = (
        FaultPlan.from_dict(plans.get("faults", {})) if "faults" in plans or fleet_down else None
    )
    if msr_rate_limit is not None:
        from repro.experiments.tables_msr import msr_runtime

        return msr_runtime(scheduler, SCALE_SEED, msr_rate_limit, faults)

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
    runtime = WorkflowRuntime(
        profile=profile,
        stream=stream,
        scheduler=make_scheduler(scheduler, **kwargs),
        initial_caches={
            spec.name: {shared: SCALE_HOT_REPO_MB} for spec in profile.specs[:warm]
        },
        config=EngineConfig(
            seed=SCALE_SEED, trace=observed, check=observed, obs=observed, **(engine or {})
        ),
        faults=faults,
        reconfig=ReconfigPlan.from_dict(plans["reconfig"]) if "reconfig" in plans else None,
    )
    if fleet_down:
        at_s, back_s, every_s = fleet_down
        sim, workers = runtime.sim, runtime.workers
        sim.call_at(at_s, lambda: [node.kill() for node in list(workers.values())])
        for i, name in enumerate(list(workers)):
            sim.call_at(back_s + every_s * i, runtime.restart_worker, name)
    return runtime


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
        if runtime.injector is not None:
            broker = runtime.topology.broker
            cell["faults_sha256"] = _digest(runtime.injector.events)
            cell["messages_dropped"] = [broker.dropped, broker.partition_dropped]
        if runtime.reconfig_controller is not None:
            cell["reconfig_sha256"] = _digest(runtime.reconfig_controller.events)
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


# -- the registry and the shared record/check machinery ---------------------


#: Stands for a key one side of a drift does not have.
_ABSENT = "<absent>"


def _first_difference(committed, current, path: str = ""):
    """``(key path, committed, current)`` where two JSON values first
    differ (keys in sorted order), or ``None`` when they are equal."""
    if isinstance(committed, dict) and isinstance(current, dict):
        for key in sorted(set(committed) | set(current)):
            if key not in committed or key not in current:
                return f"{path}.{key}", committed.get(key, _ABSENT), current.get(key, _ABSENT)
            found = _first_difference(committed[key], current[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(committed, list) and isinstance(current, list):
        for index, (was, now) in enumerate(zip(committed, current)):
            found = _first_difference(was, now, f"{path}[{index}]")
            if found is not None:
                return found
        if len(committed) != len(current):
            return f"{path} length", len(committed), len(current)
        return None
    return None if committed == current else (path, committed, current)


def explain_drift(committed: dict, current: dict) -> list[str]:
    """Name the first key path at which a fixture drifted, with both values."""
    found = _first_difference(committed, current)
    if found is None:
        return []
    path, was, now = found
    return [
        f"  first difference at {path.lstrip('.') or '(root)'}:",
        f"    committed: {json.dumps(was, sort_keys=True)}",
        f"    current:   {json.dumps(now, sort_keys=True)}",
    ]


@dataclass(frozen=True)
class GoldenFixture:
    """One pinned recording: how to produce it and where it lives."""

    name: str
    filename: str
    indent: int
    record: Callable[[], dict]


FIXTURES: dict[str, GoldenFixture] = {
    "determinism": GoldenFixture(
        name="determinism",
        filename="golden_determinism.json",
        indent=2,
        record=record_determinism,
    ),
    "perfetto": GoldenFixture(
        name="perfetto",
        filename="golden_perfetto.json",
        indent=1,
        record=record_perfetto,
    ),
    "critical_path": GoldenFixture(
        name="critical_path",
        filename="golden_critical_path.json",
        indent=2,
        record=record_critical_path,
    ),
    "reconfig": GoldenFixture(
        name="reconfig",
        filename="golden_reconfig.json",
        indent=2,
        record=record_reconfig,
    ),
    "scale": GoldenFixture(
        name="scale",
        filename="golden_scale.json",
        indent=2,
        record=record_scale,
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
    for line in explain_drift(committed, current):
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
