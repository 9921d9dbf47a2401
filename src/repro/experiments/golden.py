"""The pins: everything a fixed seed must repeat, recorded and checked here.

A pin is a name, its committed file under ``tests/`` and a ``record()``
that returns a JSON value or a text.  One writer records a pin, one
checker compares it with its file, and one explainer names where a
drifted pin first differs: the key path of a JSON value, the numbered
line of a text.

``determinism``
    per-scheduler metrics of a fixed cell (``golden_determinism.json``);
``perfetto``
    the exact Perfetto export of a two-worker run (``golden_perfetto.json``);
``critical_path``
    the critical-path attribution and decision ledger of the same run
    (``golden_critical_path.json``);
``reconfig``
    metrics and the migrate/swap events of a live reconfiguration of
    that run (``golden_reconfig.json``);
``scale``
    result rows, digests and exact counts of fleet-sized cells: every
    scheduler at 100 workers, five of them at 400, bidding and baseline
    traced, and one 25-worker cell per path of the fault injector and
    the reconfiguration controller (``golden_scale.json``);
``service``
    the report and digests of eight open-loop service cells and the
    message of one that misses its deadline (``golden_service.json``);
``fig2`` ... ``sensitivity``, ``fig3_reduced`` ... ``sensitivity_reduced``
    the stdout of the seven experiment commands at default arguments,
    and of the four long drivers at a reduced size
    (``cli_stdout/<name>.txt``);
``cli_help``
    ``repro --help`` and every command's ``--help`` at 80 columns
    (``cli_stdout/cli_help.txt``).

::

    PYTHONPATH=src python -m repro golden --check   # drift gate (CI)
    PYTHONPATH=src python -m repro golden           # re-record every pin
    PYTHONPATH=src python -m repro golden perfetto  # re-record one

A drift means the committed file no longer matches what the code
produces; if the behavioural change is deliberate, re-record and review
the diff like any other code change.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import itertools
import json
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.cli import COMMANDS, Experiment, main
from repro.cluster.profiles import WorkerProfile
from repro.cluster.worker_spec import WorkerSpec
from repro.faults import CrashRenewal, FaultPlan, WorkerCrash
from repro.host import EngineConfig, WorkflowRuntime
from repro.obs import ObsConfig, build_spans, perfetto_trace
from repro.reconfig import JobMigration, ReconfigPlan, SchedulerSwap
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.serve import ServiceRuntime, build_service
from repro.workload.job import Job, JobStream
from repro.workload.msr import TASK_ANALYZER

#: Where the committed files live: ``tests/`` at the repository root
#: (this file is ``src/repro/experiments/golden.py``).
FIXTURE_DIR = Path(__file__).resolve().parents[3] / "tests"

REGEN_HINT = "PYTHONPATH=src python -m repro golden"

# -- the two-worker cell: determinism, perfetto, critical path, reconfig ----

#: What the determinism pin keeps of each iteration's result.
DET_FIELDS = (
    "iteration", "makespan_s", "cache_misses", "cache_hits", "data_load_mb", "jobs_completed"
)


def record_determinism_scheduler(scheduler: str) -> list[dict]:
    """One scheduler's per-iteration metrics of one cell: ``80%_small`` on
    ``fast-slow``, seed 7, two iterations with persisting caches."""
    from repro.experiments.runner import CellSpec, run_cell

    return [
        {field: getattr(result, field) for field in DET_FIELDS}
        for result in run_cell(CellSpec(scheduler, "80%_small", "fast-slow", 7, iterations=2))
    ]


def record_determinism() -> dict:
    """Every registered scheduler's metrics of that cell."""
    return {scheduler: record_determinism_scheduler(scheduler) for scheduler in sorted(SCHEDULERS)}


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
        scheduler=make_scheduler("bidding"),
        config=EngineConfig(seed=3, trace=True, obs=ObsConfig(probe_interval_s=5.0)),
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


def record_critical_path() -> dict:
    """Critical-path attribution and decision ledger of the perfetto
    scenario, so a change that moves spans but not the chain -- or vice
    versa -- fails exactly one of the two pins."""
    from repro.obs import critical_path

    runtime = golden_runtime()
    runtime.run()
    path = critical_path(runtime.metrics.trace)
    assert path is not None, "golden cell must complete at least one job"
    return {
        "makespan_s": path.makespan,
        "chain": list(path.chain),
        "categories": dict(path.categories),
        "slack": dict(path.slack),
        "decisions": runtime.obs.ledger.to_dicts(),
    }


def reconfig_runtime() -> WorkflowRuntime:
    """The perfetto scenario's fleet and jobs under bidding, seed 3, with
    invariant checks, a 2-job migration at t=2 and a bidding -> baseline
    hot-swap at t=4."""
    profile, stream = _golden_cell()
    return WorkflowRuntime(
        profile=profile,
        stream=stream,
        scheduler=make_scheduler("bidding"),
        config=EngineConfig(seed=3, trace=True, check=True),
        reconfig=ReconfigPlan(
            migrations=(JobMigration(at_s=2.0, max_jobs=2, include_running=False),),
            swaps=(SchedulerSwap(at_s=4.0, scheduler="baseline"),),
        ),
    )


def record_reconfig() -> dict:
    """Run metrics plus every migrate/swap event of the pinned cell."""
    runtime = reconfig_runtime()
    result = runtime.run()
    metrics = runtime.metrics
    return {
        **{field: getattr(result, field) for field in DET_FIELDS[1:]},
        "jobs_migrated": metrics.jobs_migrated,
        "scheduler_swaps": metrics.scheduler_swaps,
        "events": [
            {"time": e.time, "kind": e.kind, "job_id": e.job_id, "worker": e.worker,
             "detail": str(e.detail)}
            for e in metrics.trace
            if e.kind.startswith(("migrate_", "swap_"))
        ],
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
# The trace alone: what recording it costs in heap pushes and messages,
# against the untraced cells above.
SCALE_CELLS.update(
    {
        f"{scheduler}-100-traced": (scheduler, 100, False, {"engine": {"trace": True}})
        for scheduler in ("bidding", "baseline")
    }
)
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
# Every other scheduler's decision ledger at fleet size, under a crash,
# a restart and a migration.
SCALE_CELLS.update(
    {
        f"{scheduler}-churn-25-observed": (scheduler, 25, True, {"churn": "cascade"})
        for scheduler in ("bar", "random", "round-robin", "matchmaking", "delay")
    }
)
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


def run_digests(runtime) -> dict:
    """The digests a scale cell and a service cell share: the assignment
    map and the run's counts (:meth:`~repro.host.Deployment.counts`)
    always, the trace when one is recorded, flows and decisions when
    ``obs`` is on, and the monitor's check count when it runs."""
    digests = {"assignments_sha256": _digest(runtime.master.assignments)}
    digests["counts"] = runtime.counts()
    trace = runtime.metrics.trace
    if trace.enabled:
        digests["trace_events"] = len(trace)
        digests["trace_sha256"] = _digest(list(trace))
    if runtime.obs is not None:
        digests["flows_sha256"] = _digest([dataclasses.astuple(flow) for flow in runtime.obs.flows])
        digests["decisions_sha256"] = _digest(runtime.obs.ledger.to_dicts())
    if runtime.monitor is not None:
        digests["monitor_checks"] = runtime.monitor.checks
    return digests


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
            seed=SCALE_SEED,
            **{"trace": observed, "check": observed, "obs": observed, **(engine or {})},
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
        if runtime.injector is not None:
            broker = runtime.topology.broker
            cell["faults_sha256"] = _digest(runtime.injector.events)
            cell["messages_dropped"] = [broker.dropped, broker.partition_dropped]
        if runtime.reconfig_controller is not None:
            cell["reconfig_sha256"] = _digest(runtime.reconfig_controller.events)
        cell.update(run_digests(runtime))
        golden[name] = cell
    return golden


# -- service fixture --------------------------------------------------------

#: cell name -> :func:`service_runtime` arguments.  Burst arrivals against
#: both scheduler families; ``delay`` admission with a two-job queue and
#: a rate limit (arrivals wait for queue space *and* retry after a
#: token-bucket hint); the autoscaler with ``rebalance``; a crash/repair
#: renewal under the autoscaler, so elastic ``e*`` workers die and
#: restart; obs and invariant checks with a shared origin; a live
#: migration and a bidding -> baseline hot-swap; and a BAR whose load
#: table no plan has seeded when a crashed worker restarts, before the
#: first arrival: BAR skips the joiner and seeds the table from the
#: whole fleet at its first pick, where Spark's rule (admit a joiner at
#: 0) would leave the joiner the table's only worker.
SERVICE_CELLS: dict[str, dict] = {
    "bidding-burst": dict(scheduler="bidding"),
    "baseline-burst": dict(scheduler="baseline"),
    "baseline-delay": dict(
        scheduler="baseline",
        duration=200.0,
        queue_cap=2, policy="delay", rate_limit=2.0, rate_burst=1,
    ),
    "bidding-rebalance": dict(
        scheduler="bidding",
        rate=1.5,
        min_workers=2, max_workers=10, rebalance=True, cooldown_s=20,
    ),
    "bar-crashes": dict(
        scheduler="bar",
        rate=1.5,
        duration=400.0,
        min_workers=2, max_workers=8, cooldown_s=20,
        faults=FaultPlan(renewals=(CrashRenewal(mtbf_s=60, mttr_s=20),)),
    ),
    "baseline-observed": dict(
        scheduler="baseline",
        rate=1.5,
        min_workers=2, max_workers=8, cooldown_s=20,
        obs=ObsConfig(probe_interval_s=5.0), check=True, shared_origin_mbps=40.0,
    ),
    "bidding-swap": dict(
        scheduler="bidding",
        reconfig=ReconfigPlan(
            migrations=(JobMigration(at_s=50.0, max_jobs=2),),
            swaps=(SchedulerSwap(at_s=100.0, scheduler="baseline"),),
        ),
    ),
    "bar-restart-unseeded": dict(
        scheduler="bar",
        faults=FaultPlan(crashes=(WorkerCrash(at_s=0.0, worker="w1", restart_after_s=0.5),)),
    ),
}


def service_runtime(
    scheduler, rate=1.0, duration=300.0, faults=None, reconfig=None, **overrides
) -> ServiceRuntime:
    """A service of ``all-equal`` workers under burst arrivals, seed 5,
    built by :func:`repro.serve.build_service` as ``repro serve`` builds
    one; ``overrides`` go to its configs by field name."""
    return build_service(
        scheduler, "all-equal", "burst", rate, 5, faults, reconfig=reconfig,
        duration_s=duration, **overrides,
    )


def record_service_cell(name: str) -> dict:
    """The report, digests, admission decisions and restarts of one cell
    (and, when ``obs`` is on, its probe names and series)."""
    runtime = service_runtime(**SERVICE_CELLS[name])
    offer = runtime.admission.offer
    decisions = Counter()

    def counting_offer(job, tenant):
        decision = offer(job, tenant)
        decisions[f"{decision.action}:{decision.reason}"] += 1
        return decision

    runtime.admission.offer = counting_offer
    cell = {"report": runtime.run().to_dict(), "decisions": decisions}
    trace = runtime.metrics.trace
    cell["restarts"] = [[e.time, e.worker] for e in trace if e.kind == "fault_restart"]
    if runtime.obs is not None:
        probes = runtime.obs.probes
        cell["probes"] = list(probes.probes)
        cell["probes_sha256"] = _digest({name: probes.series(name) for name in probes.probes})
    cell.update(run_digests(runtime))
    return cell


def record_deadline_message() -> str:
    """What a service past its deadline says."""
    try:
        service_runtime("baseline", max_sim_time=30.0).run()
    except RuntimeError as error:
        return str(error)
    raise RuntimeError("the deadline cell finished; pick a shorter max_sim_time")


def record_service() -> dict:
    """Every service cell, and what a service past its deadline says."""
    return {
        "cells": {name: record_service_cell(name) for name in sorted(SERVICE_CELLS)},
        "deadline_message": record_deadline_message(),
    }


# -- stdout pins ------------------------------------------------------------

def _command_stdout(*argv: str) -> str:
    """What ``repro ARGV`` prints; ``--help`` ends it with ``SystemExit(0)``."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        try:
            main(list(argv))
        except SystemExit as stop:
            if stop.code:
                raise
    return buffer.getvalue()


def _rendered(tables) -> str:
    from repro.experiments.grid import render

    return render(tables) + "\n"


def _fig3_reduced() -> str:
    from repro.experiments import fig3_aggregates
    from repro.experiments.grid import run_grids

    [sweep] = run_grids([fig3_aggregates.grid(seeds=(11,), profiles=("all-equal",))])
    return _rendered(fig3_aggregates.tables(sweep))


def _fig4_reduced() -> str:
    from repro.experiments import fig4_breakdown
    from repro.experiments.grid import run_grids

    [sweep] = run_grids([fig4_breakdown.grid(
        seeds=(11,),
        profiles=("all-equal", "one-slow"),
        workloads=("80%_small", "all_diff_large"),
    )])
    return _rendered(fig4_breakdown.tables(sweep))


def _sections(module, sections, settings) -> str:
    """Each titled section of ``module``, at the two settings given for it
    in ``settings`` (by grid function name) or at its fixed ones."""
    from repro.experiments.grid import run_grids

    grids = [
        build(settings[build.__name__]) if build.__name__ in settings else build()
        for _title, build in sections
    ]
    sweeps = run_grids(grids)
    return _rendered([module.table(title, sweep) for (title, _), sweep in zip(sections, sweeps)])


def _ablations_reduced() -> str:
    from repro.experiments import ablations

    return _sections(ablations, ablations.ABLATIONS, {
        "ablate_bid_window": (0.1, 1.0),
        "ablate_bid_compute": (0.0, 1.0),
        "ablate_noise": (0.0, 0.25),
        "ablate_cache_capacity": (float("inf"), 1024.0),
        "ablate_contest_concurrency": (1, 4),
        "ablate_popularity_skew": (0.0, 2.0),
        "ablate_shared_origin": (None, 10.0),
    })


def _sensitivity_reduced() -> str:
    from repro.experiments import sensitivity

    return _sections(sensitivity, sensitivity.SWEEPS, {
        "sweep_worker_count": (5, 15),
        "sweep_job_count": (60, 120),
        "sweep_heterogeneity": (1.0, 8.0),
        "sweep_arrival_rate": (0.0, 10.0),
    })


#: argparse wraps help to ``COLUMNS``; the help pin is recorded at this width.
HELP_COLUMNS = "80"


def _cli_help() -> str:
    """``repro --help``, then each command's ``--help`` in table order,
    at :data:`HELP_COLUMNS` columns."""
    import os
    from unittest import mock

    with mock.patch.dict(os.environ, COLUMNS=HELP_COLUMNS):
        return "".join(
            f"$ repro {' '.join(argv)}\n" + _command_stdout(*argv)
            for argv in (["--help"], *([name, "--help"] for name in COMMANDS))
        )


#: pin name -> its stdout: each experiment command at default arguments,
#: and each long driver at one seed, fewer profiles and workloads and two
#: settings per sweep; and the help of every command.
STDOUT: dict[str, Callable[[], str]] = {
    **{
        name: functools.partial(_command_stdout, name)
        for name, command in COMMANDS.items()
        if isinstance(command.handler, Experiment)
    },
    "fig3_reduced": _fig3_reduced,
    "fig4_reduced": _fig4_reduced,
    "ablations_reduced": _ablations_reduced,
    "sensitivity_reduced": _sensitivity_reduced,
    "cli_help": _cli_help,
}


# -- the pins: one writer, one checker, one explainer -----------------------


@dataclass(frozen=True)
class Pin:
    """One pinned recording: its name, its file under the fixture
    directory (``.json`` for a JSON value, ``.txt`` for a text) and how
    to record it."""

    name: str
    filename: str
    record: Callable[[], object]
    indent: int = 2

    @property
    def is_text(self) -> bool:
        return self.filename.endswith(".txt")

    def render(self, value) -> str:
        """What the committed file holds for ``value``."""
        if self.is_text:
            return value
        return json.dumps(value, indent=self.indent, sort_keys=True) + "\n"

    def load(self, text: str):
        return text if self.is_text else json.loads(text)


PINS: dict[str, Pin] = {
    pin.name: pin
    for pin in (
        Pin("determinism", "golden_determinism.json", record_determinism),
        Pin("perfetto", "golden_perfetto.json", record_perfetto, indent=1),
        Pin("critical_path", "golden_critical_path.json", record_critical_path),
        Pin("reconfig", "golden_reconfig.json", record_reconfig),
        Pin("scale", "golden_scale.json", record_scale),
        Pin("service", "golden_service.json", record_service),
        *(Pin(name, f"cli_stdout/{name}.txt", render) for name, render in STDOUT.items()),
    )
}

#: Stands for a key, an element or a line one side of a drift does not have.
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


def _first_line_difference(committed: str, current: str):
    """``("line N", committed, current)`` at the first differing line."""
    lines = itertools.zip_longest(
        committed.splitlines(keepends=True),
        current.splitlines(keepends=True),
        fillvalue=_ABSENT,
    )
    for number, (was, now) in enumerate(lines, 1):
        if was != now:
            return f"line {number}", was, now
    return None


def explain_drift(committed, current) -> list[str]:
    """Name where a pin first drifted, with both values: the key path of
    a JSON value, the numbered line of a text."""
    if isinstance(committed, str) and isinstance(current, str):
        found = _first_line_difference(committed, current)
    else:
        found = _first_difference(committed, current)
    if found is None:
        return []
    path, was, now = found
    return [
        f"  first difference at {path.lstrip('.') or '(root)'}:",
        f"    committed: {json.dumps(was, sort_keys=True)}",
        f"    current:   {json.dumps(now, sort_keys=True)}",
    ]


def pin_path(pin: Pin, directory: Path | None = None) -> Path:
    return (directory or FIXTURE_DIR) / pin.filename


def write(pin: Pin, directory: Path | None = None) -> Path:
    """Re-record one pin to disk; returns the path written."""
    path = pin_path(pin, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(pin.render(pin.record()), encoding="utf-8")
    print(f"pin '{pin.name}' re-recorded at {path}")
    return path


def check(pin: Pin, directory: Path | None = None) -> int:
    """Drift gate: record into memory, compare with the committed file,
    explain any difference; returns an exit code."""
    path = pin_path(pin, directory)
    committed = pin.load(path.read_text(encoding="utf-8"))
    current = pin.load(pin.render(pin.record()))
    if committed == current:
        print(f"pin '{pin.name}' at {path} matches the current code")
        return 0
    print(f"pin '{pin.name}' at {path} DRIFTED from the current code:")
    for line in explain_drift(committed, current):
        print(line)
    print(f"If the behavioural change is deliberate, re-record with\n  {REGEN_HINT} {pin.name}")
    return 1


def run(
    names: Sequence[str] = (),
    do_check: bool = False,
    directory: Path | None = None,
) -> int:
    """Record (or gate) the named pins -- all of them by default.

    Returns a process exit code: non-zero if any gated pin drifted.
    """
    selected = list(names) or list(PINS)
    unknown = [name for name in selected if name not in PINS]
    if unknown:
        raise SystemExit(f"unknown golden fixture(s) {unknown}; available: {list(PINS)}")
    status = 0
    for name in selected:
        if do_check:
            status |= check(PINS[name], directory)
        else:
            write(PINS[name], directory)
    return status
