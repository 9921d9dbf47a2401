"""One lifecycle reader: spans, tiling, attribution and Gantt agree.

Two ordering rules used to be read four different ways:

* a pull worker records ``started`` before the master records
  ``assigned`` -- the run starts at ``started``, so a pull job's run is
  transfer + execute, not queue;
* a crash orphans an attempt and the job is re-dispatched -- each
  attempt gets its own schedule, queue and run, on its own worker.
"""

import functools

import pytest

from repro.experiments.runner import CellSpec, run_cell_observed
from repro.faults import FaultPlan, RecoveryConfig, WorkerCrash
from repro.metrics.analysis import allocation_delays, gantt, lifecycles
from repro.obs import attribute, build_spans, critical_path, job_breakdown
from repro.schedulers.registry import SCHEDULERS

#: w3 dies 30 s in and is back 20 s later: every scheduler re-dispatches
#: at least one job on the ``80%_large`` / ``all-equal`` / seed 11 cell.
CRASH = FaultPlan(
    crashes=(WorkerCrash(at_s=30.0, worker="w3", restart_after_s=20.0),),
    recovery=RecoveryConfig(),
)


def traced(scheduler, workload, profile, seed, faults=None):
    spec = CellSpec(
        scheduler=scheduler,
        workload=workload,
        profile=profile,
        seed=seed,
        iterations=1,
        engine_overrides=(("trace", True), ("obs", True)),
        faults=faults,
    )
    _results, runtime = run_cell_observed(spec)
    return runtime.metrics.trace


@functools.lru_cache(maxsize=None)
def crash_cell(scheduler, crash=True):
    return traced(scheduler, "80%_large", "all-equal", 11, CRASH if crash else None)


def attempts(trace, job_id):
    """(worker, started, end) of each attempt that ran, straight off the
    raw events: an attempt ends at ``orphaned`` or at the terminal event."""
    runs, current = [], None
    for event in trace.for_job(job_id):
        if event.kind == "started":
            current = [event.worker, event.time, None]
            runs.append(current)
        elif event.kind in ("orphaned", "completed", "failed") and current is not None:
            current[2] = event.time
            current = None
    return [tuple(run) for run in runs]


@pytest.mark.parametrize("scheduler", ["baseline", "matchmaking", "delay"])
def test_pull_runs_are_transfer_and_execute(scheduler):
    trace = traced(scheduler, "80%_small", "fast-slow", 7)
    transfer = 0.0
    for completed in trace.of_kind("completed"):
        breakdown = job_breakdown(trace, completed.job_id)
        started = trace.first("started", completed.job_id).time
        run = breakdown.categories["transfer"] + breakdown.categories["execute"]
        assert run == pytest.approx(completed.time - started, abs=1e-9), completed.job_id
        transfer += breakdown.categories["transfer"]
    assert transfer > 0.0


@pytest.mark.parametrize("scheduler", ["bidding", "baseline"])
def test_redispatched_jobs_run_where_each_attempt_ran(scheduler):
    trace = crash_cell(scheduler)
    redispatched = {event.job_id for event in trace.of_kind("redispatched")}
    assert redispatched
    spans = build_spans(trace)
    for job_id in sorted(redispatched):
        executes = [
            (span.track, span.start, span.end)
            for span in spans
            if span.trace_id == job_id and span.name == "execute"
        ]
        ran = attempts(trace, job_id)
        assert len(executes) == len(ran), job_id
        for (track, start, end), (worker, started, ended) in zip(executes, ran):
            assert (track, start) == (worker, started), job_id
            assert end <= ended, job_id

    attribution = attribute(trace)
    level_one = sum(row.total_s for row in attribution.rows if row.depth == 1)
    assert level_one == pytest.approx(attribution.row("job").total_s, rel=1e-9)


@pytest.mark.parametrize("crash", [False, True], ids=["clean", "crash"])
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_readers_agree(scheduler, crash):
    trace = crash_cell(scheduler, crash)
    lives = lifecycles(trace)
    spans = build_spans(trace)
    schedules, executes = {}, {}
    for span in spans:
        if span.name == "schedule":
            schedules.setdefault(span.trace_id, span)
        elif span.name == "execute":
            executes[span.trace_id] = span

    rows = gantt(trace)
    assert len(rows) == sum(1 for life in lives.values() if life.completed)
    for row in rows:
        last = lives[row.job_id].segments[-1]
        execute = executes[row.job_id]
        assert (row.worker, row.started, row.finished) == (last.worker, last.start, last.end)
        assert (execute.track, execute.start, execute.end) == (last.worker, last.start, last.end)

    for job_id, delay in allocation_delays(trace).items():
        first = lives[job_id].segments[0]
        assert delay == first.end - first.start == schedules[job_id].duration

    jobs = critical_path(trace).jobs
    assert len(jobs) == len(rows)
    summed = {
        name: sum(job.categories[name] for job in jobs.values())
        for name in ("schedule", "contest", "queue", "transfer", "execute", "recovery")
    }
    attribution = attribute(trace)
    expected = {
        "job": sum(job.latency for job in jobs.values()),
        "schedule": summed["schedule"] + summed["contest"],
        "contest": summed["contest"],
        "queued": summed["queue"],
        "execute": summed["transfer"] + summed["execute"],
        "transfer": summed["transfer"],
        "compute": summed["execute"],
        "recovery": summed["recovery"],
    }
    for component, total in expected.items():
        row = attribution.row(component)
        assert (row.total_s if row else 0.0) == pytest.approx(total, rel=1e-9, abs=1e-9)
    assert crash == (attribution.row("recovery") is not None)
