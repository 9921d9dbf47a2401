"""Benchmark: a trivial FaultPlan must be free.

The unified run API threads ``faults=`` through every runtime, so the
healthy path now carries the plan plumbing on every run.  This guards
the cost of that plumbing: a no-op plan (``FaultPlan()`` -- recovery
enabled, nothing scheduled) must produce the *identical* simulation as
``faults=None`` and add under 2 % wall-clock overhead on a full-cell
run.
"""

import json
import time

from conftest import once
from repro.cluster.profiles import all_equal
from repro.faults import FaultPlan
from repro.host import EngineConfig, WorkflowRuntime
from repro.schedulers.registry import make_scheduler
from repro.workload.generators import job_config_by_name

BENCH_SEED = 11
BENCH_ROUNDS = 3
BENCH_OVERHEAD_LIMIT = 0.02


def _run(faults):
    _corpus, stream = job_config_by_name("80%_large").build(seed=BENCH_SEED)
    runtime = WorkflowRuntime(
        profile=all_equal(),
        stream=stream,
        scheduler=make_scheduler("bidding"),
        config=EngineConfig(seed=BENCH_SEED, trace=False),
        faults=faults,
    )
    return runtime.run()


def _timed(faults):
    best = float("inf")
    result = None
    for _ in range(BENCH_ROUNDS):
        start = time.perf_counter()
        result = _run(faults)
        best = min(best, time.perf_counter() - start)
    return result, best


def no_fault_overhead():
    bare_result, bare_s = _timed(None)
    plan_result, plan_s = _timed(FaultPlan())
    return bare_result, bare_s, plan_result, plan_s


def test_bench_trivial_plan_overhead(benchmark):
    bare_result, bare_s, plan_result, plan_s = once(benchmark, no_fault_overhead)
    overhead = plan_s / bare_s - 1.0
    print()
    print(
        json.dumps(
            {
                "bare_best_s": bare_s,
                "plan_best_s": plan_s,
                "overhead": overhead,
                "makespan_s": bare_result.makespan_s,
            },
            indent=2,
            sort_keys=True,
        )
    )
    # A trivial plan never builds an injector, so the simulation is
    # bit-identical to the bare run...
    assert plan_result.makespan_s == bare_result.makespan_s
    assert plan_result.jobs_completed == bare_result.jobs_completed
    assert plan_result.data_load_mb == bare_result.data_load_mb
    assert plan_result.crashes == 0 and plan_result.failed_jobs == ()
    # ...and the plumbing costs essentially nothing (min-of-N timing).
    assert overhead < BENCH_OVERHEAD_LIMIT, f"no-fault overhead {overhead:.1%}"
