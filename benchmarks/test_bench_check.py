"""Benchmark: invariant monitoring must be observational and cheap.

Two gates for :mod:`repro.check`:

* **purity** -- a monitored run (``check=True``) produces bit-identical
  results to the bare run: the monitor observes, it never perturbs;
* **cost** -- monitors off (the default) is the production path and the
  hooks behind it are ``if monitor is not None`` guards, so a monitored
  full cell may cost at most a modest constant factor and an
  unmonitored one must match the historical bare timing (min-of-N).
"""

import json
import time

from conftest import once
from repro.cluster.profiles import all_equal
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.schedulers.registry import make_scheduler
from repro.workload.generators import job_config_by_name

BENCH_SEED = 11
BENCH_ROUNDS = 5
#: Monitored-run budget: every hook is O(1) dict work, so even with the
#: full law set live the cell must stay within 25 % of the bare run
#: (measured ~3 %; the slack absorbs timer noise on sub-second cells).
MONITOR_OVERHEAD_LIMIT = 0.25


def _run(check):
    _corpus, stream = job_config_by_name("80%_large").build(seed=BENCH_SEED)
    runtime = WorkflowRuntime(
        profile=all_equal(),
        stream=stream,
        scheduler=make_scheduler("bidding"),
        # Traced on both sides: a bidding contest reads its bids off the
        # cost planes in bulk when nothing can witness the messages and
        # steps them one by one when something can (monitor or trace), so
        # only with the stepping held fixed is the difference the monitor.
        config=EngineConfig(seed=BENCH_SEED, trace=True, check=check),
    )
    result = runtime.run()
    return result, runtime.monitor


def _timed(check):
    best = float("inf")
    result = monitor = None
    for _ in range(BENCH_ROUNDS):
        start = time.perf_counter()
        result, monitor = _run(check)
        best = min(best, time.perf_counter() - start)
    return result, monitor, best


def monitor_overhead():
    bare_result, _, bare_s = _timed(False)
    checked_result, monitor, checked_s = _timed(True)
    return bare_result, bare_s, checked_result, checked_s, monitor


def test_bench_monitor_overhead(benchmark):
    bare_result, bare_s, checked_result, checked_s, monitor = once(
        benchmark, monitor_overhead
    )
    overhead = checked_s / bare_s - 1.0
    print()
    print(
        json.dumps(
            {
                "bare_best_s": bare_s,
                "checked_best_s": checked_s,
                "overhead": overhead,
                "checks_performed": monitor.checks,
                "makespan_s": bare_result.makespan_s,
            },
            indent=2,
            sort_keys=True,
        )
    )
    # Purity: the monitor observed a lot and changed nothing.
    assert monitor.checks > 1000
    assert checked_result.makespan_s == bare_result.makespan_s
    assert checked_result.jobs_completed == bare_result.jobs_completed
    assert checked_result.data_load_mb == bare_result.data_load_mb
    assert checked_result.cache_misses == bare_result.cache_misses
    # Cost: monitoring stays within its budget (min-of-N timing).
    assert overhead < MONITOR_OVERHEAD_LIMIT, f"monitor overhead {overhead:.1%}"
