"""Benchmark: invariant monitoring must be observational and cheap.

Gates for :mod:`repro.check`:

* **purity** -- a monitored run (``check=True``) produces bit-identical
  results to the bare run: the monitor observes, it never perturbs.
  For the Bidding Scheduler the two runs also execute their contests
  differently -- computed from the cost planes when bare, message by
  message over the broker when anything watches -- so this is the
  always-on check that the two ways agree;
* **cost of the monitor** -- with the way contests run held fixed
  (trace on on both sides), the monitor's hooks are O(1) dict work and
  may add at most a modest constant factor;
* **cost of being watched** -- the monitored run against the bare one,
  which since contests are computed when nobody watches includes
  running every contest over the broker: bounded explicitly.
"""

import json
import time

from conftest import once
from repro.cluster.profiles import all_equal
from repro.host import EngineConfig, WorkflowRuntime
from repro.schedulers.registry import make_scheduler
from repro.workload.generators import job_config_by_name

BENCH_SEED = 11
BENCH_ROUNDS = 9
#: Monitor budget: every hook is O(1) dict work, so even with the full
#: law set live the traced cell must stay within 25 % of the traced,
#: unmonitored one (measured ~19 %, against 18 % at the parent commit, where the
#: same ~4 ms sat on a slower run; min-of-9 keeps timer noise out).
MONITOR_OVERHEAD_LIMIT = 0.25
#: Monitored vs. bare, both untraced: the monitor's hooks *plus* 5
#: workers x 120 contests run message by message instead of computed
#: (measured ~1.4x here: 16 ms bare, 23 ms monitored; the parent commit
#: read 23 ms bare, 27.5 ms monitored on the same box).
WATCHED_COST_LIMIT = 2.0


def _run(check, trace):
    _corpus, stream = job_config_by_name("80%_large").build(seed=BENCH_SEED)
    runtime = WorkflowRuntime(
        profile=all_equal(),
        stream=stream,
        scheduler=make_scheduler("bidding"),
        config=EngineConfig(seed=BENCH_SEED, trace=trace, check=check),
    )
    result = runtime.run()
    return result, runtime.monitor


#: (check, trace) of the four runs compared.
BARE, CHECKED, TRACED, TRACED_CHECKED = (False, False), (True, False), (False, True), (True, True)


def monitor_overhead():
    """Best-of-N wall time per configuration, the configurations taken
    in turn within each round so that drift hits all of them alike."""
    best = dict.fromkeys((BARE, CHECKED, TRACED, TRACED_CHECKED), float("inf"))
    last = {}
    for _ in range(BENCH_ROUNDS):
        for config in best:
            start = time.perf_counter()
            last[config] = _run(*config)
            best[config] = min(best[config], time.perf_counter() - start)
    bare_result, _ = last[BARE]
    checked_result, monitor = last[CHECKED]
    return (
        bare_result,
        best[BARE],
        checked_result,
        best[CHECKED],
        monitor,
        best[TRACED],
        best[TRACED_CHECKED],
    )


def test_bench_monitor_overhead(benchmark):
    bare_result, bare_s, checked_result, checked_s, monitor, traced_s, traced_checked_s = once(
        benchmark, monitor_overhead
    )
    overhead = traced_checked_s / traced_s - 1.0
    watched = checked_s / bare_s
    print()
    print(
        json.dumps(
            {
                "bare_best_s": bare_s,
                "checked_best_s": checked_s,
                "traced_best_s": traced_s,
                "traced_checked_best_s": traced_checked_s,
                "monitor_overhead": overhead,
                "watched_cost": watched,
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
    assert watched < WATCHED_COST_LIMIT, f"monitored run costs {watched:.2f}x a bare one"
