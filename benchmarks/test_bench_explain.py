"""Benchmark: the decision ledger must be near-free and perturbation-free.

The ledger hook is one ``is not None`` guard at the master's assignment
seam; with ``ObsConfig(ledger=True)`` each assignment additionally asks
the active policy for its decision context (a read-only gather over
already-computed contest/plan state).  The ISSUE pins the envelope: on a
full-cell run the ledger may add under 2 % wall clock over the same run
with ``ledger=False``, and -- because building a record reads state and
draws no randomness -- the simulation metrics must be bit-identical with
the ledger on or off.
"""

import gc
import json
import time

from conftest import once
from repro.cluster.profiles import all_equal
from repro.host import EngineConfig, WorkflowRuntime
from repro.obs import ObsConfig
from repro.schedulers.registry import make_scheduler
from repro.workload.generators import job_config_by_name

BENCH_SEED = 11
BENCH_ROUNDS = 25
#: The ISSUE's acceptance bound: ledger-on vs ledger-off (both obs-on,
#: so probe/ctx costs cancel and only the ledger itself is measured).
BENCH_LEDGER_OVERHEAD_LIMIT = 0.02


def _run(obs):
    _corpus, stream = job_config_by_name("80%_large").build(seed=BENCH_SEED)
    runtime = WorkflowRuntime(
        profile=all_equal(),
        stream=stream,
        scheduler=make_scheduler("bidding"),
        config=EngineConfig(seed=BENCH_SEED, trace=False, obs=obs),
    )
    return runtime.run(), runtime


def ledger_overhead():
    # Interleaved min-of-N (same discipline as test_bench_obs): adjacent
    # runs see near-identical machine conditions and each variant needs
    # one quiet window across all rounds to hit its floor.
    variants = {
        "off": ObsConfig(ledger=False),
        "on": ObsConfig(ledger=True),
    }
    results, runtimes, best = {}, {}, {name: float("inf") for name in variants}
    for name, obs in variants.items():  # warmup round, untimed
        results[name], runtimes[name] = _run(obs)
    for _ in range(BENCH_ROUNDS):
        for name, obs in variants.items():
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                results[name], runtimes[name] = _run(obs)
                best[name] = min(best[name], time.perf_counter() - start)
            finally:
                gc.enable()
    return results, runtimes, best


def test_bench_ledger_overhead(benchmark):
    results, runtimes, best = once(benchmark, ledger_overhead)
    overhead = best["on"] / best["off"] - 1.0
    ledger = runtimes["on"].obs.ledger
    print()
    print(
        json.dumps(
            {
                "ledger_off_best_s": best["off"],
                "ledger_on_best_s": best["on"],
                "ledger_overhead": overhead,
                "decisions_recorded": len(ledger.records),
                "makespan_s": results["on"].makespan_s,
            },
            indent=2,
            sort_keys=True,
        )
    )
    # Observation-only: not a single metric may move with the ledger on.
    assert results["on"] == results["off"]
    # The off-variant records nothing, the on-variant one record per job.
    assert runtimes["off"].obs.ledger is None
    assert len(ledger.records) == results["on"].jobs_completed
    # The ISSUE's bound: under 2 % on the full-cell bench (min-of-N).
    assert overhead < BENCH_LEDGER_OVERHEAD_LIMIT, f"ledger overhead {overhead:.2%}"
