"""Benchmark: observability must be free when off, cheap when on.

``repro.obs`` records broker flows and pipe occupancy on the run's
observer seams and samples probe gauges on a sim-time cadence.  With
observability off only the metrics collector is subscribed, so the
message and pipe seams are empty tuples and a run with observability
disabled must
produce the *identical* simulation as before the subsystem existed and
add under 2 % wall-clock overhead on a full-cell run.  With
observability enabled the simulation must still be bit-identical (the
recorder is read-only and draws no randomness) and the bounded-retention
probes and flows must stay within a generous envelope.
"""

import gc
import json
import time

from conftest import once
from repro.cluster.profiles import all_equal
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.schedulers.registry import make_scheduler
from repro.workload.generators import job_config_by_name

BENCH_SEED = 11
BENCH_ROUNDS = 25
# Both "off" spellings run the identical code path, so any measured
# delta is timer noise.  The limit matches the CI bench gate's
# ``--tolerance 0.10``: loose enough to clear the noise floor of shared
# runners, tight enough to catch a real per-message hook slipping onto
# an unobserved run's seams (the result-equality asserts
# below are the exact gate; this one bounds wall-clock drift).
BENCH_OFF_OVERHEAD_LIMIT = 0.10
# The on-path envelope guards against accidental quadratic blow-ups,
# not a perf target: at the default 1 s probe cadence an ~840 s sim
# legitimately samples every gauge 840 times (roughly 1.5-2x observed,
# with wide GC-driven variance on shared runners).
BENCH_ON_OVERHEAD_LIMIT = 4.00


def _run(obs):
    _corpus, stream = job_config_by_name("80%_large").build(seed=BENCH_SEED)
    runtime = WorkflowRuntime(
        profile=all_equal(),
        stream=stream,
        scheduler=make_scheduler("bidding"),
        config=EngineConfig(seed=BENCH_SEED, trace=False, obs=obs),
    )
    return runtime.run()


def _timed_pair(variants, rounds=BENCH_ROUNDS):
    # Interleave single runs round-robin and keep the per-variant
    # minimum: adjacent runs see near-identical machine conditions, and
    # each variant only needs ONE quiet ~30 ms window across all rounds
    # to hit its floor, which makes min-of-N robust on noisy runners.
    results, best = {}, {name: float("inf") for name in variants}
    for name, obs in variants.items():  # warmup round, untimed
        results[name] = _run(obs)
    for _ in range(rounds):
        for name, obs in variants.items():
            # Collect untimed, then keep the collector out of the timed
            # window: cyclic-GC passes otherwise alias onto whichever
            # variant's slot matches the allocation cadence.
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                results[name] = _run(obs)
                best[name] = min(best[name], time.perf_counter() - start)
            finally:
                gc.enable()
    return results, best


def obs_overhead():
    # The strict gate compares the two spellings of "disabled" head to
    # head; the allocation-heavy obs-on runs are timed apart so their
    # GC pressure cannot skew the off-path comparison.
    results, best = _timed_pair({"bare": False, "off": None})
    on_results, on_best = _timed_pair({"on": True}, rounds=8)
    return (
        results["bare"],
        best["bare"],
        results["off"],
        best["off"],
        on_results["on"],
        on_best["on"],
    )


def test_bench_obs_overhead(benchmark):
    bare_result, bare_s, off_result, off_s, on_result, on_s = once(
        benchmark, obs_overhead
    )
    off_overhead = off_s / bare_s - 1.0
    on_overhead = on_s / bare_s - 1.0
    print()
    print(
        json.dumps(
            {
                "bare_best_s": bare_s,
                "off_best_s": off_s,
                "on_best_s": on_s,
                "off_overhead": off_overhead,
                "on_overhead": on_overhead,
                "makespan_s": bare_result.makespan_s,
            },
            indent=2,
            sort_keys=True,
        )
    )
    # Off is off: both spellings of "disabled" are the same code path
    # and the same simulation.
    assert off_result == bare_result
    # The recorder is read-only, so enabling it must not perturb a
    # single metric either.
    assert on_result == bare_result
    # Disabled observability costs nothing (min-of-N timing)...
    assert off_overhead < BENCH_OFF_OVERHEAD_LIMIT, (
        f"obs-off overhead {off_overhead:.1%}"
    )
    # ...and enabled observability stays within a generous envelope.
    assert on_overhead < BENCH_ON_OVERHEAD_LIMIT, f"obs-on overhead {on_overhead:.1%}"
