"""Benchmark: the struct-of-arrays fleet planes must actually be fast.

Three gates for :mod:`repro.fleet`:

* **scan microbench** -- one (load, name)-rank argmin over a 1k-worker
  table must beat the pure-Python ``min(dict, key=...)`` scan it
  replaces by >= 5x (min-of-N timing), while picking the exact same
  winners round for round;
* **planning speedup** -- BAR and Spark upfront planning over a
  1k-worker fleet must run >= 3x faster than the scalar planners they
  replaced (``tests/reference_planners.py``), and the resulting
  plans/load tables must be *identical* (same placements, same float
  bits) -- speed is worthless if it changes a single placement;
* **full cell** -- a 1k-worker end-to-end cell completes and reports its
  wall time (informational; macro timings are too machine-sensitive to
  gate).
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
from conftest import once

from repro.cluster.profiles import WorkerProfile
from repro.cluster.worker_spec import WorkerSpec
from repro.fleet import LoadTable
from repro.host import EngineConfig, WorkflowRuntime
from repro.schedulers.bar import BARMasterPolicy
from repro.schedulers.registry import make_scheduler
from repro.schedulers.spark import SparkMasterPolicy
from repro.workload.generators import job_config_by_name
from repro.workload.job import Job

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from reference_planners import (  # noqa: E402
    ReferenceBARMasterPolicy,
    ReferenceSparkMasterPolicy,
)

FLEET = 1_000
SCAN_ROUNDS = 2_000
PLAN_JOBS = 3_000
REPOS = 500
#: Acceptance floors (the measured ratios run well above these; the
#: slack absorbs CI timer noise).
SCAN_SPEEDUP_FLOOR = 5.0
PLAN_SPEEDUP_FLOOR = 3.0


class _FakeMaster:
    """Just enough master surface for upfront planning: the fleet name
    lists and the per-run RNG (Spark's executor shuffle)."""

    def __init__(self, workers, seed=7):
        self.worker_names = list(workers)
        self.active_workers = list(workers)
        self.rng = np.random.default_rng(seed)


def _worker_names():
    return [f"w{i:04d}" for i in range(FLEET)]


def _cache_view(workers):
    """A quarter of the fleet holds three repositories each."""
    view = {}
    for index, name in enumerate(workers):
        if index % 4 == 0:
            view[name] = {f"r{(index * 3 + k) % REPOS:04d}" for k in range(3)}
    return view


def _plan_jobs():
    jobs = []
    for i in range(PLAN_JOBS):
        if i % 5 == 0:
            jobs.append(Job(job_id=f"j{i:05d}", task="search", base_compute_s=0.5))
        else:
            jobs.append(
                Job(
                    job_id=f"j{i:05d}",
                    task="analyse",
                    repo_id=f"r{i % REPOS:04d}",
                    size_mb=10.0 + (i % 17),
                    base_compute_s=0.25,
                )
            )
    return jobs


def _best_of(fn, rounds):
    best = float("inf")
    value = None
    for _ in range(rounds):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


# -- scan microbench -------------------------------------------------------


def _python_scan():
    load = {name: 0.0 for name in _worker_names()}
    picks = []
    for i in range(SCAN_ROUNDS):
        name = min(load, key=lambda n: (load[n], n))
        load[name] += 1.0 + (i % 5)
        picks.append(name)
    return load, picks


def _soa_scan():
    table = LoadTable()
    table.reset({name: 0.0 for name in _worker_names()})
    picks = []
    for i in range(SCAN_ROUNDS):
        name = table.argmin_name()
        table.add(name, 1.0 + (i % 5))
        picks.append(name)
    return table, picks


def fleet_scan_speedup():
    (load, python_picks), python_s = _best_of(_python_scan, 3)
    (table, soa_picks), soa_s = _best_of(_soa_scan, 3)
    assert soa_picks == python_picks, "the table must pick identical winners"
    assert {name: table.get(name) for name in load} == load
    return python_s, soa_s


def test_bench_fleet_scan(benchmark):
    python_s, soa_s = once(benchmark, fleet_scan_speedup)
    speedup = python_s / soa_s
    print()
    print(
        json.dumps(
            {
                "workers": FLEET,
                "rounds": SCAN_ROUNDS,
                "python_best_s": python_s,
                "soa_best_s": soa_s,
                "speedup": speedup,
            },
            indent=2,
            sort_keys=True,
        )
    )
    assert speedup >= SCAN_SPEEDUP_FLOOR, f"fleet scan speedup only {speedup:.1f}x"


# -- upfront planning ------------------------------------------------------


def _plan_bar(policy_cls):
    workers = _worker_names()
    policy = policy_cls(max_adjustments=100)
    policy.bind(_FakeMaster(workers))
    policy.cache_view = _cache_view(workers)
    policy.speed_view = {
        name: (10.0 + (i % 7), 60.0 + (i % 11), 1.0 + 0.01 * (i % 5), 0.2)
        for i, name in enumerate(workers)
    }
    policy.on_upfront_jobs(_plan_jobs())
    return policy


def _plan_spark(policy_cls):
    workers = _worker_names()
    policy = policy_cls()
    policy.bind(_FakeMaster(workers))
    policy.cache_view = _cache_view(workers)
    policy.on_upfront_jobs(_plan_jobs())
    return policy


def planning_speedup():
    bar_off, bar_off_s = _best_of(lambda: _plan_bar(ReferenceBARMasterPolicy), 2)
    bar_on, bar_on_s = _best_of(lambda: _plan_bar(BARMasterPolicy), 2)
    spark_off, spark_off_s = _best_of(
        lambda: _plan_spark(ReferenceSparkMasterPolicy), 2
    )
    spark_on, spark_on_s = _best_of(lambda: _plan_spark(SparkMasterPolicy), 2)
    # Identity first: same placements, same float bits, same counts.
    assert bar_on._plan == bar_off._plan
    load, counts = bar_on._load, spark_on._load
    assert {n: float(load.get(n)) for n in load.names} == bar_off._load
    assert bar_on.adjustments == bar_off.adjustments
    assert spark_on._plan == spark_off._plan
    assert counts.names == spark_off._order
    assert {n: int(counts.get(n)) for n in counts.names} == spark_off._planned_counts
    return {
        "bar": (bar_off_s, bar_on_s),
        "spark": (spark_off_s, spark_on_s),
    }


def test_bench_planning_speedup(benchmark):
    timings = once(benchmark, planning_speedup)
    report = {
        name: {
            "scalar_best_s": off_s,
            "soa_best_s": on_s,
            "speedup": off_s / on_s,
        }
        for name, (off_s, on_s) in timings.items()
    }
    print()
    print(json.dumps(report, indent=2, sort_keys=True))
    for name, row in report.items():
        assert row["speedup"] >= PLAN_SPEEDUP_FLOOR, (
            f"{name} planning speedup only {row['speedup']:.1f}x over "
            f"{FLEET} workers / {PLAN_JOBS} jobs"
        )


# -- 1k-worker full cell ---------------------------------------------------


def _profile_1k():
    specs = tuple(
        WorkerSpec(
            name=f"w{i:04d}",
            network_mbps=10.0 * (1.0 + 0.05 * ((i % 11) - 5) / 5.0),
            rw_mbps=60.0,
        )
        for i in range(FLEET)
    )
    return WorkerProfile("bench-1k", specs)


def full_cell_1k():
    _corpus, stream = job_config_by_name("80%_large").build(seed=11)
    runtime = WorkflowRuntime(
        profile=_profile_1k(),
        stream=stream,
        scheduler=make_scheduler("spark"),
        config=EngineConfig(seed=11, trace=False),
    )
    start = time.perf_counter()
    result = runtime.run()
    return result, time.perf_counter() - start


def test_bench_full_cell_1k(benchmark):
    result, wall_s = once(benchmark, full_cell_1k)
    print()
    print(
        json.dumps(
            {
                "workers": FLEET,
                "wall_s": wall_s,
                "jobs_completed": result.jobs_completed,
                "makespan_s": result.makespan_s,
            },
            indent=2,
            sort_keys=True,
        )
    )
    assert result.jobs_completed > 0
