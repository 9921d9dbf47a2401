"""Columnar contests vs. the per-worker reference protocol.

``tests/reference_bidding.py`` is the Bidding Scheduler as it ran before
contests went columnar (one bid-loop process and one ``Bid`` message per
worker per job).  Every scenario here runs twice -- once on
``repro.core`` and once with the reference registered as ``"bidding"``
(so a hot-swap *to* bidding swaps in the same implementation) -- and the
two runs must agree exactly: the full ``RunResult`` row, every worker's
``bids_submitted``, and with ``trace=True`` the whole trace record
sequence.  Untraced runs take the unwitnessed path (one timer per
contest), traced ones the stepped path, so both are held to the oracle.

Scenarios are the fuzzer's (``repro fuzz``: crashes with restarts,
partitions, loss windows; with ``reconfig`` also migrations and swaps
to and from bidding), re-fleeted to 5 / 25 / 100 / 400 workers.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

import numpy as np
import pytest

from reference_bidding import make_reference_bidding_policy
from repro.check.fuzzer import Scenario, generate_scenario
from repro.cluster.profiles import WorkerProfile
from repro.cluster.worker_spec import WorkerSpec
from repro.core.bidding import make_bidding_policy
from repro.core.learning import SPEED_MODELS
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.schedulers import registry
from repro.schedulers.registry import make_scheduler
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER

KNOBS = {
    "max_concurrent_contests": (1, 3),
    "fast_local_close": (False, True),
    "bid_compute_s": (0.25, 0.0),
    "speed_model": ("nominal", "historic", "ewma"),
    "adaptive": (False, True),
}


def knobs_for(index: int) -> dict:
    """The ``index``-th knob setting; consecutive indices walk every
    value of every knob (and, over 48 of them, every combination)."""
    combos = list(itertools.product(*KNOBS.values()))
    return dict(zip(KNOBS, combos[(index * 7) % len(combos)]))


def refleet(scenario: Scenario, n_workers: int, n_jobs: int) -> Scenario:
    """``scenario`` on ``n_workers`` workers and (at least) ``n_jobs`` jobs."""
    rng = np.random.default_rng(scenario.seed + 1)
    workers = scenario.workers + tuple(
        WorkerSpec(
            name=f"w{i + 1}",
            network_mbps=float(rng.uniform(5.0, 50.0)),
            rw_mbps=float(rng.uniform(20.0, 200.0)),
            cpu_factor=float(rng.uniform(0.5, 2.0)),
            link_latency=float(rng.uniform(0.0, 0.3)),
        )
        for i in range(len(scenario.workers), n_workers)
    )
    jobs = list(scenario.jobs)
    at = jobs[-1].at
    repos = sorted({arrival.job.repo_id for arrival in jobs})
    sizes = {arrival.job.repo_id: arrival.job.size_mb for arrival in jobs}
    while len(jobs) < n_jobs:
        at += float(rng.exponential(0.4))
        repo = repos[int(rng.integers(len(repos)))]
        jobs.append(
            JobArrival(
                at=at,
                job=Job(
                    job_id=f"job-{len(jobs):03d}",
                    task=TASK_ANALYZER,
                    repo_id=repo,
                    size_mb=sizes[repo],
                    base_compute_s=float(rng.uniform(0.0, 2.0)),
                    payload=("fuzz", repo),
                ),
            )
        )
    return dataclasses.replace(scenario, workers=workers[:n_workers], jobs=tuple(jobs))


def run(scenario: Scenario, factory, trace: bool, knobs: dict, monkeypatch):
    """One run of ``scenario`` with ``factory`` registered as ``bidding``."""
    knobs = dict(knobs)
    knobs["speed_model_factory"] = SPEED_MODELS[knobs.pop("speed_model")]
    monkeypatch.setitem(
        registry.SCHEDULERS, "bidding", functools.partial(factory, **knobs)
    )
    runtime = WorkflowRuntime(
        profile=WorkerProfile(name="fuzz", specs=scenario.workers),
        stream=JobStream(arrivals=list(scenario.jobs), name="fuzz"),
        scheduler=make_scheduler(scenario.scheduler),
        config=EngineConfig(
            seed=scenario.seed,
            check=trace,
            trace=trace,
            shared_origin_mbps=scenario.shared_origin_mbps,
            max_sim_time=50_000.0,
        ),
        faults=scenario.faults,
        allow_partial=True,
        reconfig=scenario.reconfig,
    )
    row = dataclasses.asdict(runtime.run())
    bids = {name: block.bids_submitted for name, block in runtime.metrics.workers.items()}
    records = [
        (event.kind, event.time, event.job_id, event.worker, event.detail)
        for event in runtime.metrics.trace
    ]
    return row, bids, records


def assert_same(scenario: Scenario, trace: bool, knobs: dict, monkeypatch) -> None:
    reference = run(scenario, make_reference_bidding_policy, trace, knobs, monkeypatch)
    columnar = run(scenario, make_bidding_policy, trace, knobs, monkeypatch)
    label = f"seed {scenario.seed}, {len(scenario.workers)} workers, {knobs}"
    assert columnar[0] == reference[0], f"RunResult differs ({label})"
    assert list(columnar[0]["per_worker_mb"]) == list(reference[0]["per_worker_mb"]), (
        f"metrics block creation order differs ({label})"
    )
    assert columnar[1] == reference[1], f"bids_submitted differs ({label})"
    if columnar[2] != reference[2]:
        for index, (ours, theirs) in enumerate(zip(columnar[2], reference[2])):
            assert ours == theirs, f"trace record {index} differs ({label})"
        assert len(columnar[2]) == len(reference[2]), f"trace length differs ({label})"


def scenario_for(seed: int, reconfig: bool) -> Scenario:
    """A fuzzer scenario that exercises bidding: as the initial
    scheduler, or (every third reconfig scenario whose plan swaps to
    bidding) as the scheduler swapped in over whatever was drawn."""
    scenario = generate_scenario(seed, reconfig=reconfig)
    swaps_in = scenario.reconfig is not None and any(
        swap.scheduler == "bidding" for swap in scenario.reconfig.swaps
    )
    if swaps_in and seed % 3 == 0 and scenario.scheduler != "bidding":
        return scenario
    return dataclasses.replace(scenario, scheduler="bidding")


#: (workers, jobs, scenario seeds): many small scenarios, a few big ones.
FLEETS = {
    5: (24, range(0, 48)),
    25: (40, range(100, 124)),
    100: (60, range(200, 208)),
    400: (60, range(300, 304)),
}


@pytest.mark.parametrize("trace", [False, True], ids=["unwitnessed", "traced"])
@pytest.mark.parametrize("reconfig", [False, True], ids=["faults", "reconfig"])
@pytest.mark.parametrize("n_workers", sorted(FLEETS))
def test_columnar_contests_match_the_reference(n_workers, reconfig, trace, monkeypatch):
    n_jobs, seeds = FLEETS[n_workers]
    for seed in seeds:
        scenario = refleet(scenario_for(seed, reconfig), n_workers, n_jobs)
        assert_same(scenario, trace, knobs_for(seed), monkeypatch)


def test_every_knob_value_is_exercised():
    seen = {name: set() for name in KNOBS}
    for n_workers, (_jobs, seeds) in FLEETS.items():
        for seed in seeds:
            for name, value in knobs_for(seed).items():
                seen[name].add(value)
    assert seen == {name: set(values) for name, values in KNOBS.items()}
