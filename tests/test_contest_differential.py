"""Columnar contests vs. the per-worker reference protocol.

``tests/reference_bidding.py`` is the Bidding Scheduler as it ran before
contests went columnar (one bid-loop process and one ``Bid`` message per
worker per job).  Every scenario here runs twice -- once on
``repro.core`` and once with the reference registered as ``"bidding"``
(so a hot-swap *to* bidding swaps in the same implementation) -- and the
two runs must agree exactly: the full ``RunResult`` row, every worker's
``bids_submitted``, and with ``trace=True`` the whole trace record
sequence.  Untraced contests are computed from the cost planes (one
timer each), traced ones run over the broker message by message, so
both ways are held to the oracle.

Scenarios are the fuzzer's (``repro fuzz``: crashes with restarts,
partitions, loss windows; with ``reconfig`` also migrations and swaps
to and from bidding), re-fleeted to 5 / 25 / 100 / 400 workers; the
service layer under bursts, autoscaling, rebalance migrations and
crashes; and a zero-latency fleet whose bid times fall on the window's
own grid, where every tie is exact.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

import numpy as np
import pytest

from reference_bidding import make_reference_bidding_policy
from repro.check.fuzzer import Scenario, generate_scenario
from repro.cluster.profiles import WorkerProfile, profile_by_name
from repro.cluster.worker_spec import WorkerSpec
from repro.core.bidding import make_bidding_policy
from repro.core.learning import SPEED_MODELS
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.faults import CrashRenewal, FaultPlan
from repro.net.topology import TopologyConfig
from repro.schedulers import registry
from repro.schedulers.registry import make_scheduler
from repro.serve import (
    AdmissionConfig,
    AutoscalerConfig,
    ServiceConfig,
    ServiceRuntime,
    make_arrivals,
)
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


@pytest.mark.parametrize("trace", [False, True], ids=["computed", "traced"])
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


# -- the service layer: joins, retires, rebalance migrations, crashes ----------


def serve(
    factory, seed, trace, crashes, knobs, monkeypatch, duration_s=600.0, max_workers=24, mtbf_s=600, mttr_s=60
):
    monkeypatch.setitem(
        registry.SCHEDULERS, "bidding", functools.partial(factory, **knobs)
    )
    runtime = ServiceRuntime(
        profile=profile_by_name("all-equal"),
        scheduler=make_scheduler("bidding"),
        arrivals=make_arrivals("burst", rate=1.5),
        admission_config=AdmissionConfig(),
        autoscaler_config=AutoscalerConfig(
            min_workers=3, max_workers=max_workers, rebalance=True
        ),
        service_config=ServiceConfig(duration_s=duration_s),
        config=EngineConfig(seed=seed, trace=trace, check=trace),
        faults=(
            FaultPlan(renewals=(CrashRenewal(mtbf_s=mtbf_s, mttr_s=mttr_s),))
            if crashes
            else None
        ),
    )
    report = runtime.run().to_dict()
    bids = {name: block.bids_submitted for name, block in runtime.metrics.workers.items()}
    return report, bids


@pytest.mark.parametrize("crashes", [False, True], ids=["steady", "crashes"])
@pytest.mark.parametrize("bid_compute_s", [0.0, 0.25])
def test_service_runs_match_the_reference_traced_or_not(bid_compute_s, crashes, monkeypatch):
    """Autoscaler joins and rebalance migrations put ``MigrateAck``s,
    checkpoints and contest closes on the same instants; with
    ``bid_compute_s=0`` the bids land there too."""
    knobs = {"bid_compute_s": bid_compute_s}
    for seed in (40, 43, 44):
        label = f"seed {seed}, {knobs}"
        reference = serve(make_reference_bidding_policy, seed, False, crashes, knobs, monkeypatch)
        for trace in (False, True):
            ours = serve(make_bidding_policy, seed, trace, crashes, knobs, monkeypatch)
            assert ours == reference, f"trace={trace} differs ({label})"


def test_reruns_with_overloaded_bidders_match_the_reference(monkeypatch):
    """0.5 s bids and three contests at a time: windows pass without a
    bid, recovery reruns the contest, and the first contest's bids land
    inside the rerun's window (they are its late bids, not answers)."""
    knobs = {"bid_compute_s": 0.5, "max_concurrent_contests": 3}
    shape = {"duration_s": 300.0, "max_workers": 16, "mtbf_s": 300, "mttr_s": 40}
    for seed in (1001, 1037):
        reference = serve(
            make_reference_bidding_policy, seed, False, True, knobs, monkeypatch, **shape
        )
        for trace in (False, True):
            ours = serve(make_bidding_policy, seed, trace, True, knobs, monkeypatch, **shape)
            assert ours == reference, f"trace={trace} differs (seed {seed})"


# -- exact ties: zero latency, bid times on the window's grid ------------------


@pytest.mark.parametrize(
    "knobs",
    [
        {},
        {"max_concurrent_contests": 3},
        {"fast_local_close": True},
        {"bid_compute_s": 0.0},
        {"bid_compute_s": 0.0, "max_concurrent_contests": 3},
    ],
    ids=lambda knobs: "-".join(f"{k}={v}" for k, v in knobs.items()) or "default",
)
def test_bids_landing_on_the_window_expiry_are_late(knobs, monkeypatch):
    """No latency anywhere and CPU factors 1 / 0.5 / 0.25: bids are
    priced 0.25, 0.5 and exactly 1.0 s (the window) after the
    announcement, back-to-back contests open the instant the last one
    closes, and ``Assignment``s land while bids are being priced."""
    specs = tuple(
        WorkerSpec(name=name, network_mbps=10.0, rw_mbps=50.0, cpu_factor=cpu, link_latency=0.0)
        for name, cpu in (("a", 1.0), ("b", 0.25), ("c", 0.5))
    )
    arrivals = [
        JobArrival(
            at=0.3 * i,
            job=Job(
                job_id=f"j{i}",
                task=TASK_ANALYZER,
                repo_id=f"r{i % 2}",
                size_mb=20.0,
                base_compute_s=0.0,
            ),
        )
        for i in range(8)
    ]

    def go(factory, trace):
        runtime = WorkflowRuntime(
            profile=WorkerProfile(name="grid", specs=specs),
            stream=JobStream(arrivals=list(arrivals), name="grid"),
            scheduler=factory(**knobs),
            config=EngineConfig(
                seed=0,
                noise_kind="none",
                noise_params={},
                trace=trace,
                topology=TopologyConfig(
                    min_latency=0.0, max_latency=0.0, broker_processing=0.0
                ),
            ),
        )
        row = dataclasses.asdict(runtime.run())
        return row, {n: b.bids_submitted for n, b in runtime.metrics.workers.items()}

    reference = go(make_reference_bidding_policy, False)
    assert go(make_bidding_policy, False) == reference
    assert go(make_bidding_policy, True) == reference
