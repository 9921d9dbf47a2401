"""Settled declines vs. the pull protocol message by message.

A ``baseline`` master that can tell an offer will be declined settles
the exchange itself -- one timer where the ``JobOffer``, the
``JobReject`` and the worker's next ``PullRequest`` would have been
(``schedulers/pull.py``; ARCHITECTURE.md section 12) -- unless something
could witness the messages.  ``trace=True, check=True`` is such a
witness, so every scenario here runs twice, over the broker (traced)
and settled (untraced), and the two must agree exactly: the full
``RunResult`` row, the order per-worker metrics blocks were created in,
every worker's accepted / rejected offers, and ``offers_made``.
``matchmaking`` and ``delay`` never decline; they ride along so that a
change to the shared pull machinery is held to the same oracle.

Scenarios are ``test_contest_differential.py``'s: the fuzzer's (crashes
with restarts, partitions, loss windows; with ``reconfig`` also pre-warm
migrations and hot-swaps), native and re-fleeted to 25 / 100 / 400
workers; the service layer under bursts, autoscaler drains, rebalance
migrations and crashes; a fleet of equal dyadic latencies fed
same-instant bursts, where whole cascades share their instants; and a
zero-latency fleet, where nothing may be settled at all.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check.fuzzer import Scenario, generate_scenario
from repro.cluster.profiles import WorkerProfile, profile_by_name
from repro.cluster.worker_spec import WorkerSpec
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.faults import CrashRenewal, FaultPlan
from repro.net.topology import TopologyConfig
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
from test_contest_differential import refleet

PULL = ("baseline", "matchmaking", "delay")


def outcome_of(row: dict, runtime):
    """What must agree -- the result row, the order the per-worker
    metrics blocks were created in, every worker's accepted / rejected
    offers, ``offers_made`` -- and the broker's count of real messages
    (which must not, when anything was settled)."""
    metrics = runtime.metrics
    offers = {
        name: (block.offers_accepted, block.offers_rejected)
        for name, block in metrics.workers.items()
    }
    outcome = (row, list(metrics.workers), offers, metrics.offers_made)
    return outcome, runtime.topology.broker.published


def run(scenario: Scenario, trace: bool):
    """One run of ``scenario`` (see :func:`outcome_of`)."""
    kwargs = {}
    if scenario.faults is not None and scenario.faults.message_loss:
        kwargs["response_timeout_s"] = 10.0  # as ``run_scenario`` does: keeps lossy runs live
    runtime = WorkflowRuntime(
        profile=WorkerProfile(name="fuzz", specs=scenario.workers),
        stream=JobStream(arrivals=list(scenario.jobs), name="fuzz"),
        scheduler=make_scheduler(scenario.scheduler, **kwargs),
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
    return outcome_of(dataclasses.asdict(runtime.run()), runtime)


def assert_same(scenario: Scenario) -> int:
    """Traced and untraced runs agree; returns the messages settling saved."""
    label = f"seed {scenario.seed}, {scenario.scheduler}, {len(scenario.workers)} workers"
    traced, sent = run(scenario, trace=True)
    settled, sent_settled = run(scenario, trace=False)
    for ours, theirs, what in zip(
        settled, traced, ("RunResult", "metrics block order", "offers per worker", "offers_made")
    ):
        assert ours == theirs, f"{what} differs ({label})"
    return sent - sent_settled


#: workers (``None``: as the fuzzer drew them, 2-6) -> (jobs, scenario seeds).
FLEETS = {
    None: (0, range(0, 60)),
    25: (40, range(100, 124)),
    100: (60, range(200, 208)),
    400: (60, range(300, 308)),
}


@pytest.mark.parametrize("reconfig", [False, True], ids=["faults", "reconfig"])
@pytest.mark.parametrize(
    "n_workers",
    [
        pytest.param(n, marks=pytest.mark.slow) if n == 400 else n
        for n in FLEETS
    ],
    ids=lambda n: f"{n or 'native'}",
)
@pytest.mark.parametrize("scheduler", PULL)
def test_settled_declines_match_the_message_path(scheduler, n_workers, reconfig):
    n_jobs, seeds = FLEETS[n_workers]
    saved = 0
    for seed in seeds:
        scenario = dataclasses.replace(
            generate_scenario(seed, reconfig=reconfig), scheduler=scheduler
        )
        if n_workers is not None:
            scenario = refleet(scenario, n_workers, n_jobs)
        saved += assert_same(scenario)
    # The comparison means something: baseline did settle declines (three
    # messages each), and the schedulers that never decline sent the same
    # (unless a hot-swap brought baseline in).
    if scheduler == "baseline":
        assert saved > 0
    elif not reconfig:
        assert saved == 0


def test_a_prewarm_ahead_of_a_settled_offer_reopens_it():
    """Fuzzer scenario 1100 on 25 workers: a crash at 3.13 s, then at
    4.13 s a migration pre-warms its target's cache while an offer that
    was settled as a decline is on its way there.  With the un-settle
    seam removed the untraced run reads 192 rejections and 61.303 s."""
    scenario = dataclasses.replace(
        generate_scenario(1100, reconfig=True), scheduler="baseline"
    )
    scenario = refleet(scenario, 25, 40)
    assert assert_same(scenario) > 0
    (row, _order, _offers, _made), _sent = run(scenario, trace=False)
    assert (row["rejections"], round(row["makespan_s"], 3)) == (184, 60.904)


# -- the service layer: drains, rebalance migrations, crashes ------------------


def serve(seed: int, trace: bool, rebalance: bool, crashes: bool):
    runtime = ServiceRuntime(
        profile=profile_by_name("all-equal"),
        scheduler=make_scheduler("baseline"),
        arrivals=make_arrivals("burst", rate=1.5),
        admission_config=AdmissionConfig(),
        autoscaler_config=AutoscalerConfig(
            min_workers=3, max_workers=24, rebalance=rebalance
        ),
        service_config=ServiceConfig(duration_s=600.0),
        config=EngineConfig(seed=seed, trace=trace, check=trace),
        faults=(
            FaultPlan(renewals=(CrashRenewal(mtbf_s=200, mttr_s=30),)) if crashes else None
        ),
    )
    return outcome_of(runtime.run().to_dict(), runtime)


@pytest.mark.parametrize(
    "rebalance, crashes",
    [(False, False), (True, False), (True, True)],
    ids=["autoscaler-drain", "rebalance", "crash-renewal"],
)
def test_service_runs_match_traced_or_not(rebalance, crashes):
    for seed in (40, 43, 44):
        traced, sent = serve(seed, True, rebalance, crashes)
        settled, sent_settled = serve(seed, False, rebalance, crashes)
        assert settled == traced, f"seed {seed}"
        assert sent_settled < sent


# -- exact ties ----------------------------------------------------------------


def grid_run(latency: float, trace: bool, requeue: str):
    """Eight workers at one dyadic distance from the broker (every sum
    of legs is exact), jobs arriving four to an instant: the offers of a
    burst go out together, land together and come back together."""
    specs = tuple(
        WorkerSpec(
            name=f"w{i}",
            network_mbps=8.0 + i,
            rw_mbps=40.0 + 3 * i,
            link_latency=0.03 * i,
        )
        for i in range(8)
    )
    arrivals = [
        JobArrival(
            at=0.5 * (i // 4),
            job=Job(
                job_id=f"j{i:02d}",
                task=TASK_ANALYZER,
                repo_id=f"r{i % 5}",
                size_mb=20.0 + 7 * (i % 5),
                base_compute_s=0.1 * (i % 3),
            ),
        )
        for i in range(32)
    ]
    runtime = WorkflowRuntime(
        profile=WorkerProfile(name="grid", specs=specs),
        stream=JobStream(arrivals=arrivals, name="grid"),
        scheduler=make_scheduler("baseline", requeue=requeue),
        config=EngineConfig(
            seed=0,
            trace=trace,
            check=trace,
            topology=TopologyConfig(
                min_latency=latency, max_latency=latency, broker_processing=latency / 2
            ),
        ),
    )
    return outcome_of(dataclasses.asdict(runtime.run()), runtime)


@pytest.mark.parametrize("requeue", ["front", "back"])
def test_equal_dyadic_latencies_and_same_instant_bursts(requeue):
    traced, sent = grid_run(2.0**-6, True, requeue)
    settled, sent_settled = grid_run(2.0**-6, False, requeue)
    assert settled == traced
    assert sent_settled < sent


@pytest.mark.parametrize("requeue", ["front", "back"])
def test_nothing_is_settled_on_a_zero_latency_fleet(requeue):
    """A leg that takes no time is delivered inside ``publish``: there
    is no timer whose place a settlement could take."""
    traced, sent = grid_run(0.0, True, requeue)
    settled, sent_settled = grid_run(0.0, False, requeue)
    assert settled == traced
    assert sent_settled == sent
