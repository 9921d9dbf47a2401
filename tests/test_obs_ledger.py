"""The decision ledger: one DecisionRecord per allocation, for every
scheduler, observation-only (bit-identical metrics with it on or off)."""

import pytest

from conftest import make_profile, make_spec
from repro.check import InvariantViolation
from repro.faults import CrashRenewal, FaultPlan, RecoveryConfig, WorkerCrash
from repro.fuzz.planted import (
    make_double_allocate_policy,
    plant_buggy_migrator,
    plant_overdelivering_origin,
)
from repro.host import EngineConfig, WorkflowRuntime
from repro.obs import CandidateScore, DecisionLedger, DecisionRecord, FlowRecord, ObsConfig
from repro.reconfig import JobMigration, ReconfigPlan, SchedulerSwap
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


def burst_stream(n=8):
    return JobStream.burst(
        [
            Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i % 3}", size_mb=10.0)
            for i in range(n)
        ]
    )


def run_once(scheduler, obs, n=8, seed=5):
    runtime = WorkflowRuntime(
        profile=make_profile(make_spec("w1"), make_spec("w2"), make_spec("w3")),
        stream=burst_stream(n),
        scheduler=make_scheduler(scheduler),
        config=EngineConfig(seed=seed, trace=True, obs=obs),
    )
    result = runtime.run()
    return result, runtime


class TestEmission:
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_every_scheduler_emits_one_record_per_assignment(self, scheduler):
        result, runtime = run_once(scheduler, obs=ObsConfig())
        ledger = runtime.obs.ledger
        assert ledger is not None
        # One record per assignment: completed jobs all have a final
        # record, and the count matches the trace's assigned events.
        assigned = runtime.metrics.trace.of_kind("assigned")
        assert len(ledger.records) == len(assigned)
        assert result.jobs_completed == 8
        for i in range(8):
            record = ledger.for_job(f"j{i}")[-1]
            assert record.policy == scheduler
            assert record.worker in ("w1", "w2", "w3")
            assert record.reason  # every policy narrates its pick

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_records_match_trace_assignments(self, scheduler):
        _, runtime = run_once(scheduler, obs=ObsConfig())
        ledger = runtime.obs.ledger
        assigned = runtime.metrics.trace.of_kind("assigned")
        for record, event in zip(ledger.records, assigned):
            assert record.job_id == event.job_id
            assert record.worker == event.worker
            assert record.time == event.time

    def test_bidding_records_carry_scored_candidates(self):
        _, runtime = run_once("bidding", obs=ObsConfig())
        for record in runtime.obs.ledger.records:
            assert record.kind in ("contest", "fallback")
            if record.kind == "contest":
                assert len(record.candidates) >= 1
                chosen = record.candidate(record.worker)
                assert chosen is not None and chosen.score is not None
                if record.runner_up is not None:
                    beaten = record.candidate(record.runner_up)
                    # Lower bid wins; ties impossible under (cost, name) sort.
                    assert chosen.score <= beaten.score

    def test_ledger_off_means_no_ledger(self):
        _, runtime = run_once("bidding", obs=ObsConfig(ledger=False))
        assert runtime.obs.ledger is None


class TestObservationOnly:
    """Seed purity: the ledger may not perturb the run."""

    @pytest.mark.parametrize("scheduler", ["bidding", "baseline", "spark", "random"])
    def test_metrics_bit_identical_with_ledger_on_or_off(self, scheduler):
        on, _ = run_once(scheduler, obs=ObsConfig(ledger=True))
        off, _ = run_once(scheduler, obs=ObsConfig(ledger=False))
        bare, _ = run_once(scheduler, obs=False)
        for other in (off, bare):
            assert on.makespan_s == other.makespan_s
            assert on.cache_misses == other.cache_misses
            assert on.cache_hits == other.cache_hits
            assert on.data_load_mb == other.data_load_mb
            assert on.jobs_completed == other.jobs_completed

    def test_trace_bit_identical_with_ledger_on_or_off(self):
        _, on = run_once("bidding", obs=ObsConfig(ledger=True))
        _, off = run_once("bidding", obs=ObsConfig(ledger=False))
        assert on.metrics.trace.events == off.metrics.trace.events


class TestRoundTrip:
    def test_records_survive_json_round_trip(self):
        _, runtime = run_once("bidding", obs=ObsConfig())
        ledger = runtime.obs.ledger
        clone = DecisionLedger.from_dicts(ledger.to_dicts())
        assert clone.records == ledger.records

    def test_candidate_lookup_and_defaults(self):
        record = DecisionRecord(
            seq=0,
            time=1.0,
            job_id="j",
            repo_id="r",
            worker="w1",
            policy="p",
            kind="k",
            candidates=(CandidateScore(worker="w1", score=2.0, local=True),),
        )
        assert record.candidate("w1").local is True
        assert record.candidate("w9") is None
        assert DecisionRecord.from_dict(record.to_dict()) == record

    def test_append_and_from_dicts_behind_pending_rows(self):
        # ``on_assigned`` leaves rows; a finished record (the ``repro
        # explain`` round trip) goes in behind them, and nothing is built
        # twice.
        class Policy:
            name = "stub"
            built = 0
            snapshots = [3.0, 4.0, 5.0]

            def decision_snapshot(self, job, worker):
                return self.snapshots.pop(0)

            def decision_context(self, job, worker, snapshot):
                self.built += 1
                return ("stub", (CandidateScore(worker=worker, score=snapshot),), None, "why")

        policy, ledger = Policy(), DecisionLedger()
        jobs = [Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id="r", size_mb=1.0) for i in range(2)]
        ledger.on_assigned(jobs[0], "w1", policy, 1.0)
        ledger.on_assigned(jobs[1], "w2", policy, 2.0)
        assert len(ledger) == 2 and policy.built == 0
        extra = DecisionRecord(
            seq=2, time=3.0, job_id="j0", repo_id="r", worker="w3", policy="p", kind="k"
        )
        ledger.append(extra)
        ledger.on_assigned(jobs[1], "w1", policy, 4.0)
        assert len(ledger) == 4
        assert [record.seq for record in ledger] == [0, 1, 2, 3]
        assert [record.worker for record in ledger.for_job("j0")] == ["w1", "w3"]
        assert ledger.for_job("j1")[-1].candidates[0].score == 5.0
        assert ledger.records[2] is extra
        assert policy.built == 3
        clone = DecisionLedger.from_dicts(ledger.to_dicts())
        assert clone.records == ledger.records and policy.built == 3


# -- hooks write rows, readers build records: lazy == eager -------------------


def churn_stream(n=30):
    return JobStream(
        arrivals=[
            JobArrival(
                at=0.2 * i,
                job=Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i % 4}", size_mb=60.0),
            )
            for i in range(n)
        ]
    )


def observed_runtime(scheduler, scenario):
    """Every observer on, under one of three histories.

    ``crashes``: a crash/repair renewal with re-dispatch -- and for
    bidding, 0.5 s bids three contests at a time, so that windows pass
    without a bid and recovery runs the contest again.  ``reconfig``: a
    migration with pre-warm, then a hot-swap to another scheduler (the
    old policy's rows are read after it was swapped out).
    """
    faults = reconfig = None
    kwargs = {}
    if scenario == "crashes":
        faults = FaultPlan(
            crashes=(
                WorkerCrash(at_s=4.3, worker="w1", restart_after_s=2.0),
                WorkerCrash(at_s=9.0, worker="w2", restart_after_s=2.0),
            ),
            renewals=(CrashRenewal(mtbf_s=15.0, mttr_s=3.0),),
            recovery=RecoveryConfig(max_redispatches=30, backoff_base_s=0.1),
        )
        if scheduler == "bidding":
            kwargs = {"max_concurrent_contests": 3, "bid_compute_s": 0.5}
    elif scenario == "reconfig":
        reconfig = ReconfigPlan(
            migrations=(JobMigration(at_s=3.0, max_jobs=2, include_running=True),),
            swaps=(
                SchedulerSwap(at_s=4.0, scheduler="baseline" if scheduler == "bidding" else "bidding"),
            ),
        )
    if isinstance(scheduler, str):
        scheduler = make_scheduler(scheduler, **kwargs)
    return WorkflowRuntime(
        profile=make_profile(make_spec("w1"), make_spec("w2"), make_spec("w3")),
        stream=churn_stream(),
        scheduler=scheduler,
        config=EngineConfig(
            seed=7,
            trace=True,
            check=True,
            obs=True,
            max_sim_time=50_000.0,
            shared_origin_mbps=20.0 if scenario == "origin" else None,
        ),
        faults=faults,
        reconfig=reconfig,
    )


def read_after_every_assignment(runtime):
    """Build every record, flow and monitor line the instant after each
    decision -- what the hooks did themselves before they wrote rows."""

    class Reader:
        def on_assigned(self, job, worker, policy, now):
            obs = runtime.obs
            assert obs.ledger.records[-1].worker == worker
            assert obs.ledger.for_job(job.job_id)[-1].time == now
            assert all(isinstance(flow, FlowRecord) for flow in obs.flows)
            assert runtime.monitor.events[-1][1] == "assigned"

    runtime.hooks.subscribe(Reader())


def readings(runtime):
    return runtime.obs.ledger.to_dicts(), runtime.obs.flows, list(runtime.monitor.events)


class TestLazyEqualsEager:
    @pytest.mark.parametrize("scenario", ["clean", "crashes", "reconfig"])
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_reading_only_at_the_end_changes_nothing(self, scheduler, scenario):
        eager, lazy = (observed_runtime(scheduler, scenario) for _ in range(2))
        read_after_every_assignment(eager)
        results = eager.run(), lazy.run()
        assert results[0] == results[1]
        assert len(lazy.obs.ledger) == len(lazy.obs.ledger._pending) > 0  # nothing built yet
        decisions, flows, events = readings(lazy)
        assert (decisions, flows, events) == readings(eager)
        assert len(decisions) == len(lazy.metrics.trace.of_kind("assigned"))
        trace = lazy.metrics.trace
        if scenario == "crashes":
            assert results[1].redispatches > 0
            if scheduler == "bidding":
                assert lazy.metrics.contests_fallback > 0  # zero-bid windows, run again
                assert {"contest", "fallback"} <= {row["kind"] for row in decisions}
        if scenario == "reconfig":
            assert trace.of_kind("migrate_prewarm") and len(trace.of_kind("swap_done")) == 1
            assert len({row["policy"] for row in decisions}) == 2

    @pytest.mark.parametrize("plant", ["double-allocate", "overdelivery", "buggy-migrator"])
    def test_planted_bugs_read_the_same(self, plant):
        def violation(eagerly):
            if plant == "double-allocate":
                runtime = observed_runtime(make_double_allocate_policy(), "clean")
            elif plant == "overdelivery":
                runtime = observed_runtime("bidding", "origin")
                plant_overdelivering_origin(runtime)
            else:
                runtime = observed_runtime("bidding", "reconfig")
                plant_buggy_migrator(runtime)
            if eagerly:
                read_after_every_assignment(runtime)
            with pytest.raises(InvariantViolation) as caught:
                runtime.run()
            return caught.value

        eager, lazy = violation(True), violation(False)
        assert str(lazy) == str(eager)
        assert lazy.events == eager.events and lazy.events
        # In words, as the hooks used to write them.
        assert all(isinstance(info, str) and "{" not in info for _, _, info in lazy.events)
