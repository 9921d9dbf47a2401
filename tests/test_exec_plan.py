"""Plan capture: the sim's decision stream, frozen and round-trippable."""

import pytest

from repro.cluster.profiles import profile_by_name
from repro.exec.plan import (
    Decision,
    ExecPlan,
    PlanJob,
    PlanWorker,
    capture_workflow_plan,
)
from repro.host import EngineConfig, WorkflowRuntime
from repro.schedulers.registry import make_scheduler
from repro.workload.job import Job, JobStream
from repro.workload.msr import TASK_ANALYZER


def tiny_plan() -> ExecPlan:
    workers = (
        PlanWorker(name="a", network_mbps=10.0, rw_mbps=60.0),
        PlanWorker(name="b", network_mbps=10.0, rw_mbps=60.0, preload=(("r1", 5.0),)),
    )
    jobs = (
        PlanJob(job_id="j0", task="t", repo_id="r1", size_mb=5.0),
        PlanJob(job_id="j1", task="t"),
    )
    decisions = (
        Decision(seq=0, job_id="j0", worker="b", at_s=0.0),
        Decision(seq=1, job_id="j1", worker="a", at_s=0.5),
    )
    return ExecPlan(
        scheduler="baseline", seed=1, workers=workers, jobs=jobs, decisions=decisions
    )


class TestRoundTrip:
    def test_plan_survives_dict_round_trip(self):
        plan = tiny_plan()
        assert ExecPlan.from_dict(plan.to_dict()) == plan

    def test_unbounded_cache_encodes_as_null(self):
        worker = PlanWorker(name="a", network_mbps=1.0, rw_mbps=1.0)
        data = worker.to_dict()
        assert data["cache_capacity_mb"] is None
        assert PlanWorker.from_dict(data).cache_capacity_mb == float("inf")

    def test_plan_job_converts_to_real_job_and_back(self):
        job = Job(job_id="j3", task=TASK_ANALYZER, repo_id="r0", size_mb=7.0)
        plan_job = PlanJob.from_job(job, handler="crc")
        assert plan_job.handler == "crc"
        assert plan_job.to_job() == job


class TestValidation:
    def test_decision_for_unknown_job_rejected(self):
        plan = tiny_plan()
        with pytest.raises(ValueError, match="unknown job"):
            ExecPlan(
                scheduler="x",
                seed=0,
                workers=plan.workers,
                jobs=plan.jobs,
                decisions=(Decision(seq=0, job_id="ghost", worker="a", at_s=0.0),),
            )

    def test_decision_for_unknown_worker_rejected(self):
        plan = tiny_plan()
        with pytest.raises(ValueError, match="unknown worker"):
            ExecPlan(
                scheduler="x",
                seed=0,
                workers=plan.workers,
                jobs=plan.jobs,
                decisions=(Decision(seq=0, job_id="j0", worker="ghost", at_s=0.0),),
            )

    def test_per_worker_order_follows_decision_order(self):
        assert tiny_plan().per_worker_order() == {"a": ["j1"], "b": ["j0"]}


def smoke_runtime(scheduler="baseline", n_jobs=6, seed=4):
    jobs = [
        Job(
            job_id=f"j{i}",
            task=TASK_ANALYZER,
            repo_id=f"r{i % 2}",
            size_mb=10.0,
        )
        for i in range(n_jobs)
    ]
    return WorkflowRuntime(
        profile=profile_by_name("all-equal"),
        stream=JobStream.burst(jobs),
        scheduler=make_scheduler(scheduler),
        config=EngineConfig(seed=seed),
    )


class TestCapture:
    def test_every_job_decided_exactly_once_in_a_healthy_run(self):
        plan, result = capture_workflow_plan(smoke_runtime())
        assert result.jobs_completed == 6
        assert len(plan.decisions) == 6
        assert sorted(job.job_id for job in plan.jobs) == [f"j{i}" for i in range(6)]
        # seq is the global decision order, dense from zero.
        assert [d.seq for d in plan.decisions] == list(range(6))
        # Decision times are the sim's, nondecreasing.
        times = [d.at_s for d in plan.decisions]
        assert times == sorted(times)

    def test_capture_snapshots_cold_preload_before_the_run(self):
        plan, _result = capture_workflow_plan(smoke_runtime())
        # The run itself warms the caches; the plan must not see that.
        assert all(worker.preload == () for worker in plan.workers)

    def test_capture_is_deterministic(self):
        plan_a, _ = capture_workflow_plan(smoke_runtime(seed=9))
        plan_b, _ = capture_workflow_plan(smoke_runtime(seed=9))
        assert plan_a == plan_b

    def test_bidding_decisions_are_captured_through_the_same_seam(self):
        plan, result = capture_workflow_plan(smoke_runtime(scheduler="bidding"))
        assert len(plan.decisions) == result.jobs_completed == 6
