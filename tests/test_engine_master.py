"""Unit tests for the master node: intake, expansion, termination."""

import numpy as np
import pytest

from conftest import make_profile, make_spec
from repro.engine.runtime import EngineConfig, WorkflowRuntime, single_task_pipeline
from repro.net.topology import TopologyConfig
from repro.schedulers.base import MasterPolicy, PassiveWorkerPolicy, SchedulerPolicy
from repro.schedulers.registry import make_scheduler
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import KIND_ANALYSIS, TASK_ANALYZER
from repro.workload.pipeline import Pipeline, Task


def analysis_job(job_id, repo=None, size=0.0, at=0.0):
    return JobArrival(
        at=at,
        job=Job(
            job_id=job_id,
            task=TASK_ANALYZER,
            repo_id=repo,
            size_mb=size,
            base_compute_s=1.0,
        ),
    )


def quiet_config(seed=0):
    return EngineConfig(
        seed=seed,
        noise_kind="none",
        noise_params={},
        topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
    )


def small_runtime(stream, scheduler=None, pipeline=None, config=None):
    profile = make_profile(make_spec("w1"), make_spec("w2", network=20.0, rw=100.0))
    return WorkflowRuntime(
        profile=profile,
        stream=stream,
        scheduler=scheduler or make_scheduler("round-robin"),
        pipeline=pipeline,
        config=config or quiet_config(),
    )


class TestTermination:
    def test_simple_stream_completes(self):
        stream = JobStream(
            arrivals=[analysis_job(f"j{i}", repo=f"r{i}", size=10.0) for i in range(6)]
        )
        runtime = small_runtime(stream)
        result = runtime.run()
        assert result.jobs_completed == 6
        assert runtime.master.outstanding == 0
        assert runtime.master.done.triggered

    def test_arrival_times_respected(self):
        stream = JobStream(arrivals=[analysis_job("late", at=50.0)])
        runtime = small_runtime(stream)
        result = runtime.run()
        assert result.makespan_s >= 50.0

    def test_deadline_guard_raises_on_stall(self):
        stream = JobStream(arrivals=[analysis_job("j", repo="r", size=1e9)])
        config = EngineConfig(
            seed=0,
            noise_kind="none",
            noise_params={},
            max_sim_time=10.0,
        )
        runtime = small_runtime(stream, config=config)
        with pytest.raises(RuntimeError, match="did not complete"):
            runtime.run()

    def test_requires_workers(self):
        from repro.engine.master import Master

        with pytest.raises(ValueError):
            Master(
                sim=None,
                topology=None,
                pipeline=single_task_pipeline(),
                policy=None,
                worker_names=[],
                stream=JobStream(),
                metrics=None,
                fleet=None,
            )


class TestPipelineExpansion:
    def build_expanding_pipeline(self):
        def expand(job):
            if job.task != "generator":
                return []
            return [
                Job(job_id=f"{job.job_id}-child-{i}", task=TASK_ANALYZER, repo_id=f"cr{i}", size_mb=5.0)
                for i in range(3)
            ]

        pipeline = Pipeline(name="expanding")
        pipeline.add_task(
            Task(name="generator", consumes=("Seed",), produces=(KIND_ANALYSIS,), handle=expand)
        )
        pipeline.add_task(Task(name=TASK_ANALYZER, consumes=(KIND_ANALYSIS,)))
        pipeline.connect("Seed", None, "generator")
        pipeline.connect(KIND_ANALYSIS, "generator", TASK_ANALYZER)
        pipeline.validate()
        return pipeline

    def test_children_submitted_and_counted(self):
        pipeline = self.build_expanding_pipeline()
        stream = JobStream(
            arrivals=[JobArrival(at=0.0, job=Job(job_id="seed", task="generator"))]
        )
        runtime = small_runtime(stream, pipeline=pipeline)
        result = runtime.run()
        # 1 seed + 3 children.
        assert result.jobs_completed == 4

    def test_master_side_task_runs_inline(self):
        processed = []

        def sink_handle(job):
            processed.append(job.job_id)
            return []

        def expand(job):
            return [Job(job_id=f"{job.job_id}-rec", task="sink", payload=())]

        pipeline = Pipeline(name="with-sink")
        pipeline.add_task(
            Task(name=TASK_ANALYZER, consumes=(KIND_ANALYSIS,), produces=("Rec",), handle=expand)
        )
        pipeline.add_task(Task(name="sink", consumes=("Rec",), handle=sink_handle, on_master=True))
        pipeline.connect(KIND_ANALYSIS, None, TASK_ANALYZER)
        pipeline.connect("Rec", TASK_ANALYZER, "sink")
        pipeline.validate()

        stream = JobStream(arrivals=[analysis_job("j1", repo="r1", size=10.0)])
        runtime = small_runtime(stream, pipeline=pipeline)
        result = runtime.run()
        assert processed == ["j1-rec"]
        assert result.jobs_completed == 2


class TestAssignmentBookkeeping:
    def test_assignments_recorded(self):
        stream = JobStream(
            arrivals=[analysis_job(f"j{i}", repo=f"r{i}", size=5.0) for i in range(4)]
        )
        runtime = small_runtime(stream)
        runtime.run()
        assert set(runtime.master.assignments) == {"j0", "j1", "j2", "j3"}
        # Round-robin across two workers.
        assert sorted(runtime.master.assignments.values()) == ["w1", "w1", "w2", "w2"]

    def test_assign_to_unknown_worker_rejected(self):
        class BadPolicy(MasterPolicy):
            name = "bad"

            def on_job(self, job):
                self.master.assign(job, "ghost-worker")

        policy = SchedulerPolicy(
            name="bad", master_factory=BadPolicy, worker_factory=PassiveWorkerPolicy
        )
        stream = JobStream(arrivals=[analysis_job("j0", repo="r", size=5.0)])
        runtime = small_runtime(stream, scheduler=policy)
        with pytest.raises(ValueError, match="unknown worker"):
            runtime.run()

    def test_arbitrary_worker_uses_run_rng(self):
        stream = JobStream(
            arrivals=[analysis_job(f"j{i}", repo=f"r{i}", size=5.0) for i in range(10)]
        )
        a = small_runtime(stream, scheduler=make_scheduler("random"), config=quiet_config(5))
        b = small_runtime(stream, scheduler=make_scheduler("random"), config=quiet_config(5))
        assert a.run().per_worker_jobs == b.run().per_worker_jobs


class TestDoubleCompletionGuard:
    def test_duplicate_completion_detected(self):
        from repro.engine.messages import JobCompleted

        stream = JobStream(arrivals=[analysis_job("j0", repo="r", size=5.0)])
        runtime = small_runtime(stream)
        runtime.run()
        job = stream.jobs[0]
        with pytest.raises(RuntimeError, match="more times than submitted"):
            runtime.master._on_completed(JobCompleted(job=job, worker="w1"))
