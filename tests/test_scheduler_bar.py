"""Protocol tests for the BAR scheduler (Jin et al. 2011 adaptation)."""

import pytest

from conftest import make_profile, make_spec
from repro.host import EngineConfig, WorkflowRuntime
from repro.net.topology import TopologyConfig
from repro.schedulers.bar import BARMasterPolicy, make_bar_policy
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


def quiet_config(seed=0):
    return EngineConfig(
        seed=seed,
        noise_kind="none",
        noise_params={},
        topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
    )


def arrivals(*specs):
    return JobStream(
        arrivals=[
            JobArrival(
                at=at,
                job=Job(job_id=job_id, task=TASK_ANALYZER, repo_id=repo, size_mb=size),
            )
            for job_id, repo, size, at in specs
        ]
    )


def run_bar(stream, specs=None, initial_caches=None, **kwargs):
    profile = make_profile(*(specs or [make_spec(f"w{i + 1}") for i in range(3)]))
    runtime = WorkflowRuntime(
        profile=profile,
        stream=stream,
        scheduler=make_bar_policy(**kwargs),
        config=quiet_config(),
        initial_caches=initial_caches,
    )
    return runtime, runtime.run()


class TestPhase1Locality:
    def test_holders_get_their_jobs(self):
        stream = arrivals(
            ("j0", "ra", 50.0, 0.0),
            ("j1", "rb", 50.0, 0.0),
        )
        runtime, result = run_bar(
            stream,
            initial_caches={"w1": {"ra": 50.0}, "w2": {"rb": 50.0}},
        )
        assert runtime.master.assignments["j0"] == "w1"
        assert runtime.master.assignments["j1"] == "w2"
        assert result.cache_misses == 0

    def test_unlocatable_jobs_balance(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 50.0, 0.0) for i in range(9)])
        _runtime, result = run_bar(stream)
        assert sorted(result.per_worker_jobs.values()) == [3, 3, 3]


class TestPhase2Balance:
    def test_convoy_broken_by_adjustment(self):
        """All jobs local to one worker: BAR moves some away, unlike a
        greedy-locality convoy."""
        stream = arrivals(*[(f"j{i}", "hot", 100.0, 0.0) for i in range(12)])
        runtime, result = run_bar(
            stream, initial_caches={"w1": {"hot": 100.0}}
        )
        assignments = set(runtime.master.assignments.values())
        assert len(assignments) > 1, "phase 2 should offload the holder"
        policy = runtime.master.policy
        assert policy.adjustments > 0

    def test_zero_adjustments_stays_greedy(self):
        stream = arrivals(*[(f"j{i}", "hot", 100.0, 0.0) for i in range(12)])
        runtime, _result = run_bar(
            stream,
            initial_caches={"w1": {"hot": 100.0}},
            max_adjustments=0,
        )
        assert set(runtime.master.assignments.values()) == {"w1"}

    def test_speed_awareness(self):
        """BAR prices remote execution with the fleet's true speeds, so a
        fast worker absorbs more of the cold workload."""
        specs = [
            make_spec("fast", network=40.0, rw=200.0, cpu_factor=4.0),
            make_spec("slow", network=10.0, rw=50.0),
        ]
        stream = arrivals(*[(f"j{i}", f"r{i}", 100.0, 0.0) for i in range(10)])
        _runtime, result = run_bar(stream, specs=specs)
        assert result.per_worker_jobs["fast"] > result.per_worker_jobs["slow"]


class TestValidation:
    def test_requires_speed_view(self):
        policy = BARMasterPolicy()

        class FakeMaster:
            worker_names = ["w1"]

        policy.master = FakeMaster()
        with pytest.raises(RuntimeError, match="speed_view"):
            policy.on_upfront_jobs(
                [Job(job_id="j", task=TASK_ANALYZER, repo_id="r", size_mb=1.0)]
            )

    def test_negative_adjustments_rejected(self):
        with pytest.raises(ValueError):
            BARMasterPolicy(max_adjustments=-1)

    def test_dynamic_jobs_complete(self):
        # Jobs arriving after the upfront plan (never planned) still run.
        stream = arrivals(
            ("j0", "r0", 50.0, 0.0),
            ("late", "rx", 50.0, 30.0),
        )
        _runtime, result = run_bar(stream)
        assert result.jobs_completed == 2
