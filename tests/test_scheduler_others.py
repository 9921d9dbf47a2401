"""Protocol tests for Spark-style, Matchmaking, Delay and control policies."""

from types import SimpleNamespace

import pytest

from conftest import make_profile, make_spec
from repro.host import EngineConfig, WorkflowRuntime
from repro.net.topology import TopologyConfig
from repro.schedulers.delay import DelayMasterPolicy, make_delay_policy
from repro.schedulers.matchmaking import make_matchmaking_policy
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.schedulers.spark import SparkMasterPolicy, make_spark_policy
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


def run_with(scheduler, stream, n_workers=3, initial_caches=None, seed=0):
    profile = make_profile(*[make_spec(f"w{i + 1}") for i in range(n_workers)])
    runtime = WorkflowRuntime(
        profile=profile,
        stream=stream,
        scheduler=scheduler,
        config=quiet_config(seed),
        initial_caches=initial_caches,
    )
    return runtime, runtime.run()


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_every_scheduler_completes_a_workflow(self, name):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, float(i)) for i in range(6)])
        _runtime, result = run_with(make_scheduler(name), stream)
        assert result.jobs_completed == 6

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="valid:"):
            make_scheduler("clairvoyant")

    def test_kwargs_forwarded(self):
        policy = make_scheduler("bidding", window_s=0.25)
        assert policy.make_master().window_s == 0.25


class TestSpark:
    def test_balanced_counts(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, 0.0) for i in range(9)])
        runtime, result = run_with(make_spark_policy(use_locality=False), stream)
        assert sorted(result.per_worker_jobs.values()) == [3, 3, 3]

    def test_upfront_plan_covers_all_jobs(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, float(i)) for i in range(6)])
        runtime, _result = run_with(make_spark_policy(), stream)
        assert set(runtime.master.assignments) == {f"j{i}" for i in range(6)}

    def test_locality_preference_uses_initial_caches(self):
        stream = arrivals(*[("j0", "hot", 10.0, 0.0), ("j1", "cold", 10.0, 0.0)])
        runtime, result = run_with(
            make_spark_policy(use_locality=True),
            stream,
            initial_caches={"w2": {"hot": 10.0}},
        )
        assert runtime.master.assignments["j0"] == "w2"

    def test_locality_blind_ignores_caches(self):
        stream = arrivals(("j0", "hot", 10.0, 0.0))
        hits = 0
        for seed in range(8):
            runtime, result = run_with(
                make_spark_policy(use_locality=False),
                stream,
                initial_caches={"w2": {"hot": 10.0}},
                seed=seed,
            )
            hits += runtime.master.assignments["j0"] == "w2"
        # Shuffled executor order: sometimes lands on the holder, mostly not.
        assert hits < 8

    def test_locality_degrades_when_holder_overloaded(self):
        # 9 jobs all local to w1 with wait slots 2: fair share 3 + 2 = 5 cap.
        stream = arrivals(*[(f"j{i}", "hot", 10.0, 0.0) for i in range(9)])
        runtime, result = run_with(
            make_spark_policy(use_locality=True, locality_wait_slots=2),
            stream,
            initial_caches={"w1": {"hot": 10.0}},
        )
        counts = result.per_worker_jobs
        assert counts["w1"] <= 5

    def test_dynamic_jobs_balanced(self):
        # Jobs arriving beyond the upfront plan go least-loaded.
        policy = make_spark_policy(use_locality=False)
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, 0.0) for i in range(3)])
        runtime, _ = run_with(policy, stream)
        master_policy = runtime.master.policy
        extra = Job(job_id="extra", task=TASK_ANALYZER, repo_id="rx", size_mb=10.0)
        master_policy.on_job(extra)
        assert runtime.master.assignments["extra"] in {"w1", "w2", "w3"}

    def test_validation(self):
        with pytest.raises(ValueError):
            SparkMasterPolicy(locality_wait_slots=-1)

    @staticmethod
    def _dynamic_after_early_join(soa):
        """Drive the serve-mode ordering that used to KeyError: a worker
        registers via ``on_worker_joined`` *before* any planning, then
        dynamic jobs arrive with no upfront plan at all.  ``soa`` picks
        the policy; otherwise its scalar reference runs."""
        import numpy as np
        from reference_planners import ReferenceSparkMasterPolicy

        policy = (SparkMasterPolicy if soa else ReferenceSparkMasterPolicy)(
            use_locality=False
        )
        master = SimpleNamespace(
            worker_names=["w1", "w2", "w3"],
            active_workers=["w1", "w2", "w3"],
            rng=np.random.default_rng(0),
            assignments={},
        )
        master.assign = lambda job, worker: master.assignments.__setitem__(
            job.job_id, worker
        )
        policy.bind(master)
        # Scale-up registers w4 before the policy ever saw a job: the
        # executor table must still cover the whole fleet afterwards.
        master.worker_names.append("w4")
        master.active_workers.append("w4")
        policy.on_worker_joined("w4")
        for i in range(8):
            policy.on_job(Job(job_id=f"d{i}", task=TASK_ANALYZER))
        if soa:
            table = policy._load
            return master.assignments, {n: int(table.get(n)) for n in table.names}
        return master.assignments, dict(policy._planned_counts)

    @pytest.mark.parametrize("soa", [False, True], ids=["scalar", "soa"])
    def test_dynamic_jobs_after_early_join_cover_whole_fleet(self, soa):
        # Regression: the balanced scan KeyError'd on w1..w3 (or, with a
        # defensive .get, skewed everything onto w4) because the
        # partially-seeded count table skipped the rebuild.
        assignments, counts = self._dynamic_after_early_join(soa)
        assert len(assignments) == 8
        assert counts == {"w1": 2, "w2": 2, "w3": 2, "w4": 2}

    def test_dynamic_dispatch_identical_with_fast_path(self):
        scalar, scalar_counts = self._dynamic_after_early_join(False)
        fast, fast_counts = self._dynamic_after_early_join(True)
        assert fast == scalar
        assert fast_counts == scalar_counts


class TestMatchmaking:
    def test_local_job_preferred_on_first_attempt(self):
        # Prime holdings via a first wave, then check the second wave.
        stream = arrivals(
            ("seed-a", "ra", 50.0, 0.0),
            ("seed-b", "rb", 50.0, 0.0),
            ("repeat-a", "ra", 50.0, 30.0),
        )
        runtime, result = run_with(make_matchmaking_policy(), stream, n_workers=2)
        holder = runtime.master.assignments["seed-a"]
        assert runtime.master.assignments["repeat-a"] == holder

    def test_second_attempt_forces_acceptance(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, 0.0) for i in range(4)])
        _runtime, result = run_with(make_matchmaking_policy(heartbeat_s=0.5), stream)
        assert result.jobs_completed == 4

    def test_heartbeat_validated(self):
        with pytest.raises(ValueError):
            make_matchmaking_policy(heartbeat_s=0.0).make_worker()


class TestDelay:
    def test_skip_count_eventually_forces(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, 0.0) for i in range(5)])
        _runtime, result = run_with(make_delay_policy(max_skips=2), stream)
        assert result.jobs_completed == 5

    def test_local_jobs_jump_the_queue(self):
        stream = arrivals(
            ("seed", "hot", 50.0, 0.0),
            ("other", "cold", 50.0, 20.0),
            ("repeat", "hot", 50.0, 20.0),
        )
        runtime, _result = run_with(make_delay_policy(max_skips=10), stream, n_workers=2)
        holder = runtime.master.assignments["seed"]
        assert runtime.master.assignments["repeat"] == holder

    def test_zero_skips_behaves_like_fifo(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, 0.0) for i in range(4)])
        _runtime, result = run_with(make_delay_policy(max_skips=0), stream)
        assert result.jobs_completed == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            DelayMasterPolicy(max_skips=-1)
        with pytest.raises(ValueError):
            make_delay_policy(heartbeat_s=0.0).make_worker()


class TestControls:
    def test_round_robin_cycles(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, float(i)) for i in range(6)])
        runtime, result = run_with(make_scheduler("round-robin"), stream)
        assert sorted(result.per_worker_jobs.values()) == [2, 2, 2]
        # Arrival order maps cyclically.
        assert runtime.master.assignments["j0"] != runtime.master.assignments["j1"]

    def test_random_is_seed_deterministic(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, 0.0) for i in range(10)])
        r1, _ = run_with(make_scheduler("random"), stream, seed=3)
        r2, _ = run_with(make_scheduler("random"), stream, seed=3)
        assert r1.master.assignments == r2.master.assignments

    def test_random_varies_across_seeds(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, 0.0) for i in range(10)])
        r1, _ = run_with(make_scheduler("random"), stream, seed=3)
        r2, _ = run_with(make_scheduler("random"), stream, seed=4)
        assert r1.master.assignments != r2.master.assignments
