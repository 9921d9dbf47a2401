"""Tests for workflow assembly, determinism and cache persistence."""

import pytest

from conftest import make_profile, make_spec
from repro.host import EngineConfig, WorkflowRuntime, single_task_pipeline
from repro.net.topology import TopologyConfig
from repro.schedulers.registry import make_scheduler
from repro.workload.generators import job_config_by_name
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


def small_stream(n=6, size=10.0):
    return JobStream(
        arrivals=[
            JobArrival(
                at=float(i),
                job=Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i}", size_mb=size),
            )
            for i in range(n)
        ]
    )


def make_runtime(stream=None, scheduler="bidding", seed=0, iteration=0, caches=None):
    return WorkflowRuntime(
        profile=make_profile(make_spec("w1"), make_spec("w2")),
        stream=stream or small_stream(),
        scheduler=make_scheduler(scheduler),
        config=EngineConfig(seed=seed),
        initial_caches=caches,
        iteration=iteration,
    )


class TestDeterminism:
    @pytest.mark.parametrize("scheduler", ["baseline", "bidding", "spark"])
    def test_identical_runs_identical_results(self, scheduler):
        a = make_runtime(scheduler=scheduler, seed=7).run()
        b = make_runtime(scheduler=scheduler, seed=7).run()
        assert a.makespan_s == b.makespan_s
        assert a.cache_misses == b.cache_misses
        assert a.data_load_mb == b.data_load_mb

    def test_different_seeds_differ(self):
        a = make_runtime(seed=1).run()
        b = make_runtime(seed=2).run()
        assert a.makespan_s != b.makespan_s

    def test_iterations_decorrelated_but_deterministic(self):
        a0 = make_runtime(seed=1, iteration=0).run()
        a1 = make_runtime(seed=1, iteration=1).run()
        b1 = make_runtime(seed=1, iteration=1).run()
        assert a0.makespan_s != a1.makespan_s  # iteration changes draws
        assert a1.makespan_s == b1.makespan_s  # but reproducibly


class TestCachePersistence:
    def test_snapshot_roundtrip_warms_second_run(self):
        first = make_runtime(seed=3)
        r1 = first.run()
        assert r1.cache_misses == 6
        second = make_runtime(seed=3, iteration=1, caches=first.cache_snapshot())
        r2 = second.run()
        assert r2.cache_misses < 6
        assert r2.data_load_mb < r1.data_load_mb

    def test_cold_restart_repeats_misses(self):
        r1 = make_runtime(seed=3).run()
        r2 = make_runtime(seed=3, iteration=1).run()
        assert r2.cache_misses == r1.cache_misses == 6

    def test_snapshot_contains_downloaded_repos(self):
        runtime = make_runtime(seed=4)
        runtime.run()
        snapshot = runtime.cache_snapshot()
        all_repos = set()
        for contents in snapshot.values():
            all_repos.update(contents)
        assert all_repos == {f"r{i}" for i in range(6)}


class TestResultShape:
    def test_labels_propagated(self):
        _corpus, stream = job_config_by_name("80%_small").build(seed=5)
        runtime = WorkflowRuntime(
            profile=make_profile(make_spec("w1"), make_spec("w2")),
            stream=stream,
            scheduler=make_scheduler("bidding"),
            config=EngineConfig(seed=5),
            iteration=2,
        )
        result = runtime.run()
        assert result.scheduler == "bidding"
        assert result.workload == "80%_small"
        assert result.profile == "test-profile"
        assert result.seed == 5
        assert result.iteration == 2

    def test_per_worker_tables_cover_active_workers(self):
        result = make_runtime(seed=6).run()
        assert set(result.per_worker_jobs) <= {"w1", "w2"}
        assert sum(result.per_worker_jobs.values()) == 6

    def test_trace_disabled_by_flag(self):
        runtime = WorkflowRuntime(
            profile=make_profile(make_spec("w1")),
            stream=small_stream(2),
            scheduler=make_scheduler("round-robin"),
            config=EngineConfig(seed=0, trace=False),
        )
        runtime.run()
        assert len(runtime.metrics.trace) == 0

    def test_default_pipeline_is_single_task(self):
        pipeline = single_task_pipeline()
        assert list(pipeline.tasks) == [TASK_ANALYZER]
        pipeline.validate()


class TestMetricConsistency:
    """Cross-checks between independent accounting paths."""

    @pytest.mark.parametrize("scheduler", ["baseline", "bidding", "spark", "random"])
    def test_data_load_equals_link_totals(self, scheduler):
        runtime = make_runtime(scheduler=scheduler, seed=8)
        result = runtime.run()
        link_total = sum(w.machine.link.total_mb for w in runtime.workers.values())
        assert result.data_load_mb == pytest.approx(link_total)

    @pytest.mark.parametrize("scheduler", ["baseline", "bidding"])
    def test_misses_equal_cache_stats(self, scheduler):
        runtime = make_runtime(scheduler=scheduler, seed=9)
        result = runtime.run()
        cache_misses = sum(w.cache.stats.misses for w in runtime.workers.values())
        assert result.cache_misses == cache_misses

    def test_hits_plus_misses_equal_data_jobs(self):
        runtime = make_runtime(seed=10)
        result = runtime.run()
        assert result.cache_hits + result.cache_misses == 6

    def test_makespan_at_least_last_arrival(self):
        result = make_runtime(seed=11).run()
        assert result.makespan_s >= 5.0


class TestOneHost:
    """Both runtimes are intakes on one host that starts no kernel
    process of its own: the deadline guard is a timer, the service's
    injector and dispatcher are callback state machines -- and the
    kernel they run on is timers only."""

    @staticmethod
    def processes_started(runtime):
        """Run it to the end; the generator-layer factories its kernel
        has (none: a run is timers only)."""
        runtime.run()
        return [name for name in ("process", "timeout", "sleep", "event") if hasattr(runtime.sim, name)]

    @pytest.mark.parametrize("scheduler", ["baseline", "spark"])
    def test_a_workflow_run_starts_no_process(self, scheduler):
        assert self.processes_started(make_runtime(scheduler=scheduler)) == []

    def test_a_service_run_starts_no_process(self):
        from repro.serve import PoissonArrivals, ServiceConfig, ServiceRuntime

        runtime = ServiceRuntime(
            profile=make_profile(make_spec("w1"), make_spec("w2")),
            scheduler=make_scheduler("baseline"),
            arrivals=PoissonArrivals(rate=1.0),
            service_config=ServiceConfig(duration_s=30.0),
        )
        assert self.processes_started(runtime) == []
