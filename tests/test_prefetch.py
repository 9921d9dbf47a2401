"""Tests for the download-prefetch extension."""

import pytest

from conftest import make_profile, make_spec, make_worker
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.net.topology import TopologyConfig
from repro.schedulers.registry import make_scheduler
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


def analysis_job(job_id, repo, size=100.0):
    return Job(job_id=job_id, task=TASK_ANALYZER, repo_id=repo, size_mb=size)


def quiet_config(prefetch=True, seed=0):
    return EngineConfig(
        seed=seed,
        noise_kind="none",
        noise_params={},
        topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
        prefetch=prefetch,
    )


class TestPrefetcherUnit:
    def test_overlaps_download_with_processing(self, sim):
        """Two queued jobs: job2's download runs during job1's scan, so
        total time < serial download+process of both."""
        worker = make_worker(sim, make_spec(network=10.0, rw=10.0))
        worker.prefetch = True
        worker.start()
        # Each job: download 10 s, process 10 s.  Serial: 40 s total.
        worker.enqueue(analysis_job("j1", "r1"))
        worker.enqueue(analysis_job("j2", "r2"))
        sim.run()
        # Prefetch overlaps j2's download with j1's processing: 30 s.
        assert sim.now == pytest.approx(30.0)

    def test_no_prefetch_is_serial(self, sim):
        worker = make_worker(sim, make_spec(network=10.0, rw=10.0))
        worker.start()
        worker.enqueue(analysis_job("j1", "r1"))
        worker.enqueue(analysis_job("j2", "r2"))
        sim.run()
        assert sim.now == pytest.approx(40.0)

    def test_accounting_identity_preserved(self, sim):
        worker = make_worker(sim, make_spec(network=10.0, rw=10.0))
        worker.prefetch = True
        worker.start()
        for index in range(4):
            worker.enqueue(analysis_job(f"j{index}", f"r{index}", size=50.0))
        sim.run()
        metrics = worker.metrics
        assert metrics.total_cache_misses == 4
        assert metrics.total_cache_hits == 0
        assert metrics.total_mb_downloaded == pytest.approx(200.0)

    def test_shared_repo_downloaded_once(self, sim):
        worker = make_worker(sim, make_spec(network=10.0, rw=10.0))
        worker.prefetch = True
        worker.start()
        for index in range(3):
            worker.enqueue(analysis_job(f"j{index}", "hot", size=50.0))
        sim.run()
        metrics = worker.metrics
        assert metrics.total_cache_misses == 1
        assert metrics.total_cache_hits == 2
        assert metrics.total_mb_downloaded == pytest.approx(50.0)
        assert worker.machine.link.transfer_count == 1

    def test_kill_stops_prefetcher(self, sim):
        worker = make_worker(sim, make_spec(network=10.0, rw=10.0))
        worker.prefetch = True
        worker.start()
        worker.enqueue(analysis_job("j1", "r1"))
        worker.enqueue(analysis_job("j2", "r2"))
        sim.timeout(1.0).add_callback(lambda _e: worker.kill())
        sim.run()
        assert not worker.alive
        assert not worker._prefetch_turn.active
        # Both transfers (j1's own, and r2's prefetch waiting behind it)
        # ran on with nobody waiting for them; nothing reached the cache.
        assert worker.machine.link.transfer_count == 2
        assert not worker.cache.contents()


class TestPrefetchEndToEnd:
    def small_stream(self):
        return JobStream(
            arrivals=[
                JobArrival(at=0.0, job=analysis_job(f"j{i}", f"r{i}", size=100.0))
                for i in range(10)
            ]
        )

    def test_bidding_faster_with_prefetch(self):
        profile = make_profile(make_spec("w1"), make_spec("w2"))
        times = {}
        for prefetch in (False, True):
            runtime = WorkflowRuntime(
                profile=profile,
                stream=self.small_stream(),
                scheduler=make_scheduler("bidding", bid_compute_s=0.0),
                config=quiet_config(prefetch=prefetch),
            )
            times[prefetch] = runtime.run().makespan_s
        assert times[True] < times[False]

    def test_metrics_identical_misses(self):
        """Prefetching changes *when* downloads happen, not *whether*."""
        profile = make_profile(make_spec("w1"), make_spec("w2"))
        misses = {}
        for prefetch in (False, True):
            runtime = WorkflowRuntime(
                profile=profile,
                stream=self.small_stream(),
                scheduler=make_scheduler("bidding", bid_compute_s=0.0),
                config=quiet_config(prefetch=prefetch),
            )
            result = runtime.run()
            misses[prefetch] = result.cache_misses
            assert result.cache_hits + result.cache_misses == 10
        assert misses[True] == misses[False] == 10

    def test_baseline_unaffected(self):
        """Pull-based workers hold one job at a time: nothing to prefetch."""
        profile = make_profile(make_spec("w1"), make_spec("w2"))
        times = {}
        for prefetch in (False, True):
            runtime = WorkflowRuntime(
                profile=profile,
                stream=self.small_stream(),
                scheduler=make_scheduler("baseline"),
                config=quiet_config(prefetch=prefetch),
            )
            times[prefetch] = runtime.run().makespan_s
        assert times[True] == pytest.approx(times[False])
