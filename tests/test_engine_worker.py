"""Unit tests for the worker node runtime."""

import pytest

from conftest import make_spec, make_worker
from reference_sim import inbox
from repro.engine.messages import Assignment, Hello, JobCompleted, worker_topic
from repro.metrics.collector import MetricsCollector
from repro.net.topology import Topology, TopologyConfig
from repro.sim import Simulator
from repro.workload.job import Job


def analysis_job(job_id="j1", repo="r1", size=100.0, compute=0.0):
    return Job(
        job_id=job_id,
        task="RepositoryAnalyzer",
        repo_id=repo,
        size_mb=size,
        base_compute_s=compute,
    )


def zero_topology(sim, names):
    topology = Topology.build(
        sim, [], TopologyConfig(min_latency=0.0, max_latency=0.0, broker_processing=0.0)
    )
    for name in names:
        topology.add_node(name, 0.0)
    return topology


class TestExecution:
    def test_cold_job_downloads_then_processes(self, sim):
        metrics = MetricsCollector()
        worker = make_worker(sim, make_spec(network=10.0, rw=50.0), metrics=metrics)
        worker.start()
        worker.enqueue(analysis_job(size=100.0))
        sim.run()
        # 10 s download + 2 s scan.
        assert sim.now == pytest.approx(12.0)
        assert worker.cache.peek("r1")
        assert metrics.total_cache_misses == 1
        assert metrics.total_mb_downloaded == pytest.approx(100.0)

    def test_warm_job_skips_download(self, sim):
        metrics = MetricsCollector()
        worker = make_worker(sim, make_spec(network=10.0, rw=50.0), metrics=metrics)
        worker.cache.insert("r1", 100.0)
        worker.start()
        worker.enqueue(analysis_job(size=100.0))
        sim.run()
        assert sim.now == pytest.approx(2.0)
        assert metrics.total_cache_hits == 1
        assert metrics.total_mb_downloaded == 0.0

    def test_fifo_order(self, sim):
        worker = make_worker(sim)
        worker.start()
        completed = []
        original = worker.send_to_master

        def spy(message):
            if isinstance(message, JobCompleted):
                completed.append(message.job.job_id)
            original(message)

        worker.send_to_master = spy
        for index in range(3):
            worker.enqueue(analysis_job(job_id=f"j{index}", repo=f"r{index}", size=10.0))
        sim.run()
        assert completed == ["j0", "j1", "j2"]

    def test_data_free_job_costs_compute_only(self, sim):
        metrics = MetricsCollector()
        worker = make_worker(sim, make_spec(cpu_factor=2.0), metrics=metrics)
        worker.start()
        worker.enqueue(Job(job_id="s", task="RepositoryAnalyzer", base_compute_s=4.0))
        sim.run()
        assert sim.now == pytest.approx(2.0)
        assert metrics.total_cache_misses == 0

    def test_completion_message_published(self, sim):
        topology = zero_topology(sim, ["w1"])
        master_inbox = inbox(sim, topology.broker.subscribe("to-master", "master"))
        worker = make_worker(sim, topology=topology)
        worker.start()
        worker.enqueue(analysis_job(size=10.0))
        sim.run()
        messages = list(master_inbox.items)
        kinds = [type(m).__name__ for m in messages]
        assert "Hello" in kinds
        assert "JobCompleted" in kinds
        done = [m for m in messages if isinstance(m, JobCompleted)][0]
        assert done.worker == "w1"
        assert done.elapsed_s > 0


class TestCommittedWorkload:
    def test_enqueue_commits_and_completion_releases(self, sim):
        worker = make_worker(sim)
        worker.start()
        worker.enqueue(analysis_job(size=10.0), estimated_cost=42.0)
        assert worker.committed_cost() == pytest.approx(42.0)
        sim.run()
        assert worker.committed_cost() == 0.0

    def test_pending_repos_includes_queued_and_running(self, sim):
        worker = make_worker(sim)
        worker.cache.insert("cached", 5.0)
        worker.start()
        worker.enqueue(analysis_job(job_id="a", repo="run-repo", size=100.0))
        worker.enqueue(analysis_job(job_id="b", repo="queue-repo", size=10.0))
        sim.timeout(1.0).add_callback(
            lambda e: pending.update(worker.pending_repos())
        )
        pending = set()
        sim.run(until=2.0)
        assert pending == {"cached", "run-repo", "queue-repo"}


class TestIdleTracking:
    def test_starts_idle(self, sim):
        worker = make_worker(sim)
        worker.start()
        assert worker.is_idle

    def test_wait_idle_immediate_when_idle(self, sim):
        worker = make_worker(sim)
        worker.start()
        woken = []
        worker.when_idle(lambda: woken.append(sim.now))
        assert woken == []  # on a turn of its own, this instant
        sim.run()
        assert woken == [0.0]

    def test_wait_idle_fires_after_queue_drains(self, sim):
        worker = make_worker(sim, make_spec(network=10.0, rw=50.0))
        worker.start()
        worker.enqueue(analysis_job(size=100.0))
        times = []

        worker.when_idle(lambda: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(12.0)]

    def test_busy_while_executing(self, sim):
        worker = make_worker(sim)
        worker.start()
        worker.enqueue(analysis_job(size=100.0))
        observed = []
        sim.timeout(1.0).add_callback(lambda e: observed.append(worker.is_idle))
        sim.run()
        assert observed == [False]


class TestInbox:
    def test_assignment_enqueued_with_default_estimate(self, sim):
        topology = zero_topology(sim, ["w1"])
        metrics = MetricsCollector()
        worker = make_worker(
            sim, make_spec(network=10.0, rw=50.0), topology=topology, metrics=metrics
        )
        worker.start()
        topology.broker.publish(worker_topic("w1"), Assignment(job=analysis_job(size=100.0)))
        sim.run()
        assert metrics.total_cache_misses == 1
        assert sim.now == pytest.approx(12.0)

    def test_unhandled_message_raises(self, sim):
        topology = zero_topology(sim, ["w1"])
        worker = make_worker(sim, topology=topology)
        worker.start()
        topology.broker.publish(worker_topic("w1"), Hello(worker="stray"))
        with pytest.raises(RuntimeError, match="unhandled message"):
            sim.run()


class TestFailureInjection:
    def test_kill_orphans_jobs_and_reports(self, sim):
        topology = zero_topology(sim, ["w1"])
        master_inbox = inbox(sim, topology.broker.subscribe("to-master", "master"))
        worker = make_worker(sim, make_spec(network=10.0, rw=50.0), topology=topology)
        worker.start()
        worker.enqueue(analysis_job(job_id="running", size=100.0))
        worker.enqueue(analysis_job(job_id="queued", repo="r2", size=10.0))
        sim.timeout(1.0).add_callback(lambda e: worker.kill())
        sim.run()
        failures = [
            m
            for m in master_inbox.items
            if type(m).__name__ == "WorkerFailure"
        ]
        assert len(failures) == 1
        orphaned_ids = {job.job_id for job in failures[0].orphaned}
        assert orphaned_ids == {"running", "queued"}
        assert not worker.alive

    def test_kill_is_idempotent(self, sim):
        worker = make_worker(sim)
        worker.start()
        worker.kill()
        worker.kill()
        assert not worker.alive

    def test_dead_worker_rejects_enqueue(self, sim):
        worker = make_worker(sim)
        worker.start()
        worker.kill()
        with pytest.raises(RuntimeError, match="dead"):
            worker.enqueue(analysis_job())
