"""Failure-injection tests: worker death with and without fault tolerance.

The paper explicitly leaves fault handling out ("there are currently no
specific policies in place to handle situations such as a worker dying
after winning a bid").  The engine reproduces that default -- the
workflow stalls -- and offers reallocation behind
``EngineConfig.fault_tolerance`` as the extension DESIGN.md describes.
"""

import pytest

from conftest import make_profile, make_spec
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.net.topology import TopologyConfig
from repro.schedulers.registry import make_scheduler
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


def stream_of(n=8, size=50.0):
    return JobStream(
        arrivals=[
            JobArrival(
                at=float(i),
                job=Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i}", size_mb=size),
            )
            for i in range(n)
        ]
    )


def build_runtime(scheduler="bidding", fault_tolerance=False, max_sim_time=500.0):
    return WorkflowRuntime(
        profile=make_profile(make_spec("w1"), make_spec("w2"), make_spec("w3")),
        stream=stream_of(),
        scheduler=make_scheduler(scheduler),
        config=EngineConfig(
            seed=0,
            noise_kind="none",
            noise_params={},
            topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
            fault_tolerance=fault_tolerance,
            max_sim_time=max_sim_time,
        ),
    )


def kill_after(runtime, worker_name, delay):
    runtime.sim.timeout(delay).add_callback(
        lambda _e: runtime.workers[worker_name].kill()
    )


class TestPaperDefault:
    def test_workflow_stalls_without_fault_tolerance(self):
        runtime = build_runtime(fault_tolerance=False)
        kill_after(runtime, "w1", 2.0)
        with pytest.raises(RuntimeError, match="did not complete"):
            runtime.run()

    def test_dead_worker_leaves_active_set(self):
        runtime = build_runtime(fault_tolerance=False)
        kill_after(runtime, "w1", 2.0)
        with pytest.raises(RuntimeError):
            runtime.run()
        assert "w1" not in runtime.master.active_workers

    def test_no_stall_if_dead_worker_had_no_jobs(self):
        # Killing a worker that holds nothing must not block completion.
        runtime = build_runtime(scheduler="round-robin", fault_tolerance=False)
        # Round-robin assigns j0->w1; kill w3 late, after its queue drained.
        kill_after(runtime, "w3", 400.0)
        # Completion may happen before or after the kill; either way the
        # workflow itself finishes (guard would raise otherwise).
        runtime.run()


class TestFaultToleranceExtension:
    @pytest.mark.parametrize("scheduler", ["bidding", "baseline", "random"])
    def test_orphans_reallocated_and_workflow_completes(self, scheduler):
        runtime = build_runtime(scheduler=scheduler, fault_tolerance=True, max_sim_time=2000.0)
        kill_after(runtime, "w1", 2.0)
        result = runtime.run()
        assert result.jobs_completed == 8

    def test_survivors_absorb_the_load(self):
        runtime = build_runtime(scheduler="bidding", fault_tolerance=True, max_sim_time=2000.0)
        kill_after(runtime, "w1", 2.0)
        result = runtime.run()
        survivors = {"w2", "w3"}
        completed_by = {
            name for name, count in result.per_worker_jobs.items() if count > 0
        }
        assert completed_by <= survivors | {"w1"}
        assert sum(result.per_worker_jobs.get(name, 0) for name in survivors) >= 7

    def test_bidding_contests_exclude_dead_worker(self):
        runtime = build_runtime(scheduler="bidding", fault_tolerance=True, max_sim_time=2000.0)
        kill_after(runtime, "w1", 2.0)
        runtime.run()
        # Jobs arriving after the death are never assigned to w1.
        late_assignments = {
            job_id: worker
            for job_id, worker in runtime.master.assignments.items()
            if int(job_id[1:]) >= 4  # arrive at t >= 4 > kill time + slack
        }
        assert "w1" not in late_assignments.values()


class TestKillInTheHandOffWindow:
    """A job handed to a waiting executor -- or picked as the previous
    one ends -- is for one same-instant turn in neither the queue nor
    ``current_job``.  A worker killed right then must report it orphaned
    and must not run it dead."""

    @staticmethod
    def started_on(runtime, worker):
        return [e.job_id for e in runtime.metrics.trace.of_kind("started") if e.worker == worker]

    def test_kill_in_the_callback_that_enqueued_on_an_idle_worker(self):
        runtime = build_runtime(scheduler="round-robin", fault_tolerance=True, max_sim_time=2000.0)
        victim = runtime.workers["w1"]  # round-robin: j0 goes to w1, idle then
        enqueue = victim.enqueue

        def enqueue_then_die(job, estimated_cost=0.0):
            enqueue(job, estimated_cost)
            victim.kill()

        victim.enqueue = enqueue_then_die
        result = runtime.run()
        orphaned = [e.job_id for e in runtime.metrics.trace.of_kind("orphaned")]
        assert orphaned == ["j0"]
        assert self.started_on(runtime, "w1") == []
        assert victim._outstanding_jobs == 0
        assert victim.machine.link.transfer_count == 0
        assert result.jobs_completed == 8
        assert result.per_worker_jobs.get("w1", 0) == 0

    def test_kill_on_the_instant_the_previous_job_ended(self):
        runtime = build_runtime(scheduler="round-robin", fault_tolerance=True, max_sim_time=2000.0)
        victim = runtime.workers["w1"]  # gets j0, j3, j6; j3 waits while j0 runs
        sim = runtime.sim
        finished = victim.policy.on_job_finished

        def die_before_the_next_turn(job, elapsed_s):
            finished(job, elapsed_s)
            # Armed before the next job's turn is, so it runs first --
            # and after the executor has picked that job.
            sim.call_at(sim.now, victim.kill)

        victim.policy.on_job_finished = die_before_the_next_turn
        result = runtime.run()
        orphaned = {e.job_id for e in runtime.metrics.trace.of_kind("orphaned")}
        assert "j3" in orphaned
        assert self.started_on(runtime, "w1") == ["j0"]
        assert victim._outstanding_jobs == 0
        assert result.jobs_completed == 8
        assert result.per_worker_jobs["w1"] == 1
