"""Fault edge cases at the seams between subsystems.

Three interactions the broad recovery suites skate over, each run under
the live invariant monitor (``check=True``) so the conservation and
ordering laws vouch for the recovery, not just the headline counts:

* a worker crash while its repository download is mid-flight through a
  fair-shared origin pipe (the pipe must drop the dead flow and
  re-settle the survivors' rates);
* a network partition that heals while a bidding re-contest for an
  orphaned job is pending (held reliable messages must drain without
  double-allocating);
* retry-budget exhaustion: orphans whose re-dispatch budget is spent
  must land in ``failed_jobs`` as permanent, terminal failures.
"""

import pytest

from conftest import make_profile, make_spec
from repro.faults import FaultPlan, NetworkPartition, RecoveryConfig, WorkerCrash
from repro.host import EngineConfig, WorkflowRuntime
from repro.net.topology import TopologyConfig
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER
from repro.schedulers.registry import make_scheduler

pytestmark = pytest.mark.faults


def stream_of(n=6, size=80.0):
    return JobStream(
        arrivals=[
            JobArrival(
                at=float(i) * 0.5,
                job=Job(
                    job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i}", size_mb=size
                ),
            )
            for i in range(n)
        ]
    )


def build_runtime(
    scheduler="bidding",
    faults=None,
    allow_partial=False,
    stream=None,
    shared_origin_mbps=None,
    seed=0,
):
    return WorkflowRuntime(
        profile=make_profile(make_spec("w1"), make_spec("w2"), make_spec("w3")),
        stream=stream if stream is not None else stream_of(),
        scheduler=make_scheduler(scheduler),
        config=EngineConfig(
            seed=seed,
            noise_kind="none",
            noise_params={},
            topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
            shared_origin_mbps=shared_origin_mbps,
            check=True,
            trace=True,
            max_sim_time=5000.0,
        ),
        faults=faults,
        allow_partial=allow_partial,
    )


class TestCrashMidTransfer:
    def test_crash_during_fair_shared_download(self):
        # 80 MB repos through 10 MB/s worker links hanging off a 15 MB/s
        # shared origin: several flows are always settling in the pipe
        # when w1 dies at t=3.  The pipe must evict the dead flow,
        # re-settle the survivors, and the orphan must complete
        # elsewhere -- with the bandwidth-conservation invariant
        # watching every completed transfer.
        plan = FaultPlan(
            crashes=(WorkerCrash(at_s=3.0, worker="w1", restart_after_s=10.0),),
            recovery=RecoveryConfig(max_redispatches=5, backoff_base_s=0.1),
        )
        runtime = build_runtime(faults=plan, shared_origin_mbps=15.0)
        result = runtime.run()
        assert result.jobs_completed == 6
        assert result.failed_jobs == ()
        assert result.crashes == 1

    def test_crash_mid_transfer_all_pull_schedulers(self):
        # The pull family routes jobs through offers, so a crash must
        # also reclaim any offer in flight to the victim.
        for scheduler in ("baseline", "matchmaking", "delay"):
            plan = FaultPlan(
                crashes=(WorkerCrash(at_s=3.0, worker="w2", restart_after_s=8.0),),
                recovery=RecoveryConfig(max_redispatches=5, backoff_base_s=0.1),
            )
            runtime = build_runtime(
                scheduler=scheduler, faults=plan, shared_origin_mbps=15.0
            )
            result = runtime.run()
            assert result.jobs_completed == 6, scheduler
            assert result.failed_jobs == (), scheduler


class TestPartitionHealsDuringRecontest:
    def test_heal_with_recontest_pending(self):
        # w1 dies at t=2 holding work; the re-contest for its orphan
        # runs while w2 sits behind a partition (its bid -- a droppable
        # control message -- cannot cross, and reliable traffic to it is
        # held).  The cut heals at t=8: held messages drain, the
        # contest state machine must still see every job allocated
        # exactly once.
        plan = FaultPlan(
            crashes=(WorkerCrash(at_s=2.0, worker="w1", restart_after_s=12.0),),
            partitions=(NetworkPartition(start_s=1.5, end_s=8.0, group=("w2",)),),
            recovery=RecoveryConfig(max_redispatches=5, backoff_base_s=0.1),
        )
        runtime = build_runtime(faults=plan)
        result = runtime.run()
        assert result.jobs_completed == 6
        assert result.failed_jobs == ()

    def test_heal_after_restart_too(self):
        # Same shape, but the partition outlives the crash *and* the
        # restart, so the healed broker also delivers traffic queued for
        # the reborn worker.
        plan = FaultPlan(
            crashes=(WorkerCrash(at_s=2.0, worker="w1", restart_after_s=3.0),),
            partitions=(NetworkPartition(start_s=1.5, end_s=9.0, group=("w3",)),),
            recovery=RecoveryConfig(max_redispatches=5, backoff_base_s=0.1),
        )
        runtime = build_runtime(faults=plan)
        result = runtime.run()
        assert result.jobs_completed == 6
        assert result.failed_jobs == ()


class TestRetryBudgetExhaustion:
    def test_exhausted_budget_fails_permanently(self):
        # Zero re-dispatches allowed: whatever w1 holds when it dies is
        # immediately and permanently failed, and the run (allow_partial)
        # reports it rather than stalling.
        plan = FaultPlan(
            crashes=(WorkerCrash(at_s=3.0, worker="w1"),),
            recovery=RecoveryConfig(max_redispatches=0, backoff_base_s=0.1),
        )
        runtime = build_runtime(faults=plan, allow_partial=True)
        result = runtime.run()
        assert result.failed_jobs, "the orphans should have exhausted the budget"
        assert result.jobs_completed + len(result.failed_jobs) == 6
        for job_id in result.failed_jobs:
            reason = runtime.master.failed_jobs[job_id]
            assert "retry budget exhausted" in reason

    def test_failed_jobs_are_terminal_for_the_monitor(self):
        # The monitor's lifecycle law treats failure as a terminal
        # state; final_check() ran inside runtime.run() above, so a
        # second run here only needs to confirm determinism of the
        # failure set.
        plan = FaultPlan(
            crashes=(WorkerCrash(at_s=3.0, worker="w1"),),
            recovery=RecoveryConfig(max_redispatches=0, backoff_base_s=0.1),
        )
        first = build_runtime(faults=plan, allow_partial=True).run()
        second = build_runtime(faults=plan, allow_partial=True).run()
        assert first.failed_jobs == second.failed_jobs
