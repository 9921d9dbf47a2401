"""FaultPlan-driven crash injection and the master's recovery protocol.

Complements ``test_failure_injection.py`` (direct ``kill()`` calls with
the ``fault_tolerance`` flag) by exercising the declarative path: a
:class:`FaultPlan` executed by the injector, restarts, per-seed
determinism, the explicit-failure paper default, and the at-most-once
completion guard under straggler re-dispatch.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import make_profile, make_spec
from repro.cluster.profiles import profile_by_name
from repro.faults import CrashRenewal, FaultPlan, RecoveryConfig, WorkerCrash
from repro.host import EngineConfig, WorkflowRuntime, WorkflowStalled
from repro.net.topology import TopologyConfig
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.workload.generators import job_config_by_name
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER

pytestmark = pytest.mark.faults


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


def build_runtime(
    scheduler="bidding",
    faults=None,
    allow_partial=False,
    specs=None,
    stream=None,
    seed=0,
    max_sim_time=5000.0,
):
    return WorkflowRuntime(
        profile=make_profile(*(specs or (make_spec("w1"), make_spec("w2"), make_spec("w3")))),
        stream=stream if stream is not None else stream_of(),
        scheduler=make_scheduler(scheduler),
        config=EngineConfig(
            seed=seed,
            noise_kind="none",
            noise_params={},
            topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
            max_sim_time=max_sim_time,
        ),
        faults=faults,
        allow_partial=allow_partial,
    )


CRASH_AND_RESTART = FaultPlan(
    crashes=(WorkerCrash(at_s=2.0, worker="w1", restart_after_s=5.0),),
    recovery=RecoveryConfig(max_redispatches=5, backoff_base_s=0.1),
)


class TestRecoveryAcrossSchedulers:
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_crash_with_recovery_completes_everything(self, scheduler):
        runtime = build_runtime(scheduler=scheduler, faults=CRASH_AND_RESTART)
        result = runtime.run()
        assert result.jobs_completed == 8
        assert result.failed_jobs == ()
        assert result.crashes == 1
        assert runtime.metrics.workers_restarted == 1

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_orphans_are_reported(self, scheduler):
        # No restart: the two survivors must absorb whatever w1 held.
        plan = FaultPlan(
            crashes=(WorkerCrash(at_s=2.0, worker="w1"),),
            recovery=RecoveryConfig(max_redispatches=5, backoff_base_s=0.1),
        )
        runtime = build_runtime(scheduler=scheduler, faults=plan)
        result = runtime.run()
        assert result.jobs_completed == 8
        # Every orphan that existed was re-dispatched, and the counters agree.
        assert result.redispatches >= runtime.metrics.jobs_orphaned - len(
            result.failed_jobs
        )
        assert runtime.metrics.jobs_failed == 0

    def test_the_custom_scheduler_example_survives_a_crash(self):
        # The extension example picks among the live workers and forgets
        # a dead one's holdings; otherwise its orphans go back to the dead
        # worker until their re-dispatch budget runs out.
        path = Path(__file__).parent.parent / "examples" / "custom_scheduler.py"
        spec = importlib.util.spec_from_file_location("custom_scheduler", path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        _corpus, stream = job_config_by_name("80%_large").build(seed=5)
        runtime = WorkflowRuntime(
            profile=profile_by_name("fast-slow"),
            stream=stream,
            scheduler=example.make_greedy_policy(),
            config=EngineConfig(seed=5),
            faults=FaultPlan(crashes=(WorkerCrash(at_s=5.0),)),
        )
        result = runtime.run()
        assert result.crashes == 1
        assert result.jobs_completed == len(stream.arrivals)
        assert result.failed_jobs == ()

    def test_bidding_orphans_actually_redispatch(self):
        # Under bidding, w1 holds work at t=2 (same setup as the direct
        # kill() tests), so the crash must produce real re-dispatches.
        runtime = build_runtime(scheduler="bidding", faults=CRASH_AND_RESTART)
        result = runtime.run()
        assert runtime.metrics.jobs_orphaned >= 1
        assert result.redispatches >= 1


class TestPaperDefault:
    def test_crash_without_recovery_raises(self):
        plan = FaultPlan(crashes=(WorkerCrash(at_s=2.0, worker="w1"),), recovery=None)
        runtime = build_runtime(scheduler="bidding", faults=plan)
        with pytest.raises(WorkflowStalled, match="did not complete"):
            runtime.run()
        assert runtime.master.failed_jobs

    def test_allow_partial_reports_instead(self):
        plan = FaultPlan(crashes=(WorkerCrash(at_s=2.0, worker="w1"),), recovery=None)
        runtime = build_runtime(scheduler="bidding", faults=plan, allow_partial=True)
        result = runtime.run()
        assert result.failed_jobs
        assert result.jobs_completed + len(result.failed_jobs) == 8
        assert result.redispatches == 0


class TestDeterminism:
    RENEWAL_PLAN = FaultPlan(
        renewals=(CrashRenewal(mtbf_s=15.0, mttr_s=10.0),),
        recovery=RecoveryConfig(max_redispatches=8, backoff_base_s=0.1),
    )

    def run_once(self, seed):
        runtime = build_runtime(scheduler="bidding", faults=self.RENEWAL_PLAN, seed=seed)
        result = runtime.run()
        return runtime, result

    def test_same_seed_same_injection_schedule_and_metrics(self):
        first_rt, first = self.run_once(seed=7)
        second_rt, second = self.run_once(seed=7)
        assert first_rt.injector.events == second_rt.injector.events
        assert first.makespan_s == second.makespan_s
        assert first.crashes == second.crashes
        assert first.redispatches == second.redispatches
        assert first.failed_jobs == second.failed_jobs

    def test_different_seed_different_schedule(self):
        first_rt, _ = self.run_once(seed=7)
        second_rt, _ = self.run_once(seed=8)
        assert first_rt.injector.events != second_rt.injector.events


class TestAtMostOnceGuard:
    def test_straggler_redispatch_suppresses_duplicate_completion(self):
        # w1 is so slow the straggler monitor re-dispatches its job to
        # w2; when w1 eventually finishes too, the late completion must
        # be absorbed, not double-counted.  A finished run is released
        # and cannot be resumed, so a small job arriving long after keeps
        # the run going until the original assignment has run to its end.
        plan = FaultPlan(
            recovery=RecoveryConfig(
                max_redispatches=3, backoff_base_s=0.0, redispatch_timeout_s=30.0
            ),
        )
        late = Job(job_id="late", task=TASK_ANALYZER, repo_id="r-late", size_mb=1.0)
        runtime = build_runtime(
            scheduler="round-robin",
            faults=plan,
            specs=(make_spec("w1", network=0.05), make_spec("w2")),
            stream=JobStream(arrivals=[*stream_of(n=1), JobArrival(at=5000.0, job=late)]),
            max_sim_time=50_000.0,
        )
        result = runtime.run()
        assert result.jobs_completed == 2
        assert result.redispatches >= 1
        assert runtime.metrics.duplicates_suppressed == 1
        assert runtime.metrics.jobs_completed == 2



class TestOfferInFlightToADyingWorker:
    """The offeree dies with the ``JobOffer`` still on the wire.  The
    pull policy reclaims the unacked offer when the failure is reported
    *and* the dead node bounces the offer as an orphan report; only one
    of the two may put the job back, or it is downloaded and run twice."""

    @staticmethod
    def build(scheduler, trace, faults=None):
        return WorkflowRuntime(
            profile=make_profile(*(make_spec(f"w{i}") for i in range(1, 6))),
            stream=stream_of(n=6),
            scheduler=make_scheduler(scheduler),
            config=EngineConfig(
                seed=3,
                noise_kind="none",
                noise_params={},
                topology=TopologyConfig(min_latency=0.010, max_latency=0.050),
                trace=trace,
            ),
            faults=faults,
        )

    def crash_under_the_first_offer(self, scheduler, **crash):
        """The first offer of a clean run, and a crash of its offeree
        half a millisecond after it went out (legs take 10 ms and up)."""
        clean = self.build(scheduler, trace=True)
        clean.run()
        offer = clean.metrics.trace.of_kind("offered")[0]
        return offer, WorkerCrash(at_s=offer.time + 0.0005, worker=offer.worker, **crash)

    @pytest.mark.parametrize("trace", [True, False], ids=["over-the-broker", "unobserved"])
    @pytest.mark.parametrize("scheduler", ["baseline", "matchmaking", "delay"])
    def test_the_job_is_recovered_once(self, scheduler, trace):
        _offer, crash = self.crash_under_the_first_offer(scheduler, restart_after_s=5.0)
        plan = FaultPlan(crashes=(crash,), recovery=RecoveryConfig())
        result = self.build(scheduler, trace, plan).run()
        assert result.crashes == 1
        assert result.jobs_completed == 6 and result.failed_jobs == ()
        # The victim held nothing: the offer never became its job.
        assert result.redispatches == 0
        assert result.duplicates_suppressed == 0
        assert result.cache_misses == 6  # six repositories, one download each

    def test_without_recovery_the_bounce_still_fails_the_job(self):
        offer, crash = self.crash_under_the_first_offer("baseline")
        plan = FaultPlan(crashes=(crash,), recovery=None)
        for trace in (True, False):
            runtime = self.build("baseline", trace, plan)
            with pytest.raises(WorkflowStalled):
                runtime.run()
            assert list(runtime.master.failed_jobs) == [offer.job_id]
