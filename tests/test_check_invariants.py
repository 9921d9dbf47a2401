"""The invariant registry and the live monitor (``repro.check``).

Three layers of assurance:

* registry sanity -- every law is named, documented and addressable
  from :class:`CheckConfig.disable`;
* clean-run coverage -- monitors enabled across every scheduler, on
  healthy and faulted cells, must observe nothing (and must actually
  have performed checks);
* detection -- the planted bugs of :mod:`repro.fuzz.planted` and
  hand-fed unit violations must raise :class:`InvariantViolation`
  naming the broken law, with the trace slice attached.
"""

from types import SimpleNamespace

import pytest

from conftest import make_profile, make_spec
from repro.check import (
    INVARIANTS,
    CheckConfig,
    InvariantMonitor,
    InvariantViolation,
)
from repro.faults import FaultPlan, RecoveryConfig, WorkerCrash
from repro.fuzz.planted import (
    make_double_allocate_policy,
    plant_buggy_migrator,
    plant_overdelivering_origin,
)
from repro.host import EngineConfig, WorkflowRuntime
from repro.net.topology import TopologyConfig
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER

FAMILIES = {
    "conservation": (
        "exactly-once-allocation",
        "at-most-once-completion",
        "completion-conservation",
        "completion-implies-submission",
        "cache-hit-requires-fetch",
        "pipe-no-overdelivery",
        "service-conservation",
        "migration-conservation",
        "swap-completeness",
    ),
    "ordering": (
        "no-early-delivery",
        "fifo-per-pair",
        "delivery-requires-publish",
        "start-consumes-enqueue",
    ),
    "contest": (
        "contest-per-permit",
        "bid-after-announce",
        "contest-window-bounded",
        "winner-among-bidders",
        "assignment-matches-winner",
    ),
}


def stream_of(n=10, size=40.0, repos=4):
    return JobStream(
        arrivals=[
            JobArrival(
                at=float(i) * 0.4,
                job=Job(
                    job_id=f"j{i}",
                    task=TASK_ANALYZER,
                    repo_id=f"r{i % repos}",
                    size_mb=size,
                ),
            )
            for i in range(n)
        ]
    )


def build_runtime(
    scheduler=None, check=True, faults=None, shared_origin_mbps=None, reconfig=None
):
    policy = (
        scheduler
        if not isinstance(scheduler, str)
        else make_scheduler(scheduler)
    )
    return WorkflowRuntime(
        profile=make_profile(make_spec("w1"), make_spec("w2"), make_spec("w3")),
        stream=stream_of(),
        scheduler=policy or make_scheduler("bidding"),
        config=EngineConfig(
            seed=5,
            noise_kind="none",
            noise_params={},
            topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
            shared_origin_mbps=shared_origin_mbps,
            check=check,
            trace=True,
            max_sim_time=5000.0,
        ),
        faults=faults,
        reconfig=reconfig,
    )


class TestRegistry:
    def test_every_family_member_is_registered(self):
        for family, names in FAMILIES.items():
            for name in names:
                assert name in INVARIANTS, f"{family} law {name} missing"

    def test_registry_is_exactly_the_families(self):
        expected = {name for names in FAMILIES.values() for name in names}
        assert set(INVARIANTS) == expected

    def test_laws_are_documented(self):
        for name, invariant in INVARIANTS.items():
            assert invariant.name == name
            assert invariant.law.strip()
            assert invariant.description.strip()

    def test_disable_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            CheckConfig(disable=("no-such-law",))


class TestCleanRuns:
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_monitors_observe_nothing_on_healthy_runs(self, scheduler):
        runtime = build_runtime(scheduler)
        result = runtime.run()
        assert result.jobs_completed == 10
        assert runtime.monitor is not None
        assert runtime.monitor.checks > 0

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_monitors_observe_nothing_on_faulted_runs(self, scheduler):
        plan = FaultPlan(
            crashes=(WorkerCrash(at_s=2.0, worker="w1", restart_after_s=6.0),),
            recovery=RecoveryConfig(max_redispatches=5, backoff_base_s=0.1),
        )
        runtime = build_runtime(scheduler, faults=plan)
        result = runtime.run()
        assert result.jobs_completed == 10
        assert result.failed_jobs == ()

    def test_a_finished_bidding_run_holds_no_bidder_set(self):
        # A contest's bidders go when it closes, and a late bid adds
        # none (contests close on the first idle holder of the shared
        # repository, so about sixty bids land after their close).
        from repro.experiments.golden import scale_runtime

        runtime = scale_runtime(25, observed=True, warm=6, fast_local_close=True)
        assert runtime.run().jobs_completed == 300
        assert runtime.monitor._open_bidders == {}

    def test_a_held_ack_past_its_deadline_is_in_flight_not_lost(self):
        # A partition holds w0002's migration ack past its 1 s deadline:
        # the deadline settles the migration while the checkpointed job
        # rides in the held ack, which is rebound at the heal.
        from repro.experiments.golden import scale_runtime

        runtime = scale_runtime(25, True, "bidding", churn="ack-timeout")
        assert runtime.run().jobs_completed == 300
        trace = runtime.metrics.trace
        assert [e.detail for e in trace.of_kind("migrate_skipped")] == ["ack-timeout"]
        assert trace.of_kind("migrate_rebind")

    def test_monitors_off_is_the_default_and_absent(self):
        runtime = build_runtime(check=False)
        assert runtime.monitor is None
        assert runtime.run().jobs_completed == 10

    @pytest.mark.parametrize("workload", ("80%_small", "80%_large"))
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_monitored_matrix_on_real_workloads(self, scheduler, workload):
        # The acceptance matrix: every scheduler on both headline
        # workloads, plus a faulted cell, all under live monitors.
        from repro.experiments.runner import CellSpec, run_cell

        results = run_cell(
            CellSpec(
                scheduler=scheduler,
                workload=workload,
                profile="fast-slow",
                seed=7,
                iterations=1,
                engine_overrides=(("check", True),),
            )
        )
        assert results[0].jobs_completed > 0

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_monitored_faulted_cell_on_real_workload(self, scheduler):
        from repro.experiments.runner import CellSpec, run_cell

        plan = FaultPlan(
            crashes=(WorkerCrash(at_s=20.0, restart_after_s=30.0),),
            recovery=RecoveryConfig(max_redispatches=5, backoff_base_s=0.5),
        )
        results = run_cell(
            CellSpec(
                scheduler=scheduler,
                workload="80%_small",
                profile="fast-slow",
                seed=7,
                iterations=1,
                engine_overrides=(("check", True),),
                faults=plan,
            )
        )
        assert results[0].jobs_completed > 0
        assert results[0].failed_jobs == ()


class TestPlantedBugs:
    def test_double_allocating_scheduler_is_caught(self):
        runtime = build_runtime(make_double_allocate_policy())
        with pytest.raises(InvariantViolation) as caught:
            runtime.run()
        assert caught.value.invariant.name == "exactly-once-allocation"
        # The violation carries its trace slice for diagnosis.
        assert caught.value.events

    def test_overdelivering_pipe_is_caught(self):
        runtime = build_runtime("bidding", shared_origin_mbps=20.0)
        plant_overdelivering_origin(runtime)
        with pytest.raises(InvariantViolation) as caught:
            runtime.run()
        assert caught.value.invariant.name == "pipe-no-overdelivery"

    def test_planted_pipe_runs_silently_without_monitors(self):
        # check=False must really disable everything: the over-delivering
        # pipe completes the run unchallenged (only the bandwidth
        # -conservation law can see it), just impossibly fast.
        runtime = build_runtime("bidding", check=False, shared_origin_mbps=20.0)
        plant_overdelivering_origin(runtime)
        result = runtime.run()
        assert runtime.monitor is None
        assert result.jobs_completed == 10

    def test_buggy_migrator_is_caught(self):
        # The job-dropping migrator loses the first checkpointed job;
        # the conservation law must fire when the migration settles.
        from repro.reconfig import JobMigration, ReconfigPlan

        plan = ReconfigPlan(
            migrations=(JobMigration(at_s=1.0, max_jobs=2, include_running=True),)
        )
        runtime = build_runtime("bidding", reconfig=plan)
        plant_buggy_migrator(runtime)
        with pytest.raises(InvariantViolation) as caught:
            runtime.run()
        assert caught.value.invariant.name == "migration-conservation"
        assert caught.value.events

    def test_double_allocate_without_monitors_escapes_to_the_coarse_guard(self):
        # Without the monitor the double allocation survives until both
        # executions finish, where the master's last-resort duplicate
        # -completion guard finally trips -- far from the root cause,
        # which is exactly why the assignment-time law exists.
        runtime = build_runtime(make_double_allocate_policy(), check=False)
        with pytest.raises(RuntimeError, match="completed more times"):
            runtime.run()


class TestRecentEvents:
    def test_worded_on_read_exactly_as_the_hooks_used_to_write_them(self):
        # The hooks keep (time, kind, template, args); the wording below
        # was recorded from the commit that formatted inside every hook.
        # Ids with braces in them must survive ``str.format``.
        m = InvariantMonitor(CheckConfig(recent_events=64), recovery_enabled=True)
        message = object()
        job = Job(job_id="j{1}", task=TASK_ANALYZER, repo_id="r0", size_mb=1.0)
        bidding, baseline = SimpleNamespace(name="bidding"), SimpleNamespace(name="baseline")
        m.on_submitted("j{1}", 0.0)
        m.on_contest_opened("j{1}", 0.25)
        m.on_bid("j{1}", "w1", 4.0, 0.5)
        m.on_contest_closed("j{1}", "w1", 0.5, "full", 0.75)
        m.on_contest_closed("j{1}", None, 0.5, "fallback", 0.8)
        m.on_assigned(job, "w1", bidding, 1.0)
        m.on_publish("t", message, "m", 1.0)
        m.on_deliver("t", "w1", message, 1.125)
        m.on_enqueued("j{1}", "w1", 1.25)
        m.on_job_started("j{1}", "w1", 1.5)
        m.on_cache_fetch(job, "w1", 1.0, 2.0)
        m.on_cache_hit(job, "w1", 2.5)
        m.on_transfer_complete(10.0, 12.5, 1.25, 3.0)
        m.on_transfer_complete(1e9, 1e-7, 1e-16, 3.0)
        m.on_orphaned("j{1}", "w1", 3.5)
        m.on_redispatched("j{1}", 3.5)
        m.on_migration_checkpoint("j2", "w1", 4.0)
        m.on_migration_rebind("j2", None, "w2", 4.5)
        m.on_migration_settled(4.75)
        m.on_swap_export(["a", "b"], bidding, 5.0)
        m.on_swap_import(["a", "b"], baseline, 5.0)
        m.on_completed(job, None, 6.0)
        m.on_duplicate_completion("j{1}", "w2", 6.5)
        m.on_failed(job, "lost", 7.0)
        m.on_service_close(3, 2, 1, 8.0)
        m.on_fault("crash", "w1 {down}", 9.0)
        assert list(m.events) == [
            (0.0, "submitted", "j{1}"),
            (0.25, "announced", "j{1}"),
            (0.5, "bid", "j{1} by w1"),
            (0.75, "contest_closed", "j{1} -> w1 (full)"),
            (0.8, "contest_closed", "j{1} -> None (fallback)"),
            (1.0, "assigned", "j{1} -> w1"),
            (1.125, "deliver", "#1 -> w1 on t"),
            (1.25, "enqueued", "j{1} @ w1"),
            (1.5, "started", "j{1} @ w1"),
            (2.0, "fetch", "r0 @ w1"),
            (2.5, "cache_hit", "r0 @ w1"),
            (3.0, "transfer", "12.5 MB in 1.25s"),
            (3.0, "transfer", "1e-07 MB in 1e-16s"),
            (3.5, "orphaned", "j{1}"),
            (3.5, "redispatched", "j{1}"),
            (4.0, "migrate_checkpoint", "j2 off w1"),
            (4.5, "migrate_rebind", "j2 None -> w2"),
            (4.75, "migrate_settled", "0 dangling"),
            (5.0, "swap_export", "2 jobs from bidding"),
            (5.0, "swap_import", "2 jobs into baseline"),
            (6.0, "completed", "j{1} @ None"),
            (6.5, "duplicate", "j{1} @ w2"),
            (7.0, "failed", "j{1}"),
            (8.0, "service_close", "admitted=3 completed=2 failed=1"),
            (9.0, "fault:crash", "w1 {down}"),
        ]
        m.on_assigned(job, "w2", baseline, 10.0)  # the re-dispatch permit
        with pytest.raises(InvariantViolation) as caught:
            m.on_assigned(job, "w3", baseline, 10.0)
        assert caught.value.events[-2:] == (
            (10.0, "assigned", "j{1} -> w2"),
            (10.0, "assigned", "j{1} -> w3"),
        )
        assert "    t=10.000000 assigned: j{1} -> w2" in str(caught.value)


class TestUnitViolations:
    def test_delivery_requires_publish(self):
        monitor = InvariantMonitor()
        message = object()
        with pytest.raises(InvariantViolation) as caught:
            monitor.on_deliver("topic/x", "w1", message, now=1.0)
        assert caught.value.invariant.name == "delivery-requires-publish"

    def test_fifo_per_pair_rejects_reordering(self):
        monitor = InvariantMonitor()
        first, second = object(), object()
        monitor.on_publish("topic/x", first, sender="m", now=0.0)
        monitor.on_publish("topic/x", second, sender="m", now=0.1)
        monitor.on_deliver("topic/x", "w1", second, now=0.2)
        with pytest.raises(InvariantViolation) as caught:
            monitor.on_deliver("topic/x", "w1", first, now=0.3)
        assert caught.value.invariant.name == "fifo-per-pair"

    def test_no_early_delivery(self):
        monitor = InvariantMonitor()
        message = object()
        monitor.on_publish("topic/x", message, sender="m", now=5.0)
        with pytest.raises(InvariantViolation) as caught:
            monitor.on_deliver("topic/x", "w1", message, now=4.0)
        assert caught.value.invariant.name == "no-early-delivery"

    def test_pipe_overdelivery_bound(self):
        monitor = InvariantMonitor()
        # 100 MB in 1 s through a 10 MB/s pipe is physically impossible.
        with pytest.raises(InvariantViolation) as caught:
            monitor.on_transfer_complete(10.0, 100.0, 1.0, now=1.0)
        assert caught.value.invariant.name == "pipe-no-overdelivery"

    def test_migration_settle_with_dangling_job_is_loss(self):
        monitor = InvariantMonitor()
        monitor.on_migration_checkpoint("j1", "w1", now=1.0)
        monitor.on_migration_rebind("j1", "w1", "w2", now=1.5)
        monitor.on_migration_checkpoint("j2", "w1", now=2.0)  # never rebound
        with pytest.raises(InvariantViolation) as caught:
            monitor.on_migration_settled(now=3.0)
        assert caught.value.invariant.name == "migration-conservation"
        assert "j2" in str(caught.value)

    def test_migration_rebind_without_checkpoint_is_duplication(self):
        monitor = InvariantMonitor()
        with pytest.raises(InvariantViolation) as caught:
            monitor.on_migration_rebind("j1", "w1", "w2", now=1.0)
        assert caught.value.invariant.name == "migration-conservation"

    def test_migration_dangling_at_end_of_run_is_loss(self):
        monitor = InvariantMonitor()
        monitor.on_migration_checkpoint("j1", "w1", now=1.0)
        with pytest.raises(InvariantViolation) as caught:
            monitor.final_check()
        assert caught.value.invariant.name == "migration-conservation"

    def test_jobs_in_a_timed_out_ack_are_in_flight(self):
        monitor = InvariantMonitor()
        monitor.on_migration_checkpoint("j1", "w1", now=1.0)
        monitor.on_migration_ack_timeout("w1", now=2.0)
        monitor.on_migration_settled(now=2.0)  # no raise: j1 rides in the ack
        monitor.on_migration_rebind("j1", "w1", "w2", now=5.0)
        monitor.final_check()  # no raise

    def test_jobs_in_a_timed_out_ack_never_rebound_are_lost_at_the_end(self):
        monitor = InvariantMonitor()
        monitor.on_migration_checkpoint("j1", "w1", now=1.0)
        monitor.on_migration_checkpoint("j2", "w2", now=1.0)
        monitor.on_migration_ack_timeout("w1", now=2.0)
        with pytest.raises(InvariantViolation, match="'j2' off 'w2'"):
            monitor.on_migration_settled(now=2.0)  # j2's ack was not held
        monitor = InvariantMonitor()
        monitor.on_migration_checkpoint("j1", "w1", now=1.0)
        monitor.on_migration_ack_timeout("w1", now=2.0)
        monitor.on_migration_settled(now=2.0)
        with pytest.raises(InvariantViolation) as caught:
            monitor.final_check()
        assert caught.value.invariant.name == "migration-conservation"
        assert "'j1' off 'w1'" in str(caught.value)

    def test_clean_migration_satisfies_conservation(self):
        monitor = InvariantMonitor()
        monitor.on_migration_checkpoint("j1", "w1", now=1.0)
        monitor.on_migration_rebind("j1", "w1", "w2", now=1.5)
        monitor.on_migration_settled(now=2.0)  # no raise
        monitor.final_check()  # no raise

    def test_swap_import_missing_jobs_is_incomplete(self):
        monitor = InvariantMonitor()
        monitor.on_swap_export(["j1", "j2", "j3"], SimpleNamespace(name="bidding"), now=5.0)
        with pytest.raises(InvariantViolation) as caught:
            monitor.on_swap_import(["j1", "j3"], SimpleNamespace(name="baseline"), now=5.0)
        assert caught.value.invariant.name == "swap-completeness"
        assert "j2" in str(caught.value)

    def test_swap_import_covering_export_is_complete(self):
        monitor = InvariantMonitor()
        monitor.on_swap_export(["j1", "j2"], SimpleNamespace(name="bidding"), now=5.0)
        monitor.on_swap_import(["j1", "j2"], SimpleNamespace(name="baseline"), now=5.0)  # no raise

    def test_disable_silences_exactly_the_named_law(self):
        monitor = InvariantMonitor(CheckConfig(disable=("delivery-requires-publish",)))
        monitor.on_deliver("topic/x", "w1", object(), now=1.0)  # no raise
        with pytest.raises(InvariantViolation):
            monitor.on_transfer_complete(10.0, 100.0, 1.0, now=1.0)

    def test_engine_config_accepts_check_config(self):
        # EngineConfig(check=CheckConfig(...)) routes fine-grained
        # configuration into the monitor.
        runtime = WorkflowRuntime(
            profile=make_profile(make_spec("w1"), make_spec("w2")),
            stream=stream_of(4),
            scheduler=make_scheduler("bidding"),
            config=EngineConfig(
                seed=5,
                noise_kind="none",
                noise_params={},
                check=CheckConfig(recent_events=7),
            ),
        )
        assert runtime.monitor is not None
        assert runtime.monitor.events.maxlen == 7
        assert runtime.run().jobs_completed == 4
