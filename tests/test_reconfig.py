"""The live-reconfiguration subsystem (``repro.reconfig``): plans,
the controller's migrate/rebind handshake, scheduler hot-swap, and the
autoscaler's rebalance trigger.

The migration battery proper -- random interleavings against a
reference model -- lives in ``test_reconfig_property.py``; this file
pins the concrete mechanics: plan validation and JSON round-trips,
checkpoint/rebind/prewarm trace sequences, swap bookkeeping transfer,
the <2 %% no-reconfig overhead contract (behavioural half: a trivial
plan changes nothing), and rebalance-on-scale-up.
"""

import pytest

from conftest import make_profile, make_spec
from repro.host import EngineConfig, WorkflowRuntime
from repro.net.topology import TopologyConfig
from repro.reconfig import JobMigration, ReconfigPlan, SchedulerSwap
from repro.reconfig.controller import ReconfigController
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


def stream_of(n=10, size=50.0):
    return JobStream(
        arrivals=[
            JobArrival(
                at=float(i),
                job=Job(
                    job_id=f"j{i}",
                    task=TASK_ANALYZER,
                    repo_id=f"r{i % 3}",
                    size_mb=size,
                ),
            )
            for i in range(n)
        ]
    )


def run_with_plan(scheduler, plan, seed=3, check=True, n_jobs=10, controller=None):
    runtime = WorkflowRuntime(
        profile=make_profile(make_spec("w1"), make_spec("w2"), make_spec("w3")),
        stream=stream_of(n_jobs),
        scheduler=make_scheduler(scheduler),
        config=EngineConfig(
            seed=seed,
            noise_kind="none",
            noise_params={},
            topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
            trace=True,
            max_sim_time=5000.0,
            check=check,
        ),
        reconfig=plan,
    )
    runtime.reconfig_controller_factory = controller
    return runtime, runtime.run()


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            JobMigration(at_s=-1.0)
        with pytest.raises(ValueError):
            JobMigration(at_s=1.0, max_jobs=0)
        with pytest.raises(ValueError):
            SchedulerSwap(at_s=1.0, scheduler="no-such-scheduler")
        with pytest.raises(ValueError):
            ReconfigPlan.from_dict({"nonsense": []})

    def test_trivial_plan(self):
        assert ReconfigPlan().is_trivial
        assert not ReconfigPlan(migrations=(JobMigration(at_s=1.0),)).is_trivial
        assert not ReconfigPlan(
            swaps=(SchedulerSwap(at_s=1.0, scheduler="baseline"),)
        ).is_trivial

    def test_dict_round_trip(self):
        plan = ReconfigPlan(
            migrations=(
                JobMigration(at_s=2.0, source="w1", max_jobs=3, include_running=True),
            ),
            swaps=(
                SchedulerSwap(
                    at_s=4.0,
                    scheduler="matchmaking",
                    scheduler_kwargs={"response_timeout_s": 10.0},
                ),
            ),
        )
        assert ReconfigPlan.from_dict(plan.to_dict()) == plan

    def test_swap_kwargs_normalised_for_hashing(self):
        # Dict-valued kwargs are frozen to sorted tuples so plans stay
        # hashable and equal regardless of insertion order.
        first = SchedulerSwap(
            at_s=1.0, scheduler="bidding", scheduler_kwargs={"a": 1, "b": 2}
        )
        second = SchedulerSwap(
            at_s=1.0, scheduler="bidding", scheduler_kwargs={"b": 2, "a": 1}
        )
        assert first == second
        assert hash(first) == hash(second)
        assert first.kwargs == {"a": 1, "b": 2}


class TestMigration:
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_migration_preserves_completion_on_every_scheduler(self, scheduler):
        plan = ReconfigPlan(
            migrations=(JobMigration(at_s=2.5, max_jobs=2, include_running=True),)
        )
        runtime, result = run_with_plan(scheduler, plan)
        assert result.jobs_completed == 10
        # The checkpoint/rebind handshake is visible in the trace and
        # the invariant monitor saw it settle cleanly (no raise).
        kinds = [event.kind for event in runtime.metrics.trace]
        if runtime.metrics.jobs_migrated:
            assert "migrate_checkpoint" in kinds
            assert "migrate_rebind" in kinds

    def test_prewarm_inserts_into_target_cache(self):
        plan = ReconfigPlan(
            migrations=(JobMigration(at_s=2.5, max_jobs=2, include_running=True),)
        )
        runtime, result = run_with_plan("round-robin", plan)
        assert result.jobs_completed == 10
        prewarms = runtime.metrics.trace.of_kind("migrate_prewarm")
        for event in prewarms:
            # The repo the job carries is resident on the target now.
            assert runtime.workers[event.worker].cache.peek(event.detail)

    def test_explicit_source_and_target(self):
        plan = ReconfigPlan(
            migrations=(
                JobMigration(
                    at_s=2.5,
                    source="w1",
                    target="w2",
                    max_jobs=2,
                    include_running=True,
                ),
            )
        )
        runtime, result = run_with_plan("round-robin", plan)
        assert result.jobs_completed == 10
        for event in runtime.metrics.trace.of_kind("migrate_rebind"):
            assert event.worker == "w2"

    def test_migration_to_dead_fleet_retries_not_crashes(self):
        # A migration aimed at a missing source simply finds nothing.
        plan = ReconfigPlan(
            migrations=(JobMigration(at_s=2.5, source="no-such-worker"),)
        )
        _, result = run_with_plan("round-robin", plan)
        assert result.jobs_completed == 10

    @pytest.mark.parametrize("ack_turn_first", [True, False], ids=["ack-turn-first", "deadline-first"])
    def test_an_ack_on_its_deadline_instant_behind_it_is_rebound(self, ack_turn_first):
        # The source acks in time, but the ack reaches the controller at
        # its deadline's instant, and the wait resumes on the deadline
        # first: either the ack's turn runs ahead of the deadline's and
        # its wake-up behind it, or the ack's turn itself runs behind.
        # The migration times out; the checkpointed jobs the ack carries
        # are off the source's books, so they are rebound as a late ack.
        deadline = 3.0
        settled = []

        class Settled:
            def on_migration_settled(self, now):
                settled.append(now)

        def held_ack_controller(host, plan):
            controller = ReconfigController(host, plan)
            route, held = host.master.migration_router, []
            if ack_turn_first:  # armed before the request arms its deadline
                host.sim.call_at(deadline, lambda: route(held.pop()))
                host.master.migration_router = held.append
            else:
                host.master.migration_router = lambda ack: host.sim.call_at(deadline, route, ack)
            host.hooks.subscribe(Settled())
            return controller

        plan = ReconfigPlan(
            migrations=(
                JobMigration(
                    at_s=2.5, source="w1", max_jobs=2, include_running=True, ack_timeout_s=0.5
                ),
            )
        )
        runtime, result = run_with_plan("round-robin", plan, controller=held_ack_controller)
        assert result.jobs_completed == 10
        trace = runtime.metrics.trace
        assert [e.detail for e in trace.of_kind("migrate_skipped")] == ["ack-timeout"]
        rebinds = trace.of_kind("migrate_rebind")
        assert rebinds and all(e.time == deadline for e in rebinds)
        assert runtime.reconfig_controller._inflight == 0
        assert settled == [deadline]


class TestSwap:
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_swap_to_baseline_finishes_every_job(self, scheduler):
        if scheduler == "baseline":
            pytest.skip("identity swap covered separately")
        plan = ReconfigPlan(swaps=(SchedulerSwap(at_s=3.0, scheduler="baseline"),))
        runtime, result = run_with_plan(scheduler, plan)
        assert result.jobs_completed == 10
        assert runtime.metrics.scheduler_swaps == 1
        assert runtime.scheduler.name == "baseline"

    def test_swap_records_export_import_pair(self):
        plan = ReconfigPlan(swaps=(SchedulerSwap(at_s=3.0, scheduler="bidding"),))
        runtime, result = run_with_plan("baseline", plan)
        assert result.jobs_completed == 10
        kinds = [kind for _, kind, _ in runtime.reconfig_controller.events]
        assert "swap_done" in kinds

    def test_swap_into_same_scheduler_is_harmless(self):
        plan = ReconfigPlan(swaps=(SchedulerSwap(at_s=3.0, scheduler="bidding"),))
        _, result = run_with_plan("bidding", plan)
        assert result.jobs_completed == 10

    def test_trivial_plan_changes_nothing(self):
        # The behavioural half of the <2 % overhead contract: with an
        # empty plan no controller starts and the run is bit-identical
        # to one with no plan at all.
        _, with_empty = run_with_plan("bidding", ReconfigPlan())
        runtime, without = run_with_plan("bidding", None)
        assert runtime.reconfig_controller is None
        assert with_empty.makespan_s == without.makespan_s
        assert with_empty.jobs_completed == without.jobs_completed

    def test_swap_is_deterministic(self):
        plan = ReconfigPlan(
            migrations=(JobMigration(at_s=2.0, max_jobs=2),),
            swaps=(SchedulerSwap(at_s=4.0, scheduler="baseline"),),
        )
        first_rt, first = run_with_plan("bidding", plan)
        second_rt, second = run_with_plan("bidding", plan)
        assert first.makespan_s == second.makespan_s
        events = lambda rt: [
            (e.time, e.kind, e.job_id, e.worker)
            for e in rt.metrics.trace
            if e.kind.startswith(("migrate_", "swap_"))
        ]
        assert events(first_rt) == events(second_rt)


class TestAutoscalerRebalance:
    def test_scale_up_triggers_migration(self):
        from repro.cluster.profiles import all_equal
        from repro.host import EngineConfig
        from repro.serve import (
            AdmissionConfig,
            AutoscalerConfig,
            PoissonArrivals,
            ServiceConfig,
            ServiceRuntime,
        )

        runtime = ServiceRuntime(
            profile=all_equal(),
            scheduler=make_scheduler("bidding"),
            arrivals=PoissonArrivals(rate=4.0),
            admission_config=AdmissionConfig(queue_cap=64, policy="delay"),
            autoscaler_config=AutoscalerConfig(
                max_workers=8, rebalance=True, rebalance_max_jobs=2
            ),
            service_config=ServiceConfig(duration_s=40.0),
            config=EngineConfig(seed=11, trace=True, check=True),
        )
        report = runtime.run()
        assert report.completed == report.admitted
        assert runtime.reconfig_controller is not None
        if report.scale_ups:
            # Every scale-up asked the controller to shed load toward
            # the (cold but idle) newcomer.
            kinds = [kind for _, kind, _ in runtime.reconfig_controller.events]
            assert any(kind.startswith("migrate_") for kind in kinds)

    def test_rebalance_off_means_no_controller(self):
        from repro.cluster.profiles import all_equal
        from repro.serve import (
            AdmissionConfig,
            AutoscalerConfig,
            PoissonArrivals,
            ServiceConfig,
            ServiceRuntime,
        )

        runtime = ServiceRuntime(
            profile=all_equal(),
            scheduler=make_scheduler("bidding"),
            arrivals=PoissonArrivals(rate=2.0),
            admission_config=AdmissionConfig(queue_cap=32),
            autoscaler_config=AutoscalerConfig(max_workers=8),
            service_config=ServiceConfig(duration_s=30.0),
            config=EngineConfig(seed=11),
        )
        report = runtime.run()
        assert report.completed == report.admitted
        assert runtime.reconfig_controller is None
