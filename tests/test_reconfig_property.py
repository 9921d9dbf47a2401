"""Stateful property tests for live reconfiguration under churn.

A :class:`RuleBasedStateMachine` assembles a random interleaving of
churn events -- job migrations, scheduler hot-swaps, worker crashes,
elastic joins and retirements -- then executes the whole timeline on a
live :class:`ServiceRuntime` with invariant monitors on and checks the
outcome against a reference model:

* **conservation** -- every admitted job is accounted for exactly:
  ``admitted == completed + failed``, and nothing is left on the
  master's books;
* **at-most-once** -- no job completes twice, whatever was migrated,
  swapped or crashed under it.

The machine draws the initial scheduler too, so interleavings are
explored across policies; :func:`test_full_churn_all_schedulers` then
pins one maximal interleaving (every event kind at once) and runs it
on *every* registered scheduler, guaranteeing all eight see the
battery every time the suite runs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from reference_sim import Process, Timeout
from repro.cluster.profiles import all_equal
from repro.faults import FaultPlan, RecoveryConfig, WorkerCrash
from repro.host import EngineConfig
from repro.reconfig import JobMigration, ReconfigPlan, SchedulerSwap
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.serve import (
    AdmissionConfig,
    PoissonArrivals,
    ServiceConfig,
    ServiceRuntime,
)

DURATION_S = 40.0
#: Churn stops well before the intake closes so drains can finish.
LAST_EVENT_S = 30.0


def run_churn(
    scheduler: str,
    migrations=(),
    swaps=(),
    crashes=(),
    joins=(),
    retires=(),
    seed: int = 11,
):
    """Execute one churn timeline on a live service; return the runtime
    and its report.  ``joins``/``retires`` are event times; crashes are
    ``(at_s, restart_after_s)`` pairs; migrations/swaps are plan entries.
    """
    plan = ReconfigPlan(migrations=tuple(migrations), swaps=tuple(swaps))
    faults = None
    if crashes:
        faults = FaultPlan(
            crashes=tuple(
                WorkerCrash(at_s=at, restart_after_s=restart) for at, restart in crashes
            ),
            recovery=RecoveryConfig(redispatch_timeout_s=60.0),
        )
    runtime = ServiceRuntime(
        profile=all_equal(),
        scheduler=make_scheduler(scheduler),
        arrivals=PoissonArrivals(rate=1.5),
        admission_config=AdmissionConfig(queue_cap=32),
        service_config=ServiceConfig(duration_s=DURATION_S),
        config=EngineConfig(seed=seed, check=True, trace=True),
        faults=faults,
        reconfig=None if plan.is_trivial else plan,
    )
    fleet_events = sorted(
        [(at, "join") for at in joins] + [(at, "retire") for at in retires]
    )
    if fleet_events:

        def churn():
            now = 0.0
            for at, kind in fleet_events:
                if at > now:
                    yield Timeout(runtime.sim, at - now)
                    now = at
                if kind == "join":
                    runtime.scale_up()
                elif len(runtime.master.active_workers) > 1:
                    runtime.scale_down()

        Process(runtime.sim, churn(), name="fleet-churn")
    return runtime, runtime.run()


def assert_reference_model(runtime, report) -> None:
    """The laws any churn timeline must leave intact."""
    # Conservation: the service accounted for every admitted job.
    assert report.admitted == report.completed + report.failed
    assert runtime.master.outstanding == 0
    # At-most-once: no job finished twice, whatever moved underneath it.
    completions: dict[str, int] = {}
    submitted = set()
    for event in runtime.metrics.trace:
        if event.kind == "submitted":
            submitted.add(event.job_id)
        elif event.kind == "completed":
            completions[event.job_id] = completions.get(event.job_id, 0) + 1
    duplicated = {job_id for job_id, count in completions.items() if count > 1}
    assert not duplicated, f"jobs completed more than once: {sorted(duplicated)}"
    assert set(completions) <= submitted
    # The monitors really rode along (migration/swap laws included).
    assert runtime.monitor is not None
    assert runtime.monitor.checks > 0


class ReconfigChurnModel(RuleBasedStateMachine):
    """Random migrate/swap/crash/join/retire interleavings vs the model.

    Rules append timed events to a growing timeline (time only moves
    forward, so every generated interleaving is physically realisable);
    teardown executes the timeline once and checks the reference model.
    Shrinking therefore minimises the *event sequence* that breaks a
    law, which is exactly the reproducer a human wants.
    """

    def __init__(self):
        super().__init__()
        self.scheduler = "bidding"
        self.clock = 2.0
        self.migrations: list[JobMigration] = []
        self.swaps: list[SchedulerSwap] = []
        self.crashes: list[tuple[float, float]] = []
        self.joins: list[float] = []
        self.retires: list[float] = []

    gaps = st.floats(min_value=0.5, max_value=4.0, allow_nan=False)

    def _advance(self, gap: float) -> float:
        self.clock = min(self.clock + gap, LAST_EVENT_S)
        return self.clock

    @initialize(scheduler=st.sampled_from(sorted(SCHEDULERS)))
    def pick_scheduler(self, scheduler):
        self.scheduler = scheduler

    @rule(
        gap=gaps,
        max_jobs=st.integers(min_value=1, max_value=3),
        include_running=st.booleans(),
    )
    def migrate(self, gap, max_jobs, include_running):
        self.migrations.append(
            JobMigration(
                at_s=self._advance(gap),
                max_jobs=max_jobs,
                include_running=include_running,
            )
        )

    @rule(gap=gaps, to=st.sampled_from(sorted(SCHEDULERS)))
    def swap(self, gap, to):
        self.swaps.append(SchedulerSwap(at_s=self._advance(gap), scheduler=to))

    @rule(gap=gaps, restart=st.floats(min_value=4.0, max_value=10.0))
    def crash(self, gap, restart):
        self.crashes.append((self._advance(gap), restart))

    @rule(gap=gaps)
    def join(self, gap):
        self.joins.append(self._advance(gap))

    @rule(gap=gaps)
    def retire(self, gap):
        self.retires.append(self._advance(gap))

    def teardown(self):
        runtime, report = run_churn(
            self.scheduler,
            migrations=self.migrations,
            swaps=self.swaps,
            crashes=self.crashes,
            joins=self.joins,
            retires=self.retires,
        )
        assert_reference_model(runtime, report)


ReconfigChurnModel.TestCase.settings = settings(
    max_examples=12, stateful_step_count=6, deadline=None
)
TestReconfigChurnModel = ReconfigChurnModel.TestCase


class TestFullChurnAllSchedulers:
    """One maximal interleaving -- every churn kind in one run -- pinned
    across every registered scheduler, so all eight hit the battery on
    every suite run (the state machine above only samples them)."""

    import pytest

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_full_churn(self, scheduler):
        runtime, report = run_churn(
            scheduler,
            migrations=(
                JobMigration(at_s=6.0, max_jobs=2, include_running=True),
                JobMigration(at_s=18.0, max_jobs=1, include_running=False),
            ),
            swaps=(SchedulerSwap(at_s=12.0, scheduler="baseline"),),
            crashes=((9.0, 6.0),),
            joins=(8.0,),
            retires=(22.0,),
        )
        assert_reference_model(runtime, report)
        assert report.completed > 0


@settings(max_examples=10, deadline=None)
@given(
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_churn_is_seed_deterministic(scheduler, seed):
    """The same seed and timeline always produce the same report --
    migrations and hot-swaps must not introduce hidden nondeterminism."""
    timeline = dict(
        migrations=(JobMigration(at_s=5.0, max_jobs=2, include_running=True),),
        swaps=(SchedulerSwap(at_s=10.0, scheduler="round-robin"),),
    )
    _, first = run_churn(scheduler, seed=seed, **timeline)
    _, second = run_churn(scheduler, seed=seed, **timeline)
    assert first.to_dict() == second.to_dict()
