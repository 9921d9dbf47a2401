"""The open-loop service runtime.

:class:`ServiceRuntime` is the second intake on the engine's
:class:`~repro.engine.runtime.Deployment`, the host
:class:`~repro.engine.runtime.WorkflowRuntime` also runs on: instead of
executing a fixed job list to completion, it faces an *arrival process*
for a configured duration, guards the scheduler behind an
:class:`~repro.serve.admission.AdmissionController`, and (optionally)
resizes the worker fleet through an
:class:`~repro.serve.autoscaler.Autoscaler`.

Two callback state machines feed the unchanged master/worker engine --
every scheduler in the registry works behind the service front door:

* the **injector** walks the arrival process, mints jobs from the
  :class:`~repro.workload.source.SyntheticJobSource` and offers them to
  admission -- under the ``delay`` policy it holds the arrival, and
  every later one, until the retry hint elapses or queue space frees,
  which is exactly what backpressure on a submitting client looks like;
* the **dispatcher** drains the admission queue into the master,
  holding in-scheduler occupancy at ``max_inflight_per_worker`` jobs
  per active worker so the admission queue (not the scheduler's
  internals) absorbs overload.

Conservation invariant: every job the controller admits is submitted to
the master exactly once and completes exactly once, including jobs held
by workers that scale-down begins draining mid-flight (a draining node
finishes what it holds; it is only excluded from *new* allocation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.profiles import WorkerProfile
from repro.engine.runtime import Deployment, EngineConfig
from repro.faults.plan import FaultPlan
from repro.schedulers.base import SchedulerPolicy
from repro.serve.admission import ADMIT, DELAY, AdmissionConfig, AdmissionController
from repro.serve.arrivals import ArrivalProcess
from repro.serve.autoscaler import Autoscaler, AutoscalerConfig
from repro.serve.slo import ServiceReport, SLOTracker
from repro.workload.job import Job
from repro.workload.source import SyntheticJobSource


@dataclass(frozen=True)
class ServiceConfig:
    """Run-level service knobs.

    Parameters
    ----------
    duration_s:
        Length of the arrival window (simulated seconds).  Jobs
        admitted before the window closes still run to completion.
    deadline_s:
        Per-job latency SLO; completions slower than this count as
        deadline misses (``None`` disables the check).
    max_inflight_per_worker:
        Dispatcher occupancy cap: at most this many jobs per active
        worker are inside the scheduler at once, keeping overload in
        the (bounded, observable) admission queue.
    """

    duration_s: float = 600.0
    deadline_s: Optional[float] = None
    max_inflight_per_worker: int = 3

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.max_inflight_per_worker < 1:
            raise ValueError("max_inflight_per_worker must be at least 1")


class ServiceRuntime(Deployment):
    """One fully wired open-loop service run."""

    def __init__(
        self,
        profile: WorkerProfile,
        scheduler: SchedulerPolicy,
        arrivals: ArrivalProcess,
        source: Optional[SyntheticJobSource] = None,
        admission_config: Optional[AdmissionConfig] = None,
        autoscaler_config: Optional[AutoscalerConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        config: Optional[EngineConfig] = None,
        faults: Optional[FaultPlan] = None,
        reconfig: Optional[object] = None,
    ) -> None:
        self.arrivals = arrivals
        self.source = source if source is not None else SyntheticJobSource()
        self.service_config = service_config or ServiceConfig()
        # The "service" salt keeps service streams decorrelated from a
        # workflow run sharing the same master seed; ``stream=None`` is
        # external intake: the dispatcher submits.
        super().__init__(profile, scheduler, config, ("service",), faults=faults, reconfig=reconfig)
        self.admission = AdmissionController(self.sim, admission_config or AdmissionConfig())
        self.slo = SLOTracker(deadline_s=self.service_config.deadline_s)
        # Completion tracking: behind the host's watchers on the
        # ``completed`` and ``failed`` seams.
        self.hooks.subscribe(self)
        self.autoscaler = (
            Autoscaler(self, autoscaler_config) if autoscaler_config is not None else None
        )

        #: Jobs submitted to the master and not yet completed.
        self.inflight = 0
        #: True once the arrival window has closed (no further offers).
        self.arrivals_closed = False
        #: True once every admitted job has completed (intake finished).
        self.closed = False
        self.workers_peak = len(profile.specs)
        self._elastic_count = 0
        self._arrival_times = iter(arrivals.times(self._streams.get("arrivals")))
        self._source_rng = self._streams.get("source")
        #: The dispatcher's armed flag: set while a kick would find it
        #: already due to run (a turn armed, or its first not yet taken)
        #: and once it has closed the intake.
        self._kicked = True

    # -- execution ---------------------------------------------------------

    def run(self) -> ServiceReport:
        """Run the service for its arrival window plus drain, and report.

        Raises ``RuntimeError`` if the run does not quiesce within
        ``config.max_sim_time`` simulated seconds.
        """
        self._start(rebalance=self.autoscaler is not None and self.autoscaler.config.rebalance)
        # The injector's and the dispatcher's first turns, URGENT: where
        # a freshly started process takes its first step.
        self.sim.call_soon(self._inject)
        self.sim.call_soon(self._dispatch)
        if self.autoscaler is not None:
            self.autoscaler.start()
        self._run()
        return self.report()

    def _runtime_probes(self, probes) -> None:
        """The service gauges.  Registered while the host is being
        wired, before the admission controller and the SLO tracker
        exist; the gauges read them from the first sample on."""
        # One vectorised count over the alive/outstanding planes.
        probes.register("fleet.busy", self.fleet.busy_count, unit="workers")
        probes.register("service.inflight", lambda: self.inflight, unit="jobs")
        probes.register("admission.depth", lambda: self.admission.depth, unit="jobs")
        probes.register("admission.shed", lambda: self.admission.shed, unit="jobs")
        probes.register(
            "slo.attainment",
            lambda: 1.0 - self.slo.deadline_misses / max(1, self.slo.completed),
        )

    def _stall_message(self) -> str:
        return (
            f"service did not quiesce within {self.config.max_sim_time} simulated "
            f"seconds ({self.master.outstanding} jobs outstanding, "
            f"{self.admission.depth} pending at admission)"
        )

    # -- the injector ------------------------------------------------------

    def _inject(self, job: Optional[Job] = None, tenant: str = "", due: bool = False) -> None:
        """One injector turn: mint the arrival that is ``due`` -- or take
        ``job``, an arrival backpressure held -- and offer it, then walk
        the arrival process on, offering each arrival as it falls due,
        until the next one lies ahead (sleep until it) or the window
        has closed.

        Under the ``delay`` admission policy an offer can be held: the
        turn ends and resumes the same offer after the token bucket's
        hint or once queue space frees.  Later arrivals wait behind it,
        exactly as they would behind a blocking client API.
        """
        sim = self.sim
        while True:
            if due:
                job, tenant = self.source.next_job(self._source_rng)
                self.slo.job_arrived(sim.now, job)
            if job is not None:
                decision = self.admission.offer(job, tenant)
                if decision.action == DELAY:
                    if decision.retry_after_s > 0:
                        sim.call_later(decision.retry_after_s, self._inject, job, tenant)
                    else:
                        self.admission.wait_for_space(self._inject, job, tenant)
                    return
                if decision.action == ADMIT:
                    self._kick_dispatcher()
                else:
                    self.slo.job_shed(job)
                    for hook in self.hooks.shed:
                        hook(job.job_id, decision.reason, sim.now)
            at = next(self._arrival_times, None)
            if at is None or at > self.service_config.duration_s:
                break
            delay = at - sim.now
            if delay > 0:
                sim.call_later(delay, self._inject, None, "", True)
                return
            due = True
        self.arrivals_closed = True
        self._kick_dispatcher()

    # -- the dispatcher ----------------------------------------------------

    def _capacity(self) -> int:
        per_worker = self.service_config.max_inflight_per_worker
        return per_worker * max(1, len(self.master.active_workers))

    def _dispatch(self) -> None:
        """One dispatcher turn: forward admitted jobs into the master,
        occupancy-capped, and close the intake once the window has
        closed and every admitted job is done."""
        while self.inflight < self._capacity():
            entry = self.admission.next_job()
            if entry is None:
                break
            job, _tenant = entry
            self.inflight += 1
            self.master.submit(job)
        if self.arrivals_closed and self.admission.depth == 0 and self.inflight == 0:
            self.closed = True
            for hook in self.hooks.service_close:
                hook(self.admission.admitted, self.slo.completed, self.slo.failed, self.sim.now)
            self.master.finish_intake()
            return
        self._kicked = False

    def _kick_dispatcher(self) -> None:
        """Arm the dispatcher's next turn, behind what is due now."""
        if not self._kicked:
            self._kicked = True
            self.sim.call_soon(self._dispatch, urgent=False)

    def on_completed(self, job, worker, now) -> None:
        self.inflight -= 1
        self.slo.job_completed(now, job)
        self._kick_dispatcher()

    def on_failed(self, job, reason, now) -> None:
        # A permanently failed job must release its dispatcher slot, or
        # the intake never closes (conservation: completed + failed ==
        # admitted).
        self.inflight -= 1
        self.slo.job_failed(now, job)
        self._kick_dispatcher()

    # -- elasticity --------------------------------------------------------

    def scale_up(self) -> str:
        """Add one cold worker to the fleet and return its name.

        The new node gets the profile's first spec (renamed), a fresh
        topology placement drawn from the run's configured latency
        range, and an *empty* cache -- elasticity pays the locality
        cost of warming up.
        """
        self._elastic_count += 1
        name = f"e{self._elastic_count}"
        spec = self.profile.specs[0].renamed(name)
        latency = self._streams.get("elastic-topology").uniform(
            self.config.topology.min_latency, self.config.topology.max_latency
        )
        self.topology.add_node(name, float(latency))
        # Register with the master *before* the node starts, so its
        # Hello finds the name known and policies see it as active.
        self.master.add_worker(name)
        node = self.workers[name] = self._build_node(spec)
        node.start()
        self._seed_views([node])
        self.workers_peak = max(self.workers_peak, len(self.master.active_workers))
        self._kick_dispatcher()  # capacity just grew
        return name

    def scale_down(self) -> str:
        """Begin draining the most recently joined active worker.

        The master retires the name first (no new work routes to it),
        *then* the node enters drain mode -- this ordering means a
        draining worker can never be invited into a bidding contest,
        so its silence cannot stall a window close.  Held jobs finish
        normally; conservation is preserved.
        """
        victim = self.master.active_workers[-1]
        self.master.retire_worker(victim)
        self.workers[victim].begin_drain()
        return victim

    # -- reporting ---------------------------------------------------------

    def report(self) -> ServiceReport:
        """Freeze the run into a :class:`ServiceReport`."""
        metrics = self.metrics
        recovery = sorted(metrics.recovery_times)

        def percentile(q: float) -> float:
            if not recovery:
                return 0.0
            index = min(len(recovery) - 1, int(q * len(recovery)))
            return recovery[index]

        return ServiceReport(
            scheduler=self.scheduler.name,
            arrival=self.arrivals.kind,
            seed=self.config.seed,
            duration_s=self.service_config.duration_s,
            arrivals=self.slo.arrivals,
            admitted=self.admission.admitted,
            completed=self.slo.completed,
            shed=self.admission.shed,
            latency_p50_s=self.slo.latency.p50.value(),
            latency_p95_s=self.slo.latency.p95.value(),
            latency_p99_s=self.slo.latency.p99.value(),
            latency_mean_s=self.slo.latency.mean,
            latency_max_s=self.slo.latency.max,
            deadline_misses=self.slo.deadline_misses,
            queue_peak=self.admission.depth_peak,
            workers_initial=len(self.profile.specs),
            workers_final=len(self.master.active_workers),
            workers_peak=self.workers_peak,
            scale_ups=self.autoscaler.scale_ups if self.autoscaler else 0,
            scale_downs=self.autoscaler.scale_downs if self.autoscaler else 0,
            cache_hits=metrics.total_cache_hits,
            cache_misses=metrics.total_cache_misses,
            data_load_mb=metrics.total_mb_downloaded,
            per_tenant_admitted=dict(self.admission.per_tenant_admitted),
            per_tenant_shed=dict(self.admission.per_tenant_shed),
            failed=self.slo.failed,
            crashes=metrics.workers_crashed,
            restarts=metrics.workers_restarted,
            redispatches=metrics.jobs_redispatched,
            duplicates_suppressed=metrics.duplicates_suppressed,
            recovery_p50_s=percentile(0.50),
            recovery_p95_s=percentile(0.95),
            recovery_max_s=recovery[-1] if recovery else 0.0,
        )
