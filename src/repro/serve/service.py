"""The open-loop service runtime.

:class:`ServiceRuntime` is the long-running sibling of
:class:`~repro.engine.runtime.WorkflowRuntime`: instead of executing a
fixed job list to completion, it faces an *arrival process* for a
configured duration, guards the scheduler behind an
:class:`~repro.serve.admission.AdmissionController`, and (optionally)
resizes the worker fleet through an
:class:`~repro.serve.autoscaler.Autoscaler`.

Three cooperating simulation processes drive a run:

* the **injector** walks the arrival process, mints jobs from the
  :class:`~repro.workload.source.SyntheticJobSource` and offers them to
  admission -- under the ``delay`` policy it blocks here, which is
  exactly what backpressure on a submitting client looks like;
* the **dispatcher** drains the admission queue into the master,
  holding in-scheduler occupancy at ``max_inflight_per_worker`` jobs
  per active worker so the admission queue (not the scheduler's
  internals) absorbs overload;
* the master/worker engine runs unchanged -- every scheduler in the
  registry works behind the service front door.

Conservation invariant: every job the controller admits is submitted to
the master exactly once and completes exactly once, including jobs held
by workers that scale-down begins draining mid-flight (a draining node
finishes what it holds; it is only excluded from *new* allocation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.check.invariants import InvariantMonitor
from repro.cluster.profiles import WorkerProfile
from repro.engine.master import Master
from repro.engine.runtime import (
    EngineConfig,
    build_worker_node,
    restart_worker,
    single_task_pipeline,
)
from repro.engine.worker import WorkerNode
from repro.faults.injector import FaultInjector
from repro.fleet import FleetState
from repro.faults.plan import FaultPlan
from repro.metrics.collector import MetricsCollector
from repro.net.bandwidth import FairSharePipe
from repro.net.topology import Topology
from repro.obs.recorder import ObsRecorder
from repro.schedulers.base import SchedulerPolicy
from repro.serve.admission import ADMIT, DELAY, SHED, AdmissionConfig, AdmissionController
from repro.serve.arrivals import ArrivalProcess
from repro.serve.autoscaler import Autoscaler, AutoscalerConfig
from repro.serve.slo import ServiceReport, SLOTracker
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams, split_seed
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


class ServiceRuntime:
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
        self.profile = profile
        self.scheduler = scheduler
        self.arrivals = arrivals
        self.source = source if source is not None else SyntheticJobSource()
        self.config = config or EngineConfig()
        self.service_config = service_config or ServiceConfig()
        self.faults = faults
        self.injector_faults: Optional[FaultInjector] = None
        #: Live-reconfiguration plan (see :mod:`repro.reconfig`), or
        #: ``None``; typed loosely to keep the import graph acyclic and
        #: the plan-free path import-free.
        self.reconfig = reconfig
        self.reconfig_controller = None

        # The "service" salt keeps service streams decorrelated from a
        # workflow run sharing the same master seed.
        self._streams = RandomStreams(split_seed(self.config.seed, "service"))
        streams = self._streams
        self.sim = Simulator()
        self.metrics = MetricsCollector()
        self.metrics.trace.enabled = self.config.trace
        check_cfg = self.config.check_config()
        #: Live invariant checker (see :mod:`repro.check`), or ``None``.
        self.monitor = InvariantMonitor(check_cfg) if check_cfg is not None else None
        self.metrics.monitor = self.monitor
        if self.monitor is not None:
            self.monitor.trace = self.metrics.trace
        obs_cfg = self.config.obs_config()
        #: Live observability recorder (see :mod:`repro.obs`), or ``None``.
        self.obs = ObsRecorder(self.sim, obs_cfg) if obs_cfg is not None else None
        self.pipeline = single_task_pipeline()
        self.admission = AdmissionController(
            self.sim, admission_config or AdmissionConfig()
        )
        self.slo = SLOTracker(self.metrics, deadline_s=self.service_config.deadline_s)

        node_names = [spec.name for spec in profile.specs] + ["master"]
        self.topology = Topology.build(
            self.sim, node_names, self.config.topology, rng=streams.get("topology")
        )
        if self.config.message_loss > 0:
            self.topology.broker.drop_probability = self.config.message_loss
            self.topology.broker.rng = streams.get("message-loss")
        self.topology.broker.monitor = self.monitor
        self.topology.broker.obs = self.obs
        self._origin = (
            FairSharePipe(self.sim, capacity_mbps=self.config.shared_origin_mbps)
            if self.config.shared_origin_mbps is not None
            else None
        )
        if self._origin is not None:
            self._origin.monitor = self.monitor
            self._origin.obs = self.obs
            self._origin.obs_label = "origin"

        #: The fleet planes every decision reads (see :mod:`repro.fleet`).
        self.fleet = FleetState()
        self.workers: dict[str, WorkerNode] = {}
        for spec in profile.specs:
            self.workers[spec.name] = build_worker_node(
                self.sim,
                self.topology,
                spec,
                scheduler,
                self.metrics,
                self.pipeline,
                self.config,
                self.fleet,
                noise_rng=streams.get("noise", spec.name),
                origin=self._origin,
                monitor=self.monitor,
                obs=self.obs,
            )

        self._master_policy = scheduler.make_master()
        self.master = Master(
            sim=self.sim,
            topology=self.topology,
            pipeline=self.pipeline,
            policy=self._master_policy,
            worker_names=[spec.name for spec in profile.specs],
            stream=None,  # external intake: the dispatcher submits
            metrics=self.metrics,
            fleet=self.fleet,
            rng=streams.get("master"),
            fault_tolerance=self.config.fault_tolerance,
            recovery=faults.recovery if faults is not None else None,
        )
        if self.monitor is not None:
            self.master.monitor = self.monitor
            self.monitor.recovery_enabled = self.master.recovery is not None
            self.monitor.contest_window_s = getattr(
                self._master_policy, "window_s", None
            )
        if hasattr(self._master_policy, "cache_view"):
            self._master_policy.cache_view = {
                name: set(worker.cache.contents())
                for name, worker in self.workers.items()
            }
        if hasattr(self._master_policy, "speed_view"):
            self._master_policy.speed_view = {
                spec.name: (
                    spec.network_mbps,
                    spec.rw_mbps,
                    spec.cpu_factor,
                    spec.link_latency,
                )
                for spec in profile.specs
            }
        if self.obs is not None:
            self.master.obs = self.obs
            self._register_probes()
        self.master.completion_listeners.append(self._on_completion)
        self.master.failure_listeners.append(self._on_failure)

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
        self._draining: list[str] = []
        self._kick: Event = Event(self.sim)

    # -- execution ---------------------------------------------------------

    def run(self) -> ServiceReport:
        """Run the service for its arrival window plus drain, and report.

        Raises ``RuntimeError`` if the run does not quiesce within
        ``config.max_sim_time`` simulated seconds.
        """
        self.master.start()
        for worker in self.workers.values():
            worker.start()
        if self.faults is not None and not self.faults.is_trivial:
            self.injector_faults = FaultInjector(
                sim=self.sim,
                plan=self.faults,
                rng=self._streams.get("faults"),
                workers=self.workers,
                master=self.master,
                broker=self.topology.broker,
                metrics=self.metrics,
                restart=lambda name: restart_worker(self, name),
                loss_rng=self._streams.get("faults", "loss"),
                monitor=self.monitor,
            )
            self.injector_faults.start()
        wants_rebalance = (
            self.autoscaler is not None and self.autoscaler.config.rebalance
        )
        if (self.reconfig is not None and not self.reconfig.is_trivial) or wants_rebalance:
            from repro.reconfig.controller import ReconfigController
            from repro.reconfig.plan import ReconfigPlan

            plan = self.reconfig if self.reconfig is not None else ReconfigPlan()
            self.reconfig_controller = ReconfigController(self, plan)
            self.reconfig_controller.start()
        if self.obs is not None:
            self.obs.start()
        self.sim.process(self._injector(), name="service-injector")
        self.sim.process(self._dispatcher(), name="service-dispatcher")
        if self.autoscaler is not None:
            self.autoscaler.start()
        self.sim.process(self._deadline_guard(), name="deadline-guard")
        self.sim.run(until=self.master.done)
        if self.obs is not None:
            self.obs.finish()
        if self.monitor is not None:
            self.monitor.final_check()
        return self.report()

    def _register_probes(self) -> None:
        """Register the service-level gauges on top of the engine ones."""
        probes = self.obs.probes
        master = self.master
        probes.register("master.outstanding", lambda: master.outstanding, unit="jobs")
        probes.register("fleet.active", lambda: len(master.active_workers), unit="workers")
        # One vectorised count over the alive/outstanding planes.
        probes.register("fleet.busy", self.fleet.busy_count, unit="workers")
        probes.register("service.inflight", lambda: self.inflight, unit="jobs")
        probes.register(
            "admission.depth", lambda: self.admission.depth, unit="jobs"
        )
        probes.register("admission.shed", lambda: self.admission.shed, unit="jobs")
        probes.register(
            "slo.attainment",
            lambda: 1.0
            - self.slo.deadline_misses / max(1, self.slo.completed),
        )
        policy = self._master_policy
        if hasattr(policy, "in_flight"):
            probes.register(
                "offers.in_flight", lambda: len(policy.in_flight), unit="offers"
            )
        if hasattr(policy, "open_contests"):
            probes.register(
                "contests.open", lambda: policy.open_contests, unit="contests"
            )
        if self._origin is not None:
            origin = self._origin
            probes.register(
                "origin.active", lambda: origin.active_count, unit="transfers"
            )

    def _deadline_guard(self):
        yield self.sim.timeout(self.config.max_sim_time)
        if not self.master.done.triggered:
            raise RuntimeError(
                f"service did not quiesce within {self.config.max_sim_time} simulated "
                f"seconds ({self.master.outstanding} jobs outstanding, "
                f"{self.admission.depth} pending at admission)"
            )

    # -- the injector ------------------------------------------------------

    def _injector(self):
        """Walk the arrival process, minting and offering jobs.

        Under the ``delay`` admission policy this process *blocks* on a
        full queue or an empty token bucket -- backpressure propagates
        to later arrivals, exactly as a blocking client API would
        experience it.
        """
        arrival_rng = self._streams.get("arrivals")
        source_rng = self._streams.get("source")
        duration = self.service_config.duration_s
        for at in self.arrivals.times(arrival_rng):
            if at > duration:
                break
            delay = at - self.sim.now
            if delay > 0:
                yield self.sim.sleep(delay)
            job, tenant = self.source.next_job(source_rng)
            self.slo.job_arrived(self.sim.now, job)
            while True:
                decision = self.admission.offer(job, tenant)
                if decision.action == ADMIT:
                    self._kick_dispatcher()
                    break
                if decision.action == SHED:
                    self.slo.job_shed(self.sim.now, job, decision.reason)
                    break
                assert decision.action == DELAY
                if decision.retry_after_s > 0:
                    yield self.sim.sleep(decision.retry_after_s)
                else:
                    yield self.admission.wait_for_space()
        self.arrivals_closed = True
        self._kick_dispatcher()

    # -- the dispatcher ----------------------------------------------------

    def _capacity(self) -> int:
        per_worker = self.service_config.max_inflight_per_worker
        return per_worker * max(1, len(self.master.active_workers))

    def _dispatcher(self):
        """Forward admitted jobs into the master, occupancy-capped."""
        while True:
            while self.inflight < self._capacity():
                entry = self.admission.next_job()
                if entry is None:
                    break
                job, _tenant = entry
                self.inflight += 1
                self.master.submit(job)
            if self.arrivals_closed and self.admission.depth == 0 and self.inflight == 0:
                self.closed = True
                if self.monitor is not None:
                    self.monitor.on_service_close(
                        self.admission.admitted,
                        self.slo.completed,
                        self.slo.failed,
                        self.sim.now,
                    )
                self.master.finish_intake()
                return
            self._kick = Event(self.sim)
            yield self._kick

    def _kick_dispatcher(self) -> None:
        if not self._kick.triggered:
            self._kick.succeed()

    def _on_completion(self, job, worker, now) -> None:
        self.inflight -= 1
        self.slo.job_completed(now, job)
        self._finalize_drains()
        self._kick_dispatcher()

    def _on_failure(self, job, worker, now, reason) -> None:
        # A permanently failed job must release its dispatcher slot, or
        # the intake never closes (conservation: completed + failed ==
        # admitted).
        self.inflight -= 1
        self.slo.job_failed(now, job)
        self._finalize_drains()
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
        rng = self._streams.get("elastic-topology")
        self.topology.add_node(
            name,
            float(
                rng.uniform(
                    self.config.topology.min_latency, self.config.topology.max_latency
                )
            ),
        )
        # Register with the master *before* the node starts, so its
        # Hello finds the name known and policies see it as active.
        self.master.add_worker(name)
        node = build_worker_node(
            self.sim,
            self.topology,
            spec,
            self.scheduler,
            self.metrics,
            self.pipeline,
            self.config,
            self.fleet,
            noise_rng=self._streams.get("noise", name),
            origin=self._origin,
            monitor=self.monitor,
            obs=self.obs,
        )
        self.workers[name] = node
        node.start()
        if hasattr(self._master_policy, "cache_view"):
            self._master_policy.cache_view[name] = set()
        if hasattr(self._master_policy, "speed_view"):
            self._master_policy.speed_view[name] = (
                spec.network_mbps,
                spec.rw_mbps,
                spec.cpu_factor,
                spec.link_latency,
            )
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
        self._draining.append(victim)
        return victim

    def _finalize_drains(self) -> None:
        for name in list(self._draining):
            if self.workers[name].is_idle:
                self._draining.remove(name)

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
