"""Deployment assembly and the workflow driver.

:class:`Deployment` wires a complete simulated deployment once -- the
simulator, topology/broker, a master, one worker node per spec, caches,
machines with noise, the fault injector and the reconfiguration
controller -- around a chosen scheduler policy.  A fixed workflow and an
open-loop service are two ways of feeding it jobs (ARCHITECTURE section
6): :class:`WorkflowRuntime` hands the master a job stream, runs it to
completion and produces the frozen
:class:`~repro.metrics.report.RunResult`;
:class:`repro.serve.ServiceRuntime` feeds it an arrival process through
admission control and resizes the fleet.

The workflow also supports the cross-iteration cache persistence the
paper's methodology depends on ("we cannot see job allocation occurring
with respect to data storage unless workers have files saved from
previous executions", Section 6.3.1): pass ``initial_caches`` from a
previous run's :meth:`WorkflowRuntime.cache_snapshot`.

The host sits above every package it wires -- ``engine``,
``schedulers``, ``check``, ``faults``, ``reconfig`` -- and none of them
imports it (ARCHITECTURE section 3, *Layers*).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.check.invariants import InvariantMonitor, as_check_config
from repro.cluster.machine import Machine
from repro.cluster.profiles import WorkerProfile
from repro.data.cache import WorkerCache
from repro.engine.master import Master
from repro.engine.worker import WorkerNode
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.fleet import FleetState
from repro.hooks import Hooks
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import RunResult
from repro.net.bandwidth import FairSharePipe
from repro.net.noise import make_noise
from repro.net.topology import Topology, TopologyConfig
from repro.obs.recorder import ObsRecorder, as_obs_config
from repro.schedulers.base import SchedulerPolicy, UpfrontPlannerPolicy
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams, split_seed
from repro.workload.job import JobStream
from repro.workload.msr import KIND_ANALYSIS, TASK_ANALYZER
from repro.workload.pipeline import Pipeline, Task


@dataclass(frozen=True)
class EngineConfig:
    """Run-level knobs shared by every experiment.

    Attributes
    ----------
    seed:
        Master seed; every stochastic component derives an independent
        sub-stream from it.
    noise_kind / noise_params:
        The Section 6.3.1 noise scheme applied to realised network and
        read/write speeds (see :mod:`repro.net.noise`).
    topology:
        Geo-distribution latency ranges.
    message_loss:
        Robustness-extension knob: probability that a *control-plane*
        message (pull, offer-response signalling, bid, announcement) is
        lost in transit.  Job-carrying and completion messages always
        use persistent delivery.  The paper assumes 0.
    trace:
        Record the full job-lifecycle trace (disable for benchmarks).
    check:
        Runtime invariant monitoring (see :mod:`repro.check`): ``True``
        subscribes an :class:`~repro.check.invariants.InvariantMonitor`
        to the run's observer seams (:mod:`repro.hooks`), which raises
        :class:`~repro.check.invariants.InvariantViolation` the moment a
        conservation/ordering/contest law breaks.  Pass a
        :class:`~repro.check.invariants.CheckConfig` for fine-grained
        control.  Off (the default), the seams are empty and call
        nothing.
    obs:
        Observability (see :mod:`repro.obs`): ``True`` subscribes an
        :class:`~repro.obs.recorder.ObsRecorder` -- time-series probes,
        broker flow records, pipe occupancy -- and its decision ledger
        to the seams.  Pass an :class:`~repro.obs.recorder.ObsConfig`
        for cadence/retention control.  Off (the default) keeps runs
        bit-identical to builds without the subsystem.
    max_sim_time:
        Safety deadline -- a run not finishing by this simulated time
        raises instead of spinning forever.
    """

    seed: int = 0
    noise_kind: str = "lognormal"
    noise_params: dict = field(default_factory=lambda: {"sigma": 0.25})
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    message_loss: float = 0.0
    #: Extension: workers download queued jobs' clones while the CPU is
    #: busy (off = the paper's serial download-then-process execution).
    prefetch: bool = False
    #: Extension: total egress capacity of the data origin (MB/s),
    #: fair-shared among all concurrent cluster downloads.  ``None``
    #: (the default) models an uncontended origin, as the paper's
    #: GitHub-scale source effectively is for 5 workers.
    shared_origin_mbps: Optional[float] = None
    trace: bool = True
    check: object = False
    obs: object = False
    max_sim_time: float = 10_000_000.0

    def __post_init__(self) -> None:
        as_check_config(self.check)  # validate eagerly (raises on bad type)
        as_obs_config(self.obs)
        if not 0 <= self.message_loss < 1:
            raise ValueError("message_loss must be in [0, 1)")
        if self.max_sim_time <= 0:
            raise ValueError("max_sim_time must be positive")
        if self.shared_origin_mbps is not None and self.shared_origin_mbps <= 0:
            raise ValueError("shared_origin_mbps must be positive")

    def check_config(self):
        """The normalised :class:`~repro.check.invariants.CheckConfig`,
        or ``None`` when invariant monitoring is off."""
        return as_check_config(self.check)

    def obs_config(self):
        """The normalised :class:`~repro.obs.recorder.ObsConfig`, or
        ``None`` when observability is off."""
        return as_obs_config(self.obs)


class WorkflowStalled(RuntimeError):
    """The run terminated with permanently failed jobs.

    Raised by :meth:`WorkflowRuntime.run` (unless ``allow_partial=True``)
    when orphaned jobs could not be recovered -- either fault tolerance
    is disabled (the paper's default) or the retry budget ran out.  The
    failed set is on :attr:`failed_jobs` and in
    :attr:`~repro.metrics.report.RunResult.failed_jobs`.
    """

    def __init__(self, failed_jobs: dict[str, str]):
        sample = "; ".join(
            f"{job_id}: {reason}" for job_id, reason in list(failed_jobs.items())[:3]
        )
        super().__init__(
            f"workflow did not complete: {len(failed_jobs)} job(s) permanently "
            f"failed ({sample})"
        )
        self.failed_jobs = dict(failed_jobs)


def single_task_pipeline() -> Pipeline:
    """The trivial pipeline used by the Section 6.3 controlled runs:
    a lone ``RepositoryAnalyzer`` consuming analysis jobs, no children."""
    pipeline = Pipeline(name="analysis-only")
    pipeline.add_task(Task(name=TASK_ANALYZER, consumes=(KIND_ANALYSIS,)))
    pipeline.connect(KIND_ANALYSIS, None, TASK_ANALYZER)
    pipeline.validate()
    return pipeline


class Deployment:
    """The host both runtimes share: one wired deployment.

    It builds the run's one :class:`~repro.hooks.Hooks` table, hands it
    to every component it builds and subscribes its watchers: the
    metrics collector first, then the invariant monitor, the ``obs``
    recorder and the decision ledger, each when its knob is on.

    ``salt`` is mixed into the master seed to derive the run's random
    streams, which keeps runs on one seed decorrelated (the workflow
    salts with its iteration, the service with ``("service",)``).
    ``stream`` is the master's job source, ``None`` for external intake.
    Each runtime adds its own gauges (:meth:`_runtime_probes`), its
    intake and its deadline message (:meth:`_stall_message`).
    """

    def __init__(
        self,
        profile: WorkerProfile,
        scheduler: SchedulerPolicy,
        config: Optional[EngineConfig],
        salt: tuple,
        stream: Optional[JobStream] = None,
        pipeline: Optional[Pipeline] = None,
        pipeline_factory: Optional[object] = None,
        initial_caches: Optional[dict[str, dict[str, float]]] = None,
        faults: Optional[FaultPlan] = None,
        reconfig: Optional[object] = None,
    ) -> None:
        self.profile = profile
        self.scheduler = scheduler
        self.config = config = config or EngineConfig()
        self.faults = faults
        self.injector: Optional[FaultInjector] = None
        #: Live-reconfiguration plan (see :mod:`repro.reconfig`), or
        #: ``None``; typed loosely so that a plan-free run never imports
        #: :mod:`repro.reconfig` (see :meth:`_start`).
        self.reconfig = reconfig
        self.reconfig_controller = None
        #: Override for the controller class (the planted buggy migrator
        #: swaps itself in here); ``None`` uses the real controller.
        self.reconfig_controller_factory = None

        self._streams = streams = RandomStreams(split_seed(config.seed, *salt))
        self.sim = Simulator()
        #: The run's observer seams (see :mod:`repro.hooks`).
        self.hooks = hooks = Hooks()
        self.metrics = MetricsCollector()
        self.metrics.trace.enabled = config.trace
        # First, so that an event's trace row is written before any other
        # watcher hears of it: the monitor quotes the job's rows when it raises.
        hooks.subscribe(self.metrics)
        check_cfg = config.check_config()
        #: Live invariant checker (see :mod:`repro.check`), or ``None``.
        self.monitor: Optional[InvariantMonitor] = (
            InvariantMonitor(check_cfg) if check_cfg is not None else None
        )
        if self.monitor is not None:
            # Violations enrich themselves with the offending job's
            # lifecycle, read off the trace.
            self.monitor.trace = self.metrics.trace
            hooks.subscribe(self.monitor)
        obs_cfg = config.obs_config()
        #: Live observability recorder (see :mod:`repro.obs`), or ``None``.
        self.obs: Optional[ObsRecorder] = (
            ObsRecorder(self.sim, obs_cfg) if obs_cfg is not None else None
        )
        if self.obs is not None:
            hooks.subscribe(self.obs)
            if self.obs.ledger is not None:
                hooks.subscribe(self.obs.ledger)
        # The pipeline may need simulation-bound services (e.g. the
        # GitHub model), hence the factory variant taking the fresh sim.
        if pipeline is None:
            pipeline = (
                pipeline_factory(self.sim) if pipeline_factory is not None else single_task_pipeline()
            )
        self.pipeline = pipeline

        names = [spec.name for spec in profile.specs]
        self.topology = Topology.build(
            self.sim,
            names + ["master"],
            config.topology,
            rng=streams.get("topology"),
            hooks=hooks,
        )
        broker = self.topology.broker
        if config.message_loss > 0:
            broker.drop_probability = config.message_loss
            broker.rng = streams.get("message-loss")
        self._origin: Optional[FairSharePipe] = None
        if config.shared_origin_mbps is not None:
            self._origin = FairSharePipe(
                self.sim, capacity_mbps=config.shared_origin_mbps, label="origin", hooks=hooks
            )

        #: The fleet planes every decision reads (see :mod:`repro.fleet`).
        self.fleet = FleetState()
        #: Nodes a restart replaced, released with the live ones.
        self._dead: list[WorkerNode] = []
        self.workers: dict[str, WorkerNode] = {
            spec.name: self._build_node(spec, (initial_caches or {}).get(spec.name))
            for spec in profile.specs
        }

        self._master_policy = scheduler.make_master()
        self.master = Master(
            sim=self.sim,
            topology=self.topology,
            pipeline=self.pipeline,
            policy=self._master_policy,
            worker_names=names,
            stream=stream,
            metrics=self.metrics,
            fleet=self.fleet,
            rng=streams.get("master"),
            recovery=faults.recovery if faults is not None else None,
            hooks=hooks,
        )
        if self.monitor is not None:
            self.monitor.recovery_enabled = self.master.recovery is not None
            # The bidding policy exposes its window; the monitor uses it
            # to bound contest durations (None disables that law).
            self.monitor.contest_window_s = getattr(self._master_policy, "window_s", None)
        self._seed_views(self.workers.values())
        if self.obs is not None:
            self._register_probes()

    # -- nodes ---------------------------------------------------------------

    def _build_node(self, spec, initial_cache: Optional[dict[str, float]] = None) -> WorkerNode:
        """Wire one worker node (machine + cache + policy) on this host.

        Its noise draws from the stream memoized under its name, so a
        restarted node continues its predecessor's stream and the run
        stays seed-deterministic.
        """
        config = self.config
        machine = Machine(
            self.sim,
            spec,
            network_noise=make_noise(config.noise_kind, **config.noise_params),
            rw_noise=make_noise(config.noise_kind, **config.noise_params),
            rng=self._streams.get("noise", spec.name),
            upstream=self._origin,
        )
        return WorkerNode(
            sim=self.sim,
            topology=self.topology,
            machine=machine,
            cache=WorkerCache(capacity_mb=spec.cache_capacity_mb),
            policy=self.scheduler.make_worker(),
            fleet=self.fleet,
            pipeline=self.pipeline,
            prefetch=config.prefetch,
            hooks=self.hooks,
            warm=initial_cache,
        )

    def _seed_views(self, nodes, policy=None) -> None:
        """Give an upfront planner (default: the running master policy)
        the driver's view of ``nodes``: what each caches *now* -- the
        policy never sees later changes -- and its nominal speeds, the
        centralized scheduler's one advantage."""
        if policy is None:
            policy = self._master_policy
        if not isinstance(policy, UpfrontPlannerPolicy):
            return
        for node in nodes:
            spec = node.spec
            policy.cache_view[node.name] = set(node.cache.contents())
            policy.speed_view[node.name] = (
                spec.network_mbps, spec.rw_mbps, spec.cpu_factor, spec.link_latency
            )

    def restart_worker(self, name: str) -> WorkerNode:
        """Rebuild a dead worker in place (the fault injector's restart).

        Unsubscribes the dead node's mailbox (so its dead-letter bounce
        stops shadowing the replacement), builds a fresh node -- warm
        cache if the fault plan keeps it -- that takes the dead one's
        fleet slot, re-admits the name via :meth:`Master.revive_worker`
        and starts it.
        """
        old = self.workers[name]
        self.topology.broker.unsubscribe(old.inbox)
        keep_cache = self.faults is None or self.faults.restart_keeps_cache
        node = self._build_node(old.spec, old.cache.contents() if keep_cache else None)
        self.workers[name] = node
        self._dead.append(old)
        self.master.revive_worker(name)
        node.start()
        self._seed_views([node])
        return node

    # -- observability -------------------------------------------------------

    def _register_probes(self) -> None:
        """Register the standard gauges on the obs recorder, the
        runtime's own after the fleet's two counts."""
        probes = self.obs.probes
        master = self.master
        probes.register("master.outstanding", lambda: master.outstanding, unit="jobs")
        probes.register("fleet.active", lambda: len(master.active_workers), unit="workers")
        self._runtime_probes(probes)
        policy = self._master_policy
        if hasattr(policy, "in_flight"):
            probes.register("offers.in_flight", lambda: len(policy.in_flight), unit="offers")
        if hasattr(policy, "open_contests"):
            probes.register("contests.open", lambda: policy.open_contests, unit="contests")
        if self._origin is not None:
            origin = self._origin
            probes.register("origin.active", lambda: origin.active_count, unit="transfers")

    def _runtime_probes(self, probes) -> None:
        """Register the runtime's own gauges on ``probes``."""
        raise NotImplementedError

    def counts(self) -> dict[str, int]:
        """What the run has done so far, counted exactly: heap pushes,
        messages published, delivered and lost, link transfers (of live
        and replaced nodes), contests opened, offers made, rejections
        seen, and the exchanges worked out without their messages.
        Read-only, during the run or after it: every figure is a counter
        the kernel, the broker, a link, the collector or the master
        keeps anyway."""
        broker, metrics, master = self.topology.broker, self.metrics, self.master
        subscriptions = (*broker._departed, *(s for subs in broker._topics.values() for s in subs))
        return {
            # ``count(N)``: the next heap entry's sequence number.
            "heap_pushes": int(repr(self.sim._seq)[6:-1]),
            "messages_published": broker.published,
            "messages_delivered": sum(sub.delivered for sub in subscriptions),
            "messages_dropped": broker.dropped + broker.partition_dropped,
            "link_transfers": sum(
                node.machine.link.transfer_count
                for node in (*self.workers.values(), *self._dead)
            ),
            "contests_opened": metrics.contests_opened,
            "offers_made": metrics.offers_made,
            "rejections_seen": metrics.rejections_seen,
            "contests_computed": master.contests_computed,
            "declines_settled": master.declines_settled,
        }

    # -- execution -----------------------------------------------------------

    def _start(self, rebalance: bool = False) -> None:
        """Start the master, the nodes, the observers, the fault injector
        and -- for a non-trivial plan, or for ``rebalance``, which
        migrates through it -- the reconfiguration controller."""
        self.master.start()
        for worker in self.workers.values():
            worker.start()
        if self.obs is not None:
            self.obs.start()
        if self.faults is not None and not self.faults.is_trivial:
            self.injector = FaultInjector(
                sim=self.sim,
                plan=self.faults,
                rng=self._streams.get("faults"),
                workers=self.workers,
                master=self.master,
                broker=self.topology.broker,
                restart=self.restart_worker,
                loss_rng=self._streams.get("faults", "loss"),
                hooks=self.hooks,
            )
            self.injector.start()
        plan = self.reconfig
        if rebalance or (plan is not None and not plan.is_trivial):
            factory = self.reconfig_controller_factory
            # Imported here, not above: a plan-free run loads no reconfig.
            if factory is None:
                from repro.reconfig.controller import ReconfigController as factory
            if plan is None:
                from repro.reconfig.plan import ReconfigPlan

                plan = ReconfigPlan()
            self.reconfig_controller = factory(self, plan)
            self.reconfig_controller.start()

    def _run(self) -> None:
        """Run until the master stops the run (:attr:`Master.done`),
        then close the observers and
        check the end-of-run laws.  A run still going at
        ``config.max_sim_time`` raises ``RuntimeError`` with the
        runtime's :meth:`_stall_message`.  Either way the run is then
        released (:meth:`_release`)."""
        try:
            self.sim.call_later(self.config.max_sim_time, self._deadline)
            self.sim.run()
            if self.obs is not None:
                self.obs.finish()
            if self.monitor is not None:
                # End-of-run conservation laws come before a runtime's own
                # escalation: a broken law is the more fundamental error.
                self.monitor.final_check()
        finally:
            self._release()

    def _release(self) -> None:
        """Cut every edge that points back up the run's object graph, so
        that it is a tree and dropping the runtime frees it by reference
        counting alone (ARCHITECTURE section 5, *A run's memory*).  What
        a caller reads after the run hangs off parent-to-child edges,
        which stay."""
        self.sim.close()
        self.hooks.clear()
        self.topology.broker.close()
        self.fleet.detach_nodes()
        self.master.policy.release()
        for node in (*self.workers.values(), *self._dead):
            node.release()
        if self.injector is not None:
            self.injector.restart = None
        if self.reconfig_controller is not None:
            self.reconfig_controller.release()

    def _deadline(self) -> None:
        if not self.master.done:
            raise RuntimeError(self._stall_message())

    def _stall_message(self) -> str:
        raise NotImplementedError


class WorkflowRuntime(Deployment):
    """One fully wired workflow run: the deployment fed a fixed job stream."""

    def __init__(
        self,
        profile: WorkerProfile,
        stream: JobStream,
        scheduler: SchedulerPolicy,
        pipeline: Optional[Pipeline] = None,
        pipeline_factory: Optional[object] = None,
        config: Optional[EngineConfig] = None,
        initial_caches: Optional[dict[str, dict[str, float]]] = None,
        iteration: int = 0,
        faults: Optional[FaultPlan] = None,
        allow_partial: bool = False,
        reconfig: Optional[object] = None,
    ) -> None:
        self.stream = stream
        self.iteration = iteration
        self.allow_partial = allow_partial
        # Each iteration of a repeated configuration is an independent
        # execution: noise draws, topology placement and policy tie-breaks
        # re-randomise (the workload itself is rebuilt identically by the
        # caller).  Mixing the iteration index into the stream seed keeps
        # iterations decorrelated without touching the cell seed.
        super().__init__(
            profile,
            scheduler,
            config,
            ("iteration", iteration),
            stream=stream,
            pipeline=pipeline,
            pipeline_factory=pipeline_factory,
            initial_caches=initial_caches,
            faults=faults,
            reconfig=reconfig,
        )

    def _runtime_probes(self, probes) -> None:
        """One vector group for every gauge read off the fleet planes:
        the two counts and the whole fleet's queue depths and busy flags
        in one gather per sample.  A restarted node reports into its
        predecessor's slot, so the gather stays current."""
        fleet = self.fleet
        names = list(self.workers)
        slots = np.array([fleet.slot_of(name) for name in names], dtype=np.intp)
        probes.register_vector(
            ["fleet.busy", "links.busy"]
            + [f"worker.{name}.queue" for name in names]
            + [f"worker.{name}.busy" for name in names],
            lambda: fleet.probe_row(slots),
            unit=["workers", "links"] + ["jobs"] * len(names) + [""] * len(names),
        )

    # -- execution ----------------------------------------------------------

    def run(self) -> RunResult:
        """Run the workflow to completion and summarise it.

        Raises :class:`WorkflowStalled` when jobs failed permanently and
        ``allow_partial`` is off, or ``RuntimeError`` if the workflow
        does not finish within ``config.max_sim_time`` simulated seconds.
        """
        self._start()
        self._run()
        if self.master.failed_jobs and not self.allow_partial:
            raise WorkflowStalled(self.master.failed_jobs)
        return self.result()

    def _stall_message(self) -> str:
        return (
            f"workflow did not complete within {self.config.max_sim_time} "
            f"simulated seconds ({self.master.outstanding} jobs outstanding)"
        )

    def result(self) -> RunResult:
        """Freeze the collected metrics into a RunResult."""
        metrics = self.metrics
        return RunResult(
            scheduler=self.scheduler.name,
            workload=self.stream.name,
            profile=self.profile.name,
            seed=self.config.seed,
            iteration=self.iteration,
            makespan_s=metrics.makespan,
            cache_misses=metrics.total_cache_misses,
            cache_hits=metrics.total_cache_hits,
            data_load_mb=metrics.total_mb_downloaded,
            jobs_completed=metrics.jobs_completed,
            contest_seconds=metrics.contest_seconds,
            contests_fallback=metrics.contests_fallback,
            rejections=metrics.rejections_seen,
            per_worker_mb={
                name: block.mb_downloaded for name, block in metrics.workers.items()
            },
            per_worker_jobs={
                name: block.jobs_completed for name, block in metrics.workers.items()
            },
            failed_jobs=tuple(sorted(self.master.failed_jobs)),
            crashes=metrics.workers_crashed,
            redispatches=metrics.jobs_redispatched,
            duplicates_suppressed=metrics.duplicates_suppressed,
        )

    def cache_snapshot(self) -> dict[str, dict[str, float]]:
        """Per-worker cache contents, for warm-started follow-up runs."""
        return {name: worker.cache.contents() for name, worker in self.workers.items()}
