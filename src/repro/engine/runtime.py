"""Workflow assembly and single-run driver.

:class:`WorkflowRuntime` wires a complete simulated deployment -- the
simulator, topology/broker, a master, one worker node per spec, caches,
machines with noise -- around a chosen scheduler policy, runs the
workflow to completion, and produces the frozen
:class:`~repro.metrics.report.RunResult`.

It also supports the cross-iteration cache persistence the paper's
methodology depends on ("we cannot see job allocation occurring with
respect to data storage unless workers have files saved from previous
executions", Section 6.3.1): pass ``initial_caches`` from a previous
run's :meth:`WorkflowRuntime.cache_snapshot`.

The *open-loop* sibling -- a long-running service fed by an arrival
process instead of a fixed stream, with admission control and an
elastic worker pool -- lives in :class:`repro.serve.ServiceRuntime`;
both share :func:`build_worker_node` for node wiring.
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
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import RunResult
from repro.net.bandwidth import FairSharePipe
from repro.net.noise import make_noise
from repro.net.topology import Topology, TopologyConfig
from repro.obs.recorder import ObsRecorder, as_obs_config
from repro.schedulers.base import SchedulerPolicy
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
    fault_tolerance:
        Extension flag (the paper's default is off).
    message_loss:
        Robustness-extension knob: probability that a *control-plane*
        message (pull, offer-response signalling, bid, announcement) is
        lost in transit.  Job-carrying and completion messages always
        use persistent delivery.  The paper assumes 0.
    trace:
        Record the full job-lifecycle trace (disable for benchmarks).
    check:
        Runtime invariant monitoring (see :mod:`repro.check`): ``True``
        attaches an :class:`~repro.check.invariants.InvariantMonitor` to
        every engine component and raises
        :class:`~repro.check.invariants.InvariantViolation` the moment a
        conservation/ordering/contest law breaks.  Pass a
        :class:`~repro.check.invariants.CheckConfig` for fine-grained
        control.  Off (the default) costs one attribute test per hook.
    obs:
        Observability (see :mod:`repro.obs`): ``True`` attaches an
        :class:`~repro.obs.recorder.ObsRecorder` -- span-context
        threading through engine messages, time-series probes, broker
        flow records -- to every component.  Pass an
        :class:`~repro.obs.recorder.ObsConfig` for cadence/retention
        control.  Off (the default) costs one attribute test per hook
        and keeps runs bit-identical to builds without the subsystem.
    max_sim_time:
        Safety deadline -- a run not finishing by this simulated time
        raises instead of spinning forever.
    """

    seed: int = 0
    noise_kind: str = "lognormal"
    noise_params: dict = field(default_factory=lambda: {"sigma": 0.25})
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    fault_tolerance: bool = False
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


def build_worker_node(
    sim: Simulator,
    topology,
    spec,
    scheduler: SchedulerPolicy,
    metrics: MetricsCollector,
    pipeline: Pipeline,
    config: EngineConfig,
    fleet: FleetState,
    noise_rng,
    origin=None,
    initial_cache: Optional[dict[str, float]] = None,
    monitor: Optional[InvariantMonitor] = None,
    obs: Optional[ObsRecorder] = None,
) -> WorkerNode:
    """Wire one worker node (machine + cache + policy) for a run.

    Shared by :class:`WorkflowRuntime` and the service layer's
    ``ServiceRuntime`` (which also calls it mid-run for elastic
    scale-up, with a cold ``initial_cache``).
    """
    cache = WorkerCache(capacity_mb=spec.cache_capacity_mb)
    if initial_cache:
        cache.preload(initial_cache)
        if monitor is not None:
            # Warm clones count as prior fetches for the
            # cache-hit-requires-fetch law.
            monitor.on_cache_preload(spec.name, initial_cache)
    machine = Machine(
        sim,
        spec,
        network_noise=make_noise(config.noise_kind, **config.noise_params),
        rw_noise=make_noise(config.noise_kind, **config.noise_params),
        rng=noise_rng,
        upstream=origin,
    )
    node = WorkerNode(
        sim=sim,
        topology=topology,
        machine=machine,
        cache=cache,
        policy=scheduler.make_worker(),
        metrics=metrics,
        fleet=fleet,
        pipeline=pipeline,
        prefetch=config.prefetch,
    )
    node.monitor = monitor
    node.obs = obs
    return node


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


def restart_worker(host, name: str) -> WorkerNode:
    """Rebuild a dead worker in-place on a running host.

    Shared restart path for :class:`WorkflowRuntime` and
    :class:`repro.serve.ServiceRuntime` (the ``host``): unsubscribes the
    dead node's mailbox (so its dead-letter bounce stops shadowing the
    replacement), wires a fresh node -- warm cache if the fault plan
    keeps it -- re-admits the name via :meth:`Master.revive_worker`, and
    starts the node.  The fresh node takes the dead one's fleet slot,
    resetting its count/liveness planes and re-syncing the cache row
    (warm or cold per the fault plan).  The noise RNG substream is
    memoized per worker name, so the replacement continues the same
    stream and the run stays seed-deterministic.
    """
    old = host.workers[name]
    host.topology.broker.unsubscribe(old.inbox)
    plan = getattr(host, "faults", None)
    keep_cache = plan.restart_keeps_cache if plan is not None else True
    node = build_worker_node(
        host.sim,
        host.topology,
        old.spec,
        host.scheduler,
        host.metrics,
        host.pipeline,
        host.config,
        host.fleet,
        noise_rng=host._streams.get("noise", name),
        origin=host._origin,
        initial_cache=old.cache.contents() if keep_cache else None,
        monitor=getattr(host, "monitor", None),
        obs=getattr(host, "obs", None),
    )
    host.workers[name] = node
    host.master.revive_worker(name)
    node.start()
    policy = host._master_policy
    if hasattr(policy, "cache_view"):
        policy.cache_view[name] = set(node.cache.contents())
    return node


def single_task_pipeline() -> Pipeline:
    """The trivial pipeline used by the Section 6.3 controlled runs:
    a lone ``RepositoryAnalyzer`` consuming analysis jobs, no children."""
    pipeline = Pipeline(name="analysis-only")
    pipeline.add_task(Task(name=TASK_ANALYZER, consumes=(KIND_ANALYSIS,)))
    pipeline.connect(KIND_ANALYSIS, None, TASK_ANALYZER)
    pipeline.validate()
    return pipeline


class WorkflowRuntime:
    """One fully wired workflow run."""

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
        self.profile = profile
        self.stream = stream
        self.scheduler = scheduler
        self.config = config or EngineConfig()
        self.iteration = iteration
        self.faults = faults
        self.allow_partial = allow_partial
        self.injector: Optional[FaultInjector] = None
        #: Live-reconfiguration plan (see :mod:`repro.reconfig`), or
        #: ``None``; typed loosely to keep the import graph acyclic and
        #: the plan-free path import-free.
        self.reconfig = reconfig
        self.reconfig_controller = None
        #: Override for the controller class (the planted buggy migrator
        #: swaps itself in here); ``None`` uses the real controller.
        self.reconfig_controller_factory = None

        # Each iteration of a repeated configuration is an independent
        # execution: noise draws, topology placement and policy tie-breaks
        # re-randomise (the workload itself is rebuilt identically by the
        # caller).  Mixing the iteration index into the stream seed keeps
        # iterations decorrelated without touching the cell seed.
        streams = RandomStreams(split_seed(self.config.seed, "iteration", iteration))
        self._streams = streams
        self.sim = Simulator()
        self.metrics = MetricsCollector()
        self.metrics.trace.enabled = self.config.trace

        check_cfg = self.config.check_config()
        #: Live invariant checker (see :mod:`repro.check`), or ``None``.
        self.monitor: Optional[InvariantMonitor] = (
            InvariantMonitor(check_cfg) if check_cfg is not None else None
        )
        self.metrics.monitor = self.monitor
        if self.monitor is not None:
            # Violations enrich themselves with the offending job's
            # lifecycle straight from the trace (indexed, so O(1)-ish).
            self.monitor.trace = self.metrics.trace

        obs_cfg = self.config.obs_config()
        #: Live observability recorder (see :mod:`repro.obs`), or ``None``.
        self.obs: Optional[ObsRecorder] = (
            ObsRecorder(self.sim, obs_cfg) if obs_cfg is not None else None
        )

        # The pipeline may need simulation-bound services (e.g. the
        # GitHub model), hence the factory variant taking the fresh sim.
        if pipeline is not None:
            self.pipeline = pipeline
        elif pipeline_factory is not None:
            self.pipeline = pipeline_factory(self.sim)
        else:
            self.pipeline = single_task_pipeline()

        node_names = [spec.name for spec in profile.specs] + ["master"]
        self.topology = Topology.build(
            self.sim, node_names, self.config.topology, rng=streams.get("topology")
        )
        if self.config.message_loss > 0:
            self.topology.broker.drop_probability = self.config.message_loss
            self.topology.broker.rng = streams.get("message-loss")
        self.topology.broker.monitor = self.monitor
        self.topology.broker.obs = self.obs

        origin = (
            FairSharePipe(self.sim, capacity_mbps=self.config.shared_origin_mbps)
            if self.config.shared_origin_mbps is not None
            else None
        )
        if origin is not None:
            origin.monitor = self.monitor
            origin.obs = self.obs
            origin.obs_label = "origin"
        self._origin = origin

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
                origin=origin,
                initial_cache=(initial_caches or {}).get(spec.name),
                monitor=self.monitor,
                obs=self.obs,
            )

        master_policy = scheduler.make_master()
        self._master_policy = master_policy
        self.master = Master(
            sim=self.sim,
            topology=self.topology,
            pipeline=self.pipeline,
            policy=master_policy,
            worker_names=[spec.name for spec in profile.specs],
            stream=stream,
            metrics=self.metrics,
            fleet=self.fleet,
            rng=streams.get("master"),
            fault_tolerance=self.config.fault_tolerance,
            recovery=faults.recovery if faults is not None else None,
        )
        if self.monitor is not None:
            self.master.monitor = self.monitor
            self.monitor.recovery_enabled = self.master.recovery is not None
            # The bidding policy exposes its window; the monitor uses it
            # to bound contest durations (None disables that law).
            self.monitor.contest_window_s = getattr(master_policy, "window_s", None)
        if self.obs is not None:
            self.master.obs = self.obs
            self._register_probes()
        # Centralized policies get the driver's block-location view
        # (what is cached where *now*; they never see later changes).
        if hasattr(master_policy, "cache_view"):
            master_policy.cache_view = {
                name: set(worker.cache.contents())
                for name, worker in self.workers.items()
            }
        # Completion-time planners (BAR) additionally know the fleet's
        # nominal speeds -- the centralized scheduler's one advantage.
        if hasattr(master_policy, "speed_view"):
            master_policy.speed_view = {
                spec.name: (
                    spec.network_mbps,
                    spec.rw_mbps,
                    spec.cpu_factor,
                    spec.link_latency,
                )
                for spec in profile.specs
            }

    def _register_probes(self) -> None:
        """Register the standard workflow gauges on the obs recorder.

        Worker gauges read the fleet planes by slot; a restarted node
        reports into its predecessor's slot, so they stay current.
        """
        probes = self.obs.probes
        master = self.master
        fleet = self.fleet
        probes.register("master.outstanding", lambda: master.outstanding, unit="jobs")
        probes.register("fleet.active", lambda: len(master.active_workers), unit="workers")
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
        # One vector group for every gauge read off the fleet planes: the
        # two counts and the whole fleet's queue depths and busy flags in
        # one gather per sample (restart-swapped nodes report into the
        # same slot, so the gather stays current).
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
                metrics=self.metrics,
                restart=lambda name: restart_worker(self, name),
                loss_rng=self._streams.get("faults", "loss"),
                monitor=self.monitor,
            )
            self.injector.start()
        if self.reconfig is not None and not self.reconfig.is_trivial:
            factory = self.reconfig_controller_factory
            if factory is None:
                from repro.reconfig.controller import ReconfigController as factory

            self.reconfig_controller = factory(self, self.reconfig)
            self.reconfig_controller.start()
        self.sim.process(self._deadline_guard(), name="deadline-guard")
        self.sim.run(until=self.master.done)
        if self.obs is not None:
            self.obs.finish()
        if self.monitor is not None:
            # End-of-run conservation laws come before the partial-failure
            # escalation: a broken law is the more fundamental error.
            self.monitor.final_check()
        if self.master.failed_jobs and not self.allow_partial:
            raise WorkflowStalled(self.master.failed_jobs)
        return self.result()

    def _deadline_guard(self):
        yield self.sim.timeout(self.config.max_sim_time)
        if not self.master.done.triggered:
            raise RuntimeError(
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
