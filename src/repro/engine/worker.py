"""The worker node runtime.

A :class:`WorkerNode` is one Crossflow worker: it owns a machine (link +
disk), a local clone cache, a FIFO job queue, and a pluggable
:class:`~repro.schedulers.base.WorkerPolicy` implementing its "opinion".

Execution model (Section 4/5):

* jobs execute strictly FIFO, one at a time;
* executing a repository-bound job first checks the local cache -- a
  *hit* refreshes recency, a *miss* downloads the clone through the
  worker's link (counting toward the data-load and cache-miss metrics)
  and stores it;
* completion is reported to the master, which expands downstream jobs.

The node tracks its *committed workload* -- the estimated cost of every
unfinished job it has been given -- which the Bidding policy aggregates
as ``totalCostOfUnfinishedJobs()`` (Listing 2 line 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cluster.machine import Machine
from repro.data.cache import WorkerCache
from repro.engine.messages import (
    TOPIC_MASTER,
    Assignment,
    Hello,
    JobCompleted,
    MigrateAck,
    MigrateRequest,
    WorkerFailure,
    is_reliable,
    worker_topic,
)
from repro.fleet import FleetState
from repro.metrics.collector import MetricsCollector
from repro.net.broker import Mailbox
from repro.net.topology import Topology
from repro.sim.events import Event
from repro.sim.process import Interrupt
from repro.sim.resources import Store
from repro.workload.job import Job
from repro.workload.pipeline import Pipeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.schedulers.base import WorkerPolicy
    from repro.sim.kernel import Simulator


class WorkerNode:
    """One worker node: machine + cache + queue + policy.

    Parameters
    ----------
    sim, topology, metrics, fleet:
        Shared run infrastructure.  The node reports its counts to the
        fleet planes *absolutely* at every seam, so they can never drift
        from its own counters.
    machine:
        The simulated hardware (owns the spec).
    cache:
        The local clone store.
    policy:
        The worker-side allocation strategy; bound to this node here.
    pipeline:
        The workflow definition (for per-task simulated work hooks).
    """

    def __init__(
        self,
        sim: "Simulator",
        topology: Topology,
        machine: Machine,
        cache: WorkerCache,
        policy: "WorkerPolicy",
        metrics: MetricsCollector,
        fleet: FleetState,
        pipeline: Optional[Pipeline] = None,
        prefetch: bool = False,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.machine = machine
        self.cache = cache
        self.policy = policy
        self.metrics = metrics
        self.pipeline = pipeline
        self.name = machine.spec.name
        self.spec = machine.spec

        self.inbox = topology.subscribe(worker_topic(self.name), self.name)
        self.inbox.owner = Mailbox(sim, self._handle)
        self.queue: Store = Store(sim)
        #: job_id -> estimated cost of every assigned-but-unfinished job.
        self.unfinished: dict[str, float] = {}
        #: The job currently executing (None when between jobs).
        self.current_job: Optional[Job] = None
        #: Jobs accepted but not yet completed.  This -- not the queue
        #: length -- defines idleness: a job handed to the executor's
        #: pending ``get`` leaves the queue before execution starts, and
        #: the worker must not look idle in that window.
        self._outstanding_jobs = 0
        self.alive = True
        #: Scale-down drain (service layer): a draining worker finishes
        #: the jobs it already holds but stops competing for new ones --
        #: policies consult this flag before bidding or pulling.
        self.draining = False
        self._idle_waiters: list[Event] = []
        self._exec_proc = None
        #: Prefetch extension: download queued jobs' repositories while
        #: the CPU processes earlier jobs (off = the paper's strictly
        #: serial download-then-process execution).
        self.prefetch = prefetch
        self._prefetch_proc = None
        self._prefetch_signal: Optional[Event] = None
        #: repo_id -> completion event of an in-flight prefetch.
        self._prefetch_inflight: dict[str, Event] = {}
        #: job_ids whose miss was already accounted by the prefetcher.
        self._prefetch_credit: set[str] = set()
        #: Optional live invariant checker (see :mod:`repro.check`);
        #: attached by the runtime when ``EngineConfig.check`` is set.
        self.monitor = None
        #: Optional observability recorder (see :mod:`repro.obs`);
        #: attached by the runtime when ``EngineConfig.obs`` is set.
        self.obs = None
        #: job_id -> span context from the Assignment, echoed on completion.
        self._assign_ctxs: dict[str, object] = {}
        #: Message types tolerated (dropped with a trace record) when the
        #: active policy does not consume them -- the previous policy's
        #: in-flight control traffic after a hot-swap.  Empty outside
        #: swaps, so the unhandled-message error stays strict.
        self._stale_ok: tuple[type, ...] = ()
        self.fleet = fleet
        self.fleet_slot = fleet.attach_node(self)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Register with the master, open the inbox and spawn the
        executor."""
        self.policy.bind(self)
        self.send_to_master(Hello(worker=self.name))
        self.inbox.owner.start()
        self._exec_proc = self.sim.process(self._executor(), name=f"{self.name}-exec")
        if self.prefetch:
            self._prefetch_proc = self.sim.process(
                self._prefetcher(), name=f"{self.name}-prefetch"
            )
        self.policy.start()

    # -- messaging helpers ----------------------------------------------------

    def send_to_master(self, message: object) -> None:
        """Publish a message on the master's topic (persistent delivery
        for job-carrying/completion messages)."""
        self.topology.broker.publish(
            TOPIC_MASTER, message, reliable=is_reliable(message), sender=self.name
        )

    # -- state queries -----------------------------------------------------

    @property
    def is_idle(self) -> bool:
        """No accepted job is unfinished (running, queued, or in hand-off)."""
        return self._outstanding_jobs == 0

    @property
    def queued_count(self) -> int:
        """Jobs waiting in the FIFO queue (excluding the running one)."""
        return len(self.queue)

    def wait_idle(self) -> Event:
        """An event that fires when the worker next becomes idle.

        Fires immediately if already idle.
        """
        event = Event(self.sim)
        if self.is_idle:
            return event.succeed()
        self._idle_waiters.append(event)
        return event

    def committed_cost(self) -> float:
        """``totalCostOfUnfinishedJobs()`` -- Listing 2, line 2."""
        return sum(self.unfinished.values())

    def pending_repos(self) -> set[str]:
        """Repositories that will be local once the queue drains:
        cached now, or required by an unfinished job (whose execution
        will download them)."""
        repos = set(self.cache.contents())
        if self.current_job is not None and self.current_job.repo_id is not None:
            repos.add(self.current_job.repo_id)
        for job in self.queue.items:
            if isinstance(job, Job) and job.repo_id is not None:
                repos.add(job.repo_id)
        return repos

    def will_hold(self, repo_id: str) -> bool:
        """``repo_id in pending_repos()`` without building the set."""
        if self.cache.peek(repo_id):
            return True
        if self.current_job is not None and self.current_job.repo_id == repo_id:
            return True
        return any(
            isinstance(job, Job) and job.repo_id == repo_id for job in self.queue.items
        )

    # -- job intake ----------------------------------------------------------

    def enqueue(self, job: Job, estimated_cost: float = 0.0) -> None:
        """Append a job to the FIFO queue with its committed-cost estimate."""
        if not self.alive:
            raise RuntimeError(f"worker {self.name} is dead")
        if self.monitor is not None:
            self.monitor.on_enqueued(job.job_id, self.name, self.sim.now)
        self.unfinished[job.job_id] = estimated_cost
        self._outstanding_jobs += 1
        self.queue.put(job)
        self.fleet.report(self.fleet_slot, self._outstanding_jobs, len(self.queue))
        if self._prefetch_signal is not None and not self._prefetch_signal.triggered:
            self._prefetch_signal.succeed()

    # -- inbox and processes --------------------------------------------------

    def _handle(self, message: object) -> None:
        """One inbox message (the mailbox calls this, one per turn):
        policy first, then engine defaults."""
        if not self.alive:
            # Dead-letter channel: a job-carrying message that reaches
            # a dead node bounces back to the master as an orphan
            # report, so fault-tolerant policies can reallocate work
            # that was in flight when the node died.
            job = getattr(message, "job", None)
            if isinstance(job, Job):
                self.send_to_master(WorkerFailure(worker=self.name, orphaned=(job,)))
            return
        if self.obs is not None and isinstance(message, Assignment) and message.ctx is not None:
            # Capture the span context before the policy sees the
            # message: bidding-style policies consume Assignments
            # themselves, and the echo on JobCompleted must survive
            # either dispatch path.
            self._assign_ctxs[message.job.job_id] = message.ctx
        if isinstance(message, MigrateRequest):
            # Engine-level: checkpoint jobs for the migration
            # controller before the policy sees anything.
            self._on_migrate_request(message)
        elif self.policy.on_message(message):
            pass
        elif isinstance(message, Assignment):
            self.enqueue(message.job, self._default_estimate(message.job))
        elif self._stale_ok and isinstance(message, self._stale_ok):
            # Hot-swap residue: control traffic addressed to the
            # previous policy.  Dropping is safe -- quiesce drained
            # every job-carrying exchange before the swap.
            self.metrics.trace.record(
                self.sim.now,
                "swap_stale_drop",
                "-",
                self.name,
                type(message).__name__,
            )
        else:
            raise RuntimeError(
                f"worker {self.name}: unhandled message {message!r} "
                f"under policy {type(self.policy).__name__}"
            )

    def _default_estimate(self, job: Job) -> float:
        """Committed-cost estimate used when the policy did not supply one."""
        transfer = (
            0.0
            if job.repo_id is None or self.cache.peek(job.repo_id)
            else self.spec.nominal_download_time(job.size_mb)
        )
        return transfer + self.spec.nominal_processing_time(job.size_mb, job.base_compute_s)

    def _executor(self):
        """The FIFO execution loop (one job at a time)."""
        while True:
            job = yield self.queue.get()
            self.current_job = job
            self.fleet.report(self.fleet_slot, self._outstanding_jobs, len(self.queue))
            self.policy.on_state_changed((job.repo_id,))
            started = self.sim.now
            self.metrics.job_started(started, job, self.name)
            if self.monitor is not None:
                self.monitor.on_job_started(job.job_id, self.name, started)
            try:
                yield from self._execute(job)
            except Interrupt as interrupt:
                if interrupt.cause == "migrate-checkpoint":
                    # The running job was checkpointed out from under us;
                    # :meth:`checkpoint_jobs` already settled every
                    # counter synchronously before this throw fired, so
                    # just move on to the next queued job.
                    continue
                # Killed mid-job; kill() already reported the orphans.
                return
            elapsed = self.sim.now - started
            self.current_job = None
            self._outstanding_jobs -= 1
            self.unfinished.pop(job.job_id, None)
            self.fleet.report(self.fleet_slot, self._outstanding_jobs, len(self.queue))
            self.policy.on_job_finished(job, elapsed)
            ctx = None
            if self.obs is not None:
                ctx = self._assign_ctxs.pop(job.job_id, None)
            self.send_to_master(
                JobCompleted(job=job, worker=self.name, elapsed_s=elapsed, ctx=ctx)
            )
            if self.is_idle:
                self._wake_idle_waiters()

    def _execute(self, job: Job):
        """Run one job: ensure data locality, then process."""
        if job.repo_id is not None:
            inflight = self._prefetch_inflight.get(job.repo_id)
            if inflight is not None and not inflight.processed:
                # The prefetcher is mid-download of exactly this clone:
                # wait for it rather than starting a duplicate transfer.
                yield inflight
            if job.job_id in self._prefetch_credit:
                # The prefetcher already accounted this job's miss and
                # download; just refresh the clone's recency.
                self._prefetch_credit.discard(job.job_id)
                self.cache.lookup(job.repo_id)
            elif self.cache.lookup(job.repo_id):
                self.metrics.record_cache_hit(self.sim.now, self.name, job)
                if self.monitor is not None:
                    self.monitor.on_cache_hit(self.name, job.repo_id, self.sim.now)
            else:
                self.metrics.record_cache_miss(self.sim.now, self.name, job)
                yield from self.machine.download(job.size_mb)
                self.cache.insert(job.repo_id, job.size_mb)
                self.policy.on_state_changed((job.repo_id,))
                self.metrics.record_download(self.sim.now, self.name, job, job.size_mb)
                if self.monitor is not None:
                    self.monitor.on_cache_fetch(self.name, job.repo_id, self.sim.now)
        task = self.pipeline.task_of(job) if self.pipeline is not None else None
        if task is not None and task.sim_work is not None:
            yield self.sim.process(task.sim_work(job, self.machine, self.sim))
        yield from self.machine.process(job.size_mb, job.base_compute_s)

    def _prefetcher(self):
        """Download queued jobs' clones ahead of execution (extension).

        Uses the link's idle time while the executor is CPU-bound; the
        link itself is serialised, so a prefetch never contends with the
        executor's own download -- whichever starts first runs, and the
        other waits its turn.
        """
        while True:
            # Background yields to foreground: a zero-delay step lets any
            # same-instant executor activity (which schedules at URGENT
            # priority) register its link request first, so the priority
            # ordering on the link mutex can actually take effect.
            try:
                yield self.sim.sleep(0.0)
            except Interrupt:
                return
            target = self._next_prefetch_target()
            if target is None:
                self._prefetch_signal = Event(self.sim)
                try:
                    yield self._prefetch_signal
                except Interrupt:
                    return
                continue
            done = Event(self.sim)
            self._prefetch_inflight[target.repo_id] = done
            self.metrics.record_cache_miss(self.sim.now, self.name, target)
            try:
                yield from self.machine.download(target.size_mb, priority=1)
            except Interrupt:
                done.succeed()
                return
            self.cache.insert(target.repo_id, target.size_mb)
            self.policy.on_state_changed((target.repo_id,))
            self.metrics.record_download(
                self.sim.now, self.name, target, target.size_mb
            )
            if self.monitor is not None:
                self.monitor.on_cache_fetch(self.name, target.repo_id, self.sim.now)
            self._prefetch_credit.add(target.job_id)
            del self._prefetch_inflight[target.repo_id]
            done.succeed()

    def _next_prefetch_target(self) -> Optional[Job]:
        """The first queued job needing a clone that is neither cached
        nor already being fetched."""
        executing_repo = (
            self.current_job.repo_id if self.current_job is not None else None
        )
        for item in self.queue.items:
            if not isinstance(item, Job) or item.repo_id is None:
                continue
            if item.repo_id in self._prefetch_inflight:
                continue
            if item.repo_id == executing_repo:
                # The executor is (or will shortly be) fetching this very
                # clone; duplicating it would waste the link.
                continue
            if self.cache.peek(item.repo_id):
                continue
            return item
        return None

    # -- live reconfiguration (repro.reconfig) --------------------------------

    def _on_migrate_request(self, request: MigrateRequest) -> None:
        """Checkpoint jobs and always answer with a :class:`MigrateAck`.

        The ack travels even when empty so the controller can settle the
        migration without a timeout on the happy path.
        """
        jobs = self.checkpoint_jobs(request.max_jobs, request.include_running)
        self.send_to_master(MigrateAck(worker=self.name, jobs=tuple(jobs)))

    def checkpoint_jobs(self, max_jobs: int = 1, include_running: bool = False) -> list:
        """Release up to ``max_jobs`` jobs for migration, youngest first.

        Queued jobs are popped from the *tail* of the FIFO queue (the
        least-committed work; the head may already have a prefetched
        clone waiting for it).  With ``include_running`` the running job
        is preempted too: its partial download/compute is abandoned and
        it reruns from scratch on the target -- execution is
        deterministic given the job, so no output is lost.  All local
        bookkeeping (committed cost, outstanding count, prefetch credit,
        span contexts) is settled synchronously here, before the
        executor's interrupt fires, so the node never transits an
        inconsistent state.
        """
        taken: list[Job] = []
        while (
            len(taken) < max_jobs
            and self.queue.items
            and isinstance(self.queue.items[-1], Job)
        ):
            # Safe to pop items directly: a blocked executor ``get``
            # implies the item list is empty (Store semantics), so a
            # non-empty list means nobody is waiting on it.
            taken.append(self.queue.items.pop())
        if include_running and len(taken) < max_jobs and self.current_job is not None:
            job = self.current_job
            self.current_job = None
            taken.append(job)
            if self._exec_proc is not None and self._exec_proc.is_alive:
                self._exec_proc.interrupt("migrate-checkpoint")
        now = self.sim.now
        for job in taken:
            self.unfinished.pop(job.job_id, None)
            self._outstanding_jobs -= 1
            self._prefetch_credit.discard(job.job_id)
            self._assign_ctxs.pop(job.job_id, None)
            self.metrics.trace.record(now, "migrate_checkpoint", job.job_id, self.name)
            if self.monitor is not None:
                self.monitor.on_migration_checkpoint(job.job_id, self.name, now)
        if taken:
            self.fleet.report(self.fleet_slot, self._outstanding_jobs, len(self.queue))
            self.policy.on_state_changed([job.repo_id for job in taken])
            if self.is_idle:
                self._wake_idle_waiters()
        return taken

    def swap_policy(self, policy: "WorkerPolicy", stale_ok: tuple = ()) -> None:
        """Install a successor worker-side policy mid-run (hot-swap).

        The previous policy is detached via its kill cleanup (releasing
        e.g. a bidding announce subscription); its long-running loops
        notice ``worker.policy is not self`` and exit.  ``stale_ok``
        lists the old protocol's control message types to
        tolerate-and-drop while their in-flight tail drains.
        """
        old = self.policy
        self.policy = policy
        self._stale_ok = tuple(stale_ok)
        old.on_killed()
        policy.bind(self)
        policy.start()

    def _wake_idle_waiters(self) -> None:
        waiters, self._idle_waiters = self._idle_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()

    def begin_drain(self) -> None:
        """Enter draining mode (scale-down).  Unlike :meth:`kill`, the
        node stays alive: queued and running jobs complete normally and
        are reported to the master; only *new* work is refused by the
        policies.  Idempotent."""
        self.draining = True
        self.policy.on_drain()

    # -- failure injection (extension) ---------------------------------------

    def kill(self) -> None:
        """Fault-injection: the node dies, orphaning queued/running jobs.

        Reports a :class:`WorkerFailure` so the master *can* reallocate
        when fault tolerance is enabled; with the paper's default (no
        fault tolerance) the orphans are simply lost.
        """
        if not self.alive:
            return
        self.alive = False
        orphaned: list[Job] = []
        if self.current_job is not None:
            orphaned.append(self.current_job)
        orphaned.extend(job for job in self.queue.items if isinstance(job, Job))
        self.queue.items.clear()
        self.unfinished.clear()
        self._outstanding_jobs = 0
        self.fleet.report(self.fleet_slot, 0, 0)
        self.fleet.set_alive(self.fleet_slot, False)
        if self._exec_proc is not None and self._exec_proc.is_alive:
            if self.current_job is not None:
                self._exec_proc.interrupt("worker-killed")
        if self._prefetch_proc is not None and self._prefetch_proc.is_alive:
            self._prefetch_proc.interrupt("worker-killed")
        self.policy.on_killed()
        self.send_to_master(WorkerFailure(worker=self.name, orphaned=tuple(orphaned)))
