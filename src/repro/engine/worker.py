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

from collections import deque
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
from repro.net.link import Transfer
from repro.net.topology import Topology
from repro.sim.events import Event
from repro.sim.kernel import TimerHandle
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
        #: Accepted jobs whose turn has not come, oldest first.
        self.queue: deque[Job] = deque()
        #: job_id -> estimated cost of every assigned-but-unfinished job.
        self.unfinished: dict[str, float] = {}
        #: The job currently executing (None when between jobs).
        self.current_job: Optional[Job] = None
        #: Jobs accepted but not yet completed.  This -- not the queue
        #: length -- defines idleness: the next job leaves the queue one
        #: turn before it starts, and the worker must not look idle in
        #: that window.
        self._outstanding_jobs = 0
        self.alive = True
        #: Scale-down drain (service layer): a draining worker finishes
        #: the jobs it already holds but stops competing for new ones --
        #: policies consult this flag before bidding or pulling.
        self.draining = False
        self._idle_waiters: list[Event] = []
        #: The executor (see *The work path* in ARCHITECTURE section 3):
        #: the one timer its turns are armed on, whether it waits for an
        #: enqueue, the job whose turn is armed but has not come, when
        #: the running job started, and what the running job waits for
        #: that is not on ``_turn`` -- its download, the prefetch of its
        #: clone, its task's ``sim_work`` process.
        self._turn = TimerHandle()
        self._parked = False
        self._handoff: Optional[Job] = None
        self._started_at = 0.0
        self._download: Optional[Transfer] = None
        self._awaits_prefetch = False
        self._sim_work: Optional[Event] = None
        #: Prefetch extension: download queued jobs' repositories while
        #: the CPU processes earlier jobs (off = the paper's strictly
        #: serial download-then-process execution).  A second machine of
        #: the same kind: its own timer, whether it waits for an enqueue,
        #: the job whose clone it is fetching, and that transfer.
        self.prefetch = prefetch
        self._prefetch_turn = TimerHandle()
        self._prefetch_parked = False
        self._prefetching: Optional[Job] = None
        self._prefetch_download: Optional[Transfer] = None
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
        """Register with the master, open the inbox and start the
        executor."""
        self.policy.bind(self)
        self.send_to_master(Hello(worker=self.name))
        self.inbox.owner.start()
        self.sim.call_soon(self._next)
        if self.prefetch:
            self.sim.call_soon(self._prefetch_defer)
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
        for job in self.queue:
            if job.repo_id is not None:
                repos.add(job.repo_id)
        return repos

    def will_hold(self, repo_id: str) -> bool:
        """``repo_id in pending_repos()`` without building the set."""
        if self.cache.peek(repo_id):
            return True
        if self.current_job is not None and self.current_job.repo_id == repo_id:
            return True
        return any(job.repo_id == repo_id for job in self.queue)

    # -- job intake ----------------------------------------------------------

    def enqueue(self, job: Job, estimated_cost: float = 0.0) -> None:
        """Append a job to the FIFO queue with its committed-cost estimate."""
        if not self.alive:
            raise RuntimeError(f"worker {self.name} is dead")
        if self.monitor is not None:
            self.monitor.on_enqueued(job.job_id, self.name, self.sim.now)
        self.unfinished[job.job_id] = estimated_cost
        self._outstanding_jobs += 1
        if self._parked:
            self._parked = False
            self._hand_off(job)
        else:
            self.queue.append(job)
        self.fleet.report(self.fleet_slot, self._outstanding_jobs, len(self.queue))
        if self._prefetch_parked:
            self._prefetch_parked = False
            sim = self.sim
            sim.call_at(sim.now, self._prefetch_defer, handle=self._prefetch_turn)

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

    # -- the executor: park -> begin -> (hit | miss -> link) -> compute -> finish

    def _next(self) -> None:
        """Ready for a job: the oldest queued one gets its turn, or the
        executor parks until :meth:`enqueue` hands it one."""
        if self.queue:
            self._hand_off(self.queue.popleft())
        else:
            self._parked = True

    def _hand_off(self, job: Job) -> None:
        self._handoff = job
        sim = self.sim
        sim.call_at(sim.now, self._begin, handle=self._turn)

    def _begin(self) -> None:
        """The job's turn has come: it is the running job from here on."""
        job, self._handoff = self._handoff, None
        self.current_job = job
        self.fleet.report(self.fleet_slot, self._outstanding_jobs, len(self.queue))
        self.policy.on_state_changed((job.repo_id,))
        self._started_at = started = self.sim.now
        self.metrics.job_started(started, job, self.name)
        if self.monitor is not None:
            self.monitor.on_job_started(job.job_id, self.name, started)
        if job.repo_id is None:
            self._compute()
        elif self._prefetching is not None and self._prefetching.repo_id == job.repo_id:
            # The prefetcher is mid-download of exactly this clone:
            # wait for it rather than starting a duplicate transfer.
            self._awaits_prefetch = True
        else:
            self._localise()

    def _localise(self) -> None:
        """Ensure data locality: the clone is here, or is downloaded."""
        job = self.current_job
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
            self._download = self.machine.download(job.size_mb, 0, self._downloaded)
            return
        self._compute()

    def _downloaded(self, _elapsed: float) -> None:
        self._download = None
        self._store_clone(self.current_job)
        self._compute()

    def _store_clone(self, job: Job) -> None:
        self.cache.insert(job.repo_id, job.size_mb)
        self.policy.on_state_changed((job.repo_id,))
        self.metrics.record_download(self.sim.now, self.name, job, job.size_mb)
        if self.monitor is not None:
            self.monitor.on_cache_fetch(self.name, job.repo_id, self.sim.now)

    def _compute(self) -> None:
        """Process the job: its task's simulated-work hook first (the
        one thing the executor still starts as a process), then the scan."""
        job = self.current_job
        task = self.pipeline.task_of(job) if self.pipeline is not None else None
        if task is not None and task.sim_work is not None:
            self._sim_work = self.sim.process(task.sim_work(job, self.machine, self.sim))
            self._sim_work.callbacks.append(self._scan)
        else:
            self._scan()

    def _scan(self, sim_work: Optional[Event] = None) -> None:
        if sim_work is not None:
            if sim_work is not self._sim_work or not sim_work.ok:
                # The job it worked for is gone (killed or checkpointed),
                # or the hook raised: the simulator surfaces that.
                return
            self._sim_work = None
        job = self.current_job
        self.machine.process(job.size_mb, job.base_compute_s, self._finish, self._turn)

    def _finish(self, _duration: float) -> None:
        job = self.current_job
        elapsed = self.sim.now - self._started_at
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
        self._next()

    def _abandon_job(self) -> None:
        """Stop working on whatever the executor holds (the node died,
        or the running job was checkpointed away).  A download is left
        to the link, a ``sim_work`` process to itself: both run on with
        nobody waiting for them."""
        self._turn.cancel()
        self._awaits_prefetch = False
        self._sim_work = None
        if self._download is not None:
            self._download.abandon()
            self._download = None

    # -- the prefetcher: defer -> scan -> (park | miss -> link) -> defer

    def _prefetch_defer(self) -> None:
        """Background yields to foreground: a zero-delay step lets any
        same-instant executor activity register its link request first,
        so the priority ordering on the link can actually take effect."""
        sim = self.sim
        sim.call_at(sim.now, self._prefetch_scan, handle=self._prefetch_turn)

    def _prefetch_scan(self) -> None:
        """Download a queued job's clone ahead of its execution
        (extension), using the link's idle time while the executor is
        CPU-bound; the link itself is serialised, so a prefetch never
        contends with the executor's own download -- whichever starts
        first runs, and the other waits its turn."""
        target = self._next_prefetch_target()
        if target is None:
            self._prefetch_parked = True
            return
        self._prefetching = target
        self.metrics.record_cache_miss(self.sim.now, self.name, target)
        self._prefetch_download = self.machine.download(target.size_mb, 1, self._prefetched)

    def _prefetched(self, _elapsed: float) -> None:
        target = self._prefetching
        self._store_clone(target)
        self._prefetch_credit.add(target.job_id)
        self._prefetching = self._prefetch_download = None
        if self._awaits_prefetch:
            self._awaits_prefetch = False
            sim = self.sim
            sim.call_at(sim.now, self._localise, handle=self._turn)
        self._prefetch_defer()

    def _next_prefetch_target(self) -> Optional[Job]:
        """The first queued job needing a clone that is neither cached
        nor already being fetched."""
        executing_repo = (
            self.current_job.repo_id if self.current_job is not None else None
        )
        for job in self.queue:
            if job.repo_id is None:
                continue
            if job.repo_id == executing_repo:
                # The executor is (or will shortly be) fetching this very
                # clone; duplicating it would waste the link.
                continue
            if self.cache.peek(job.repo_id):
                continue
            return job
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
        span contexts) is settled synchronously here, and the executor
        turns to its next job before anything else of this instant runs.
        """
        taken: list[Job] = []
        while len(taken) < max_jobs and self.queue:
            taken.append(self.queue.pop())
        if include_running and len(taken) < max_jobs and self.current_job is not None:
            taken.append(self.current_job)
            self.current_job = None
            self._abandon_job()
            self.sim.call_soon(self._next)
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
        if self._handoff is not None:
            # Its turn is armed but has not come: in neither the queue
            # nor ``current_job``, and as lost as they are.
            orphaned.append(self._handoff)
            self._handoff = None
        orphaned.extend(self.queue)
        self.queue.clear()
        self.unfinished.clear()
        self._outstanding_jobs = 0
        self.fleet.report(self.fleet_slot, 0, 0)
        self.fleet.set_alive(self.fleet_slot, False)
        self._abandon_job()
        self._prefetch_turn.cancel()
        if self._prefetch_download is not None:
            self._prefetch_download.abandon()
        self.policy.on_killed()
        self.send_to_master(WorkerFailure(worker=self.name, orphaned=tuple(orphaned)))
