"""The master node runtime.

The master performs Crossflow's framework duties -- job intake from the
source stream, result collection, downstream-job expansion through the
pipeline, and termination detection -- while delegating every
*allocation* decision to the plugged
:class:`~repro.schedulers.base.MasterPolicy`.

Termination: the workflow is complete when the source stream is
exhausted and no submitted job remains unfinished; :attr:`Master.done`
fires at that moment, and the end-to-end execution time metric is read
off the simulation clock (Section 6.1 metric 1).

Fault handling (robustness extension): when recovery is enabled the
master re-dispatches orphaned jobs with a retry budget and exponential
backoff, guards completions with an at-most-once filter (a re-dispatched
job may still be finished by its original owner, e.g. after a straggler
timeout fired early), and -- when recovery is *disabled*, the paper's
default -- explicitly fails orphans so the run terminates in a
diagnosable state (:attr:`Master.failed_jobs`) instead of stalling until
the deadline guard trips.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.engine.messages import (
    TOPIC_ANNOUNCE,
    TOPIC_MASTER,
    Assignment,
    Hello,
    JobCompleted,
    MigrateAck,
    WorkerFailure,
    is_reliable,
    worker_topic,
)
from repro.faults.plan import RecoveryConfig
from repro.fleet import FleetState, JobAgeTable
from repro.hooks import Hooks
from repro.metrics.collector import MetricsCollector
from repro.net.broker import Mailbox
from repro.net.topology import Topology
from repro.sim.events import Event
from repro.sim.kernel import TimerHandle
from repro.workload.job import Job, JobStream
from repro.workload.pipeline import Pipeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.schedulers.base import MasterPolicy
    from repro.sim.kernel import Simulator


class Master:
    """The master node: intake, result collection, termination.

    Parameters
    ----------
    sim, topology, metrics, fleet:
        Shared run infrastructure; the membership methods below keep
        the fleet's active plane equal to :attr:`active_workers`.  The
        collector is here for the policies to read; it hears of the
        run only through ``hooks``.
    pipeline:
        The workflow graph used to expand completions into child jobs.
    policy:
        The master-side allocation strategy; bound here.
    worker_names:
        The fleet the run starts with.  The active set starts full --
        master and workers boot together in the paper's setup.  It
        shrinks on worker failure or on an explicit :meth:`retire_worker`
        (the service layer's scale-down path) and grows via
        :meth:`add_worker` (scale-up).
    stream:
        The source job stream, or ``None`` for *external intake*: jobs
        are pushed through :meth:`submit` by a driver (the open-loop
        service runtime), which must call :meth:`finish_intake` once no
        further submissions will come.
    rng:
        Randomness for policy fallbacks (e.g. the Bidding Scheduler's
        "assign to an arbitrary node" rule).
    fault_tolerance:
        Extension flag; the paper's default is ``False`` (orphaned jobs
        of a dead worker are lost -- they are recorded in
        :attr:`failed_jobs` so the run terminates diagnosably).
        ``True`` is shorthand for ``recovery=RecoveryConfig()``.
    recovery:
        Full recovery policy (retry budget, backoff, straggler
        timeout); overrides ``fault_tolerance`` when given.
    hooks:
        The run's observer seams (see :mod:`repro.hooks`); the master
        emits a job's lifecycle on them.
    """

    def __init__(
        self,
        sim: "Simulator",
        topology: Topology,
        pipeline: Pipeline,
        policy: "MasterPolicy",
        worker_names: list[str],
        stream: Optional[JobStream],
        metrics: MetricsCollector,
        fleet: FleetState,
        rng: Optional[np.random.Generator] = None,
        fault_tolerance: bool = False,
        recovery: Optional[RecoveryConfig] = None,
        hooks: Optional[Hooks] = None,
    ) -> None:
        if not worker_names:
            raise ValueError("a run needs at least one worker")
        self.sim = sim
        self.topology = topology
        self.pipeline = pipeline
        self.policy = policy
        self.metrics = metrics
        self.fleet = fleet
        self.stream = stream
        self.rng = rng if rng is not None else np.random.default_rng(0)
        if recovery is None and fault_tolerance:
            recovery = RecoveryConfig()
        self.recovery = recovery
        self.fault_tolerance = recovery is not None
        self.hooks = hooks if hooks is not None else Hooks()

        self.name = "master"
        self.inbox = topology.subscribe(TOPIC_MASTER, self.name)
        self.inbox.owner = Mailbox(sim, self._handle)
        self.worker_names = list(worker_names)
        self.active_workers: list[str] = list(worker_names)
        for name in worker_names:
            fleet.on_join(name)
        self.outstanding = 0
        self.intake_done = False
        #: Fires when the workflow has fully completed.
        self.done: Event = Event(sim)
        #: job_id -> worker, filled as assignments are decided.
        self.assignments: dict[str, str] = {}
        #: Results of sink jobs (job_id -> JobCompleted) for inspection.
        self.completions: dict[str, JobCompleted] = {}
        #: job_id -> reason for jobs declared permanently failed.
        self.failed_jobs: dict[str, str] = {}
        self._completed_ids: set[str] = set()
        self._redispatch_counts: dict[str, int] = {}
        #: In-flight assignments (job, worker, assigned-at); feeds orphan
        #: recovery and the straggler monitor.
        self._assigned_at = JobAgeTable()
        #: The source stream's iterator and the one timer that sleeps
        #: from arrival to arrival (stream-driven runs only).
        self._arrivals = iter(()) if stream is None else iter(stream)
        self._intake_timer = TimerHandle()
        #: Re-armed straggler-scan timer (set in :meth:`start` when the
        #: recovery policy enables a re-dispatch timeout).
        self._straggler_timer = None
        #: Callable ``(ack: MigrateAck) -> None`` routing checkpointed
        #: jobs to their rebind targets; installed by the
        #: :class:`~repro.reconfig.ReconfigController` when live
        #: reconfiguration is active.
        self.migration_router = None
        #: Message types tolerated (dropped on ``swap_stale_drop``) when the
        #: active policy does not consume them -- the previous policy's
        #: in-flight control traffic after a hot-swap.  Empty outside
        #: swaps, so the unhandled-message error stays strict.
        self._stale_ok: tuple[type, ...] = ()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind the policy, start intake and open the inbox."""
        self.policy.bind(self)
        for hook in self.hooks.run_started:
            hook(self.sim.now)
        if self.policy.requires_upfront and self.stream is not None:
            self.policy.on_upfront_jobs(self.stream.jobs)
        self.policy.start()
        if self.stream is not None:
            self.sim.call_soon(self._intake)
        self.inbox.owner.start()
        if self.recovery is not None and self.recovery.redispatch_timeout_s is not None:
            # Direct-callback timer: the monitor re-arms itself each tick
            # instead of living as a perpetual generator process.
            self._straggler_timer = self.sim.call_later(
                self.recovery.redispatch_timeout_s / 2, self._straggler_tick
            )

    # -- helpers the policies drive --------------------------------------------

    def assign(self, job: Job, worker: str) -> None:
        """Bind ``job`` to ``worker`` and ship it (push-style policies)."""
        self._note_assignment(job, worker)
        self.send_to_worker(worker, Assignment(job=job))

    def note_external_assignment(self, job: Job, worker: str) -> None:
        """Record an allocation decided worker-side (pull-style accept)."""
        self._note_assignment(job, worker)

    def _note_assignment(self, job: Job, worker: str) -> None:
        """The one assignment seam, push- and pull-style alike: the
        real backend's plan capture and the decision ledger read the
        policy's decisions here without knowing its family."""
        if worker not in self.fleet.slots:
            raise ValueError(f"assignment to unknown worker {worker!r}")
        self.assignments[job.job_id] = worker
        self._assigned_at.add(job.job_id, job, worker, self.sim.now)
        for hook in self.hooks.assigned:
            hook(job, worker, self.policy, self.sim.now)

    def send_to_worker(self, worker: str, message: object) -> None:
        """Point-to-point message to one worker (persistent delivery for
        job-carrying messages; see :func:`repro.engine.messages.is_reliable`)."""
        self.topology.broker.publish(
            worker_topic(worker),
            message,
            reliable=is_reliable(message),
            sender=self.name,
        )

    def broadcast(self, message: object) -> None:
        """Announce to every worker (the bidding contest channel)."""
        self.topology.broker.publish(
            TOPIC_ANNOUNCE,
            message,
            reliable=is_reliable(message),
            sender=self.name,
        )

    # -- fleet membership (service-layer elasticity) -----------------------

    def add_worker(self, name: str) -> None:
        """Admit a new worker into the fleet (scale-up).

        Must be called *before* the node's :meth:`WorkerNode.start`, so
        its ``Hello`` finds the name registered.  The policy is notified
        through :meth:`~repro.schedulers.base.MasterPolicy.on_worker_joined`.
        """
        if name in self.worker_names:
            raise ValueError(f"worker {name!r} already registered")
        self.worker_names.append(name)
        self.active_workers.append(name)
        self.fleet.on_join(name)
        for hook in self.hooks.worker_joined:
            hook(name, self.sim.now)
        self.policy.on_worker_joined(name)

    def retire_worker(self, name: str) -> None:
        """Remove a worker from the *active* set (scale-down drain start).

        The name stays in ``worker_names`` -- jobs the node already holds
        are still its to finish -- but policies stop routing new work to
        it.  The policy is notified through
        :meth:`~repro.schedulers.base.MasterPolicy.on_worker_retired`.
        """
        if name not in self.active_workers:
            raise ValueError(f"worker {name!r} is not active")
        self.active_workers.remove(name)
        self.fleet.on_retire(name)
        for hook in self.hooks.worker_retired:
            hook(name, self.sim.now)
        self.policy.on_worker_retired(name)

    def revive_worker(self, name: str) -> None:
        """Re-admit a restarted worker into the active set.

        The name must already be registered (restart, not scale-up);
        must be called before the fresh node's :meth:`WorkerNode.start`.
        """
        if name not in self.worker_names:
            raise ValueError(f"cannot revive unknown worker {name!r}")
        if name in self.active_workers:
            raise ValueError(f"worker {name!r} is already active")
        self.active_workers.append(name)
        self.fleet.on_join(name)
        for hook in self.hooks.worker_restarted:
            hook(name, self.sim.now)
        self.policy.on_worker_joined(name)

    def swap_policy(self, policy: "MasterPolicy", stale_ok: tuple = ()) -> None:
        """Install a successor allocation policy mid-run (hot-swap).

        The caller (:class:`~repro.reconfig.ReconfigController`) owns the
        protocol: quiesce the old policy, export its state, call this,
        then import the state into ``policy``.  ``stale_ok`` lists the
        old protocol's control message types to tolerate-and-drop while
        their in-flight tail drains.  The successor is bound and started
        against the *current* fleet; upfront-style policies fall back to
        their streaming path for jobs imported mid-run.
        """
        self.policy = policy
        self._stale_ok = tuple(stale_ok)
        policy.bind(self)
        policy.start()

    def arbitrary_worker(self) -> str:
        """The fallback pick when a policy must choose blindly."""
        if not self.active_workers:
            raise RuntimeError("no active workers left")
        index = int(self.rng.integers(len(self.active_workers)))
        return self.active_workers[index]

    # -- intake ------------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Accept a job into the workflow (source arrival or child)."""
        self.outstanding += 1
        for hook in self.hooks.submitted:
            hook(job.job_id, self.sim.now)
        task = self.pipeline.task_of(job)
        if task.on_master:
            # Master-side tasks (cheap aggregation sinks) run inline.
            children = self.pipeline.on_completion(job)
            self._complete(job, worker=None)
            for child in children:
                self.submit(child)
        else:
            self.policy.on_job(job)

    def _intake(self, due: Optional[Job] = None) -> None:
        """Feed the source stream into the workflow at its arrival
        times: submit what is due, then sleep until the next arrival."""
        if due is not None:
            self.submit(due)
        for arrival in self._arrivals:
            delay = arrival.at - self.sim.now
            if delay > 0:
                self.sim.call_later(delay, self._intake, arrival.job, handle=self._intake_timer)
                return
            self.submit(arrival.job)
        self.finish_intake()

    def finish_intake(self) -> None:
        """Declare that no further source submissions will arrive.

        Stream-driven runs call this from the intake process; external
        (service) intake calls it once its arrival window has closed and
        every admitted job has been submitted.  Completion of the last
        outstanding job then fires :attr:`done`.
        """
        self.intake_done = True
        self._check_done()

    # -- message handling ------------------------------------------------------

    def _handle(self, message: object) -> None:
        """One inbox message (the mailbox calls this, one per turn)."""
        if isinstance(message, Hello):
            if message.worker not in self.fleet.slots:
                raise RuntimeError(f"Hello from unknown worker {message.worker!r}")
        elif isinstance(message, JobCompleted):
            self._on_completed(message)
        elif isinstance(message, WorkerFailure):
            self._on_worker_failure(message)
        elif isinstance(message, MigrateAck):
            self._on_migrate_ack(message)
        elif self.policy.on_message(message):
            pass
        elif self._stale_ok and isinstance(message, self._stale_ok):
            # Hot-swap residue: control traffic addressed to the
            # previous policy.  Dropping is safe -- quiesce drained
            # every job-carrying exchange before the swap.
            for hook in self.hooks.swap_stale_drop:
                hook(getattr(message, "worker", None), message, self.sim.now)
        else:
            raise RuntimeError(
                f"master: unhandled message {message!r} under policy "
                f"{type(self.policy).__name__}"
            )

    def _on_migrate_ack(self, message: MigrateAck) -> None:
        """Route checkpointed jobs to the migration controller."""
        if self.migration_router is not None:
            self.migration_router(message)
            return
        if message.jobs:
            # Checkpointed jobs with nobody to rebind them would be lost.
            raise RuntimeError(
                f"MigrateAck from {message.worker!r} carrying "
                f"{len(message.jobs)} job(s) but no migration router is installed"
            )

    def _on_completed(self, message: JobCompleted) -> None:
        job = message.job
        # At-most-once guard: after a re-dispatch the original owner may
        # still deliver (straggler timeout fired early, or a partition
        # healed and flushed a held completion).  Only the first result
        # counts; duplicates must not expand children or decrement
        # ``outstanding`` a second time.
        if job.job_id in self._completed_ids or job.job_id in self.failed_jobs:
            for hook in self.hooks.duplicate_completion:
                hook(job.job_id, message.worker, self.sim.now)
            if self.recovery is None and job.job_id in self._completed_ids:
                # Without recovery nothing is ever re-dispatched, so a
                # second completion is an engine bug, not a race.
                raise RuntimeError(
                    f"job {job.job_id!r} completed more times than submitted"
                )
            return
        self._completed_ids.add(job.job_id)
        self._assigned_at.remove(job.job_id)
        children = self.pipeline.on_completion(job)
        self.policy.on_job_completed(job, message.worker)
        # Submit children *before* completing the parent: outstanding must
        # never dip to zero while an expansion is still pending, or the
        # workflow would be declared done with work left.
        for child in children:
            self.submit(child)
        self._complete(job, message.worker, message)

    def _complete(
        self, job: Job, worker: Optional[str], message: Optional[JobCompleted] = None
    ) -> None:
        self.outstanding -= 1
        if self.outstanding < 0:
            raise RuntimeError(f"job {job.job_id!r} completed more times than submitted")
        for hook in self.hooks.completed:
            hook(job, worker, self.sim.now)
        if message is not None:
            self.completions[job.job_id] = message
        self._check_done()

    def _on_worker_failure(self, message: WorkerFailure) -> None:
        if message.worker in self.active_workers:
            self.active_workers.remove(message.worker)
            self.fleet.on_fail(message.worker)
        orphans = [
            job
            for job in message.orphaned
            if job.job_id not in self._completed_ids
            and job.job_id not in self.failed_jobs
        ]
        if self.recovery is None:
            # The paper: "no specific policies in place to handle ...
            # a worker dying after winning a bid".  Orphans are lost --
            # but explicitly: each is declared failed so the run reaches
            # a diagnosable terminal state instead of stalling until the
            # deadline guard fires.
            for job in orphans:
                self._fail_job(job, "worker failed; fault tolerance disabled")
            return
        # A job on nobody's books whose last holder was not this worker
        # was only *offered* to it: the dead node bounced the ``JobOffer``
        # and the pull policy took the job back with the failure report;
        # recovering it here as well would run it twice.
        orphans = [
            job
            for job in orphans
            if job.job_id in self._assigned_at
            or self.assignments.get(job.job_id) == message.worker
        ]
        for job in orphans:
            for hook in self.hooks.orphaned:
                hook(job.job_id, message.worker, self.sim.now)
        # Policies get the failure for *bookkeeping* (drop plans, close
        # contests); the master owns the actual re-dispatch below.
        self.policy.on_worker_failed(message.worker, orphans)
        for job in orphans:
            self._recover_orphan(job)

    # -- recovery ----------------------------------------------------------

    def _recover_orphan(self, job: Job) -> None:
        """Re-dispatch an orphan through the policy, within the budget."""
        self._assigned_at.remove(job.job_id)
        if job.job_id in self._completed_ids or job.job_id in self.failed_jobs:
            return
        attempts = self._redispatch_counts.get(job.job_id, 0)
        if attempts >= self.recovery.max_redispatches:
            self._fail_job(job, f"retry budget exhausted ({attempts} re-dispatches)")
            return
        self._redispatch_counts[job.job_id] = attempts + 1
        for hook in self.hooks.redispatched:
            hook(job.job_id, self.sim.now)
        delay = self.recovery.backoff_base_s * self.recovery.backoff_factor**attempts
        if delay <= 0:
            self._redispatch_if_unresolved(job)
            return
        self.sim.call_later(delay, self._redispatch_if_unresolved, job)

    def _redispatch_if_unresolved(self, job: Job) -> None:
        """Backoff-timer callback: hand the orphan back to the policy."""
        if job.job_id in self._completed_ids or job.job_id in self.failed_jobs:
            return
        if not self.active_workers:
            # The whole fleet is down (or every failure report beat the
            # restarts in): the policy has nowhere to send the job, so
            # retry after the base backoff instead of crashing it.
            self.sim.call_later(
                self.recovery.backoff_base_s, self._redispatch_if_unresolved, job
            )
            return
        self.policy.on_job(job)

    def _fail_job(self, job: Job, reason: str) -> None:
        """Declare ``job`` permanently failed and release its slot."""
        if job.job_id in self.failed_jobs or job.job_id in self._completed_ids:
            return
        self.failed_jobs[job.job_id] = reason
        self._assigned_at.remove(job.job_id)
        for hook in self.hooks.failed:
            hook(job, reason, self.sim.now)
        self.outstanding -= 1
        self._check_done()

    def _straggler_tick(self) -> None:
        """Re-dispatch assignments outstanding past the timeout.

        This is the path that can create genuine duplicates (the slow
        original may still finish) -- which the at-most-once guard in
        :meth:`_on_completed` absorbs.  Runs on a self-re-arming
        :class:`~repro.sim.kernel.TimerHandle` every half timeout.
        """
        timeout = self.recovery.redispatch_timeout_s
        now = self.sim.now
        for job, worker in self._assigned_at.overdue(now, timeout):
            for hook in self.hooks.orphaned:
                hook(job.job_id, worker, now)
            self._recover_orphan(job)
        self.sim.call_later(timeout / 2, self._straggler_tick, handle=self._straggler_timer)

    def _check_done(self) -> None:
        if self.intake_done and self.outstanding == 0 and not self.done.triggered:
            self.policy.on_run_finished()
            for hook in self.hooks.run_finished:
                hook(self.sim.now)
            self.done.succeed(self.sim.now)
