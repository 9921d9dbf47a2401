"""Executes a :class:`~repro.reconfig.plan.ReconfigPlan` against a live run.

The controller is wired by the runtime (workflow or service) after the
master and workers exist and is started alongside the fault injector.
Each plan entry is a callback machine whose turns take the heap
positions a generator process per entry would (ARCHITECTURE section 12):

**Migration** -- send the source a
:class:`~repro.engine.messages.MigrateRequest`; the worker checkpoints
up to ``max_jobs`` queued (and optionally the running) jobs
synchronously -- all bookkeeping settled before anything else runs --
and answers with a reliable :class:`~repro.engine.messages.MigrateAck`.
Each checkpointed job is rebound to a locality-aware target (pre-warming
its cache out-of-band when asked) through the master's ordinary
``assign`` path, so the at-most-once completion guard and orphan
re-dispatch cover the handoff exactly as they cover fresh assignments:

* source dies *before* the request lands: nothing was checkpointed, the
  ack never comes (bounded by ``ack_timeout_s``), and the dead worker's
  jobs recover through ``WorkerFailure`` orphan re-dispatch;
* source dies *after* acking: the ack is reliable, the jobs travel in
  it, the rebind proceeds -- the crash orphans nothing it still owns;
* target dies around the rebind: the assignment dead-letters into a
  ``WorkerFailure``, which orphans the job back to the master's
  re-dispatch machinery.

**Hot-swap** -- quiesce the incumbent master policy (no new offers or
contests; open job-carrying exchanges drain), poll until quiescent or
abandon at the timeout, then synchronously: export the incumbent's
owned jobs, build the successor from the registry, swap it onto the
master (tolerating the predecessor's declared control-plane residue),
swap every live worker's policy, and import the exported jobs.  The
export -> import step runs in one turn, so no job can arrive at a
policy mid-handoff.  The runtime's ``scheduler``/``_master_policy``
references are updated so later worker restarts build successor-policy
workers.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.engine.messages import MigrateAck, MigrateRequest
from repro.reconfig.plan import JobMigration, ReconfigPlan, SchedulerSwap
from repro.schedulers.registry import make_scheduler
from repro.workload.job import Job

#: Sim-time backoff between target-selection retries when the whole
#: fleet is momentarily down (crash storm before restarts land).  The
#: run's deadline guard bounds the total wait.
_EMPTY_FLEET_RETRY_S = 1.0


class _Waiter:
    """One outstanding checkpoint request awaiting its ack."""

    __slots__ = ("entry", "source", "decided")

    def __init__(self, entry: JobMigration, source: str) -> None:
        self.entry = entry
        self.source = source
        #: The ack or its deadline has ended the wait.
        self.decided = False


class ReconfigController:
    """Drives migrations and hot-swaps for one runtime.

    ``host`` is the run's :class:`~repro.engine.runtime.Deployment`;
    the controller reads its ``sim``, ``master`` and ``workers``,
    emits on its ``hooks`` (:mod:`repro.hooks`), seeds a
    successor policy through its ``_seed_views``, and rebinds its
    ``scheduler`` and ``_master_policy`` on hot-swap so worker restarts
    construct successor-policy workers.  Unlike the fault injector -- which takes
    the pieces it needs -- the controller takes the host itself,
    because a swap must *mutate* the runtime's policy references.
    """

    def __init__(self, host, plan: ReconfigPlan) -> None:
        self.host = host
        self.plan = plan
        self.sim = host.sim
        self.hooks = host.hooks
        #: (time, kind, detail) log of controller actions, for tests.
        self.events: list[tuple[float, str, str]] = []
        #: Per-source FIFO of outstanding checkpoint requests.  Acks
        #: from one worker arrive in request order (FIFO per pair), so
        #: the head waiter always matches the arriving ack.
        self._awaiting: dict[str, deque] = {}
        #: Migrations between request send and final rebind; the
        #: ``migration_settled`` seam only fires when this drains to zero,
        #: so concurrent migrations cannot trip it on each other.
        self._inflight = 0
        host.master.migration_router = self._on_ack

    def start(self) -> None:
        """Arm every plan entry: its first turn, URGENT, arms the wait
        for its instant."""
        sim = self.sim
        for entry in self.plan.migrations:
            sim.call_soon(sim.call_later, entry.at_s, self._execute_migration, entry)
        for entry in self.plan.swaps:
            sim.call_soon(sim.call_later, entry.at_s, self._swap, entry)

    # -- migration ---------------------------------------------------------

    def request_migration(
        self,
        source: Optional[str] = None,
        target: Optional[str] = None,
        max_jobs: int = 1,
        include_running: bool = False,
        prewarm: bool = True,
        ack_timeout_s: float = 30.0,
    ) -> None:
        """Trigger a migration *now* (the autoscaler's rebalance hook)."""
        entry = JobMigration(
            at_s=0.0,
            source=source,
            target=target,
            max_jobs=max_jobs,
            include_running=include_running,
            prewarm=prewarm,
            ack_timeout_s=ack_timeout_s,
        )
        self.sim.call_soon(self._execute_migration, entry)

    def _execute_migration(self, entry: JobMigration) -> None:
        master = self.host.master
        source = self._pick_source(entry)
        if source is None:
            self._skip_migration(entry.source, "no-eligible-source")
            return
        self._inflight += 1
        for hook in self.hooks.migrate_request:
            hook(source, entry.max_jobs, self.sim.now)
        self._log("migrate_request", source)
        waiter = _Waiter(entry, source)
        self._awaiting.setdefault(source, deque()).append(waiter)
        master.send_to_worker(
            source,
            MigrateRequest(
                worker=source,
                max_jobs=entry.max_jobs,
                include_running=entry.include_running,
            ),
        )
        self.sim.call_later(entry.ack_timeout_s, self._decide, waiter, None)

    def _decide(self, waiter: _Waiter, ack: Optional[MigrateAck]) -> None:
        """The wait ends at the ack or its deadline (``ack`` None),
        whichever comes first; one more NORMAL turn resumes the
        migration (the hop a wait on the first of two events takes)."""
        if waiter.decided:
            if ack is not None:
                # Landed on its deadline's instant, just behind it.
                self._rebind_late(waiter, ack)
            return
        waiter.decided = True
        self.sim.call_soon(self._acked, waiter, ack, urgent=False)

    def _acked(self, waiter: _Waiter, ack: Optional[MigrateAck]) -> None:
        if ack is None:
            # The source never answered (it died before the request
            # landed, or is wedged).  Nothing was checkpointed from our
            # perspective; a late ack carrying jobs is still honoured.
            self._skip_migration(waiter.source, "ack-timeout")
            for hook in self.hooks.migration_ack_timeout:
                hook(waiter.source, self.sim.now)
            self._settle_one()
            return
        jobs = [job for job in ack.jobs if isinstance(job, Job)]
        if not jobs:
            self._skip_migration(waiter.source, "nothing-to-migrate")
            self._settle_one()
            return
        self._rebind_all(jobs, waiter.source, waiter.entry)

    def _rebind_all(self, jobs: list, source: str, entry: JobMigration) -> None:
        """Rebind ``jobs`` in order; the migration settles after the last."""
        self._rebind_from(jobs, 0, source, entry)

    def _rebind_from(self, jobs: list, index: int, source: str, entry: JobMigration) -> None:
        while index < len(jobs):
            job = jobs[index]
            target = self._pick_target(job, source, entry)
            if target is None:
                # Whole fleet momentarily down: retry on a fixed sim-time
                # backoff; the run's deadline guard bounds the wait.
                self.sim.call_later(
                    _EMPTY_FLEET_RETRY_S, self._rebind_from, jobs, index, source, entry
                )
                return
            self._rebind(job, source, target, entry)
            index += 1
        self._settle_one()

    def _rebind(self, job: Job, source: str, target: str, entry: JobMigration) -> None:
        master = self.host.master
        node = self.host.workers.get(target)
        now = self.sim.now
        if (
            entry.prewarm
            and job.repo_id is not None
            and node is not None
            and node.alive
            and not node.cache.peek(job.repo_id)
        ):
            # Out-of-band pre-warm: the migration channel carries the
            # clone, so no download trace events and no data-load
            # accounting -- a warm start's preload.
            node.preload({job.repo_id: job.size_mb})
            for hook in self.hooks.migrate_prewarm:
                hook(job.job_id, target, job.repo_id, now)
        for hook in self.hooks.migration_rebind:
            hook(job.job_id, source, target, now)
        self._log("migrate_rebind", f"{job.job_id}:{source}->{target}")
        master.assign(job, target)

    def _pick_source(self, entry: JobMigration) -> Optional[str]:
        """The migration source: explicit if eligible, else most-loaded.

        Eligible means active (not retired), alive, and -- for the
        automatic pick -- actually holding work to move.  Deterministic
        name tie-break keeps seed-reproducibility.
        """
        master = self.host.master
        workers = self.host.workers
        if entry.source is not None:
            node = workers.get(entry.source)
            if (
                node is not None
                and node.alive
                and entry.source in master.active_workers
            ):
                return entry.source
            return None
        candidates = [
            name
            for name in master.active_workers
            if name in workers
            and workers[name].alive
            and workers[name]._outstanding_jobs > 0
        ]
        if not candidates:
            return None
        candidates.sort(key=lambda name: (-workers[name]._outstanding_jobs, name))
        return candidates[0]

    def _pick_target(
        self, job: Job, source: str, entry: JobMigration
    ) -> Optional[str]:
        """The rebind destination: explicit if eligible, else
        locality-aware least-loaded (cache holders first), else
        least-loaded outright; the source itself only as a last resort
        (a one-worker fleet migrates onto itself rather than stalling)."""
        master = self.host.master
        workers = self.host.workers
        if entry.target is not None:
            node = workers.get(entry.target)
            if (
                node is not None
                and node.alive
                and entry.target in master.active_workers
            ):
                return entry.target
            return None
        candidates = [
            name
            for name in master.active_workers
            if name != source and name in workers and workers[name].alive
        ]
        if not candidates:
            source_node = workers.get(source)
            if (
                source_node is not None
                and source_node.alive
                and source in master.active_workers
            ):
                return source
            return None
        if job.repo_id is not None:
            local = [
                name for name in candidates if workers[name].cache.peek(job.repo_id)
            ]
            if local:
                candidates = local
        candidates.sort(key=lambda name: (workers[name]._outstanding_jobs, name))
        return candidates[0]

    def _on_ack(self, message: MigrateAck) -> None:
        """Route a MigrateAck to its waiter (installed on the master)."""
        queue = self._awaiting.get(message.worker)
        if not queue:
            if message.jobs:
                raise RuntimeError(
                    f"unexpected MigrateAck from {message.worker!r} "
                    f"carrying {len(message.jobs)} job(s)"
                )
            return
        waiter = queue.popleft()
        if waiter.decided:
            # Only its deadline can have decided it: the request timed
            # out but the checkpoint happened after all (slow link, not
            # a dead worker).  The jobs are off the source's books, so
            # rebind them anyway -- dropping the ack here would lose them.
            self._rebind_late(waiter, message)
            return
        # The ack's event, then the wait on it: two NORMAL turns.
        self.sim.call_soon(self._decide, waiter, message, urgent=False)

    def _rebind_late(self, waiter: _Waiter, ack: MigrateAck) -> None:
        jobs = [job for job in ack.jobs if isinstance(job, Job)]
        if jobs:
            self._inflight += 1
            self.sim.call_soon(self._rebind_all, jobs, ack.worker, waiter.entry)

    def _settle_one(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            for hook in self.hooks.migration_settled:
                hook(self.sim.now)

    def _skip_migration(self, source: Optional[str], reason: str) -> None:
        for hook in self.hooks.migrate_skipped:
            hook(source, reason, self.sim.now)
        self._log("migrate_skipped", f"{source}:{reason}")

    # -- hot-swap ----------------------------------------------------------

    def _swap(self, entry: SchedulerSwap) -> None:
        old = self.host.master.policy
        for hook in self.hooks.swap_quiesce:
            hook(old.name, entry.scheduler, self.sim.now)
        self._log("swap_quiesce", f"{old.name}->{entry.scheduler}")
        old.begin_quiesce()
        self._poll_quiescent(entry, old, self.sim.now + entry.quiesce_timeout_s)

    def _poll_quiescent(self, entry: SchedulerSwap, old, deadline: float) -> None:
        if not old.quiescent() and self.sim.now < deadline:
            self.sim.call_later(entry.poll_s, self._poll_quiescent, entry, old, deadline)
            return
        host = self.host
        master = host.master
        if not old.quiescent():
            old.end_quiesce()
            for hook in self.hooks.swap_skipped:
                hook("quiesce-timeout", self.sim.now)
            self._log("swap_skipped", "quiesce-timeout")
            return
        # The handoff is one turn, atomic in simulation time, so no
        # message or arrival can land between export and import.
        now = self.sim.now
        exported = old.export_state()
        for hook in self.hooks.swap_export:
            hook([job.job_id for job in exported], old, now)
        scheduler = make_scheduler(entry.scheduler, **entry.kwargs)
        new_master = scheduler.make_master()
        # Seed the successor's views from *live* state before it starts:
        # cache contents reflect every download and eviction so far,
        # not the cold-start snapshot the run began with.
        host._seed_views(host.workers.values(), new_master)
        master.swap_policy(new_master, stale_ok=type(old).stale_inbound)
        worker_stale: tuple = ()
        for node in host.workers.values():
            if not node.alive:
                continue
            old_worker_policy = node.policy
            worker_stale = type(old_worker_policy).stale_inbound
            node.swap_policy(scheduler.make_worker(), stale_ok=worker_stale)
        new_master.import_state(exported)
        for hook in self.hooks.swap_import:
            hook([job.job_id for job in exported], new_master, now)
        for hook in self.hooks.swap_done:
            hook(old.name, new_master.name, now)
        self._log("swap_done", f"{old.name}->{new_master.name}")
        # Rebind the runtime's references so worker restarts (and any
        # later swap) build successor-policy components.
        host.scheduler = scheduler
        host._master_policy = new_master

    # -- bookkeeping -------------------------------------------------------

    def _log(self, kind: str, detail: str) -> None:
        self.events.append((self.sim.now, kind, detail))
