"""Executes a :class:`~repro.reconfig.plan.ReconfigPlan` against a live run.

The controller is wired by the runtime (workflow or service) after the
master and workers exist and is started alongside the fault injector.
It spawns one simulation process per plan entry:

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
export -> import step runs without yielding, so no job can arrive at a
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
from repro.sim.events import AnyOf, Event
from repro.workload.job import Job

#: Sim-time backoff between target-selection retries when the whole
#: fleet is momentarily down (crash storm before restarts land).  The
#: run's deadline guard bounds the total wait.
_EMPTY_FLEET_RETRY_S = 1.0


class _Waiter:
    """One outstanding checkpoint request awaiting its ack."""

    __slots__ = ("entry", "event", "abandoned")

    def __init__(self, entry: JobMigration, event: Event) -> None:
        self.entry = entry
        self.event = event
        self.abandoned = False


class ReconfigController:
    """Drives migrations and hot-swaps for one runtime.

    ``host`` duck-types the runtime surface both runtimes share:
    ``.sim``, ``.master``, ``.workers`` (name -> node), ``.metrics``,
    ``.scheduler`` and ``._master_policy`` (rebound on hot-swap so
    worker restarts construct successor-policy workers), and optionally
    ``.monitor``.  Unlike the fault injector -- which takes the pieces
    it needs -- the controller takes the host itself, because a swap
    must *mutate* the runtime's policy references.
    """

    def __init__(self, host, plan: ReconfigPlan) -> None:
        self.host = host
        self.plan = plan
        self.sim = host.sim
        self.monitor = getattr(host, "monitor", None)
        #: (time, kind, detail) log of controller actions, for tests.
        self.events: list[tuple[float, str, str]] = []
        #: Per-source FIFO of outstanding checkpoint requests.  Acks
        #: from one worker arrive in request order (FIFO per pair), so
        #: the head waiter always matches the arriving ack.
        self._awaiting: dict[str, deque] = {}
        #: Migrations between request send and final rebind; the
        #: monitor's settled probe only fires when this drains to zero,
        #: so concurrent migrations cannot trip it on each other.
        self._inflight = 0
        host.master.migration_router = self._on_ack

    def start(self) -> None:
        """Spawn one process per plan entry."""
        for index, entry in enumerate(self.plan.migrations):
            self.sim.process(
                self._migration(entry), name=f"reconfig-migrate-{index}"
            )
        for index, entry in enumerate(self.plan.swaps):
            self.sim.process(self._swap(entry), name=f"reconfig-swap-{index}")

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
        self.sim.process(self._execute_migration(entry), name="reconfig-rebalance")

    def _migration(self, entry: JobMigration):
        yield self.sim.timeout(entry.at_s)
        yield from self._execute_migration(entry)

    def _execute_migration(self, entry: JobMigration):
        master = self.host.master
        metrics = self.host.metrics
        source = self._pick_source(entry)
        if source is None:
            self._skip_migration(entry.source, "no-eligible-source")
            return
        self._inflight += 1
        try:
            metrics.trace.record(
                self.sim.now, "migrate_request", "-", source, entry.max_jobs
            )
            self._log("migrate_request", source)
            waiter = _Waiter(entry, Event(self.sim))
            self._awaiting.setdefault(source, deque()).append(waiter)
            master.send_to_worker(
                source,
                MigrateRequest(
                    worker=source,
                    max_jobs=entry.max_jobs,
                    include_running=entry.include_running,
                ),
            )
            deadline = self.sim.timeout(entry.ack_timeout_s)
            outcome = yield AnyOf(self.sim, [waiter.event, deadline])
            if waiter.event not in outcome:
                # The source never answered (it died before the request
                # landed, or is wedged).  Nothing was checkpointed from
                # our perspective; a late ack carrying jobs is still
                # honoured through the abandoned-waiter path.
                waiter.abandoned = True
                self._skip_migration(source, "ack-timeout")
                return
            ack = outcome[waiter.event]
            jobs = [job for job in ack.jobs if isinstance(job, Job)]
            if not jobs:
                self._skip_migration(source, "nothing-to-migrate")
                return
            yield from self._rebind_all(jobs, source, entry)
        finally:
            self._settle_one()

    def _rebind_all(self, jobs: list, source: str, entry: JobMigration):
        for job in jobs:
            yield from self._rebind(job, source, entry)

    def _rebind(self, job: Job, source: str, entry: JobMigration):
        master = self.host.master
        metrics = self.host.metrics
        while True:
            target = self._pick_target(job, source, entry)
            if target is not None:
                break
            # Whole fleet momentarily down: retry on a fixed sim-time
            # backoff; the run's deadline guard bounds the wait.
            yield self.sim.timeout(_EMPTY_FLEET_RETRY_S)
        node = self.host.workers.get(target)
        now = self.sim.now
        if (
            entry.prewarm
            and job.repo_id is not None
            and node is not None
            and node.alive
            and not node.cache.peek(job.repo_id)
        ):
            # Out-of-band pre-warm: the repository appears in the
            # target's cache without a download (the migration channel
            # carries it), so no download trace events and no
            # data-load accounting -- mirroring warm-start preloads.
            node.cache.insert(job.repo_id, job.size_mb)
            node.policy.on_state_changed((job.repo_id,))
            if self.monitor is not None:
                self.monitor.on_cache_preload(target, [job.repo_id])
            metrics.trace.record(now, "migrate_prewarm", job.job_id, target, job.repo_id)
        if self.monitor is not None:
            self.monitor.on_migration_rebind(job.job_id, source, target, now)
        metrics.job_migrated(now, job, source, target)
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
        if waiter.abandoned:
            # The request timed out but the checkpoint happened after
            # all (slow link, not a dead worker).  The jobs are off the
            # source's books, so rebind them anyway -- dropping the ack
            # here would lose them.
            jobs = [job for job in message.jobs if isinstance(job, Job)]
            if jobs:
                self._inflight += 1
                self.sim.process(
                    self._rebind_late(jobs, message.worker, waiter.entry),
                    name="reconfig-late-ack",
                )
            return
        waiter.event.succeed(message)

    def _rebind_late(self, jobs: list, source: str, entry: JobMigration):
        try:
            yield from self._rebind_all(jobs, source, entry)
        finally:
            self._settle_one()

    def _settle_one(self) -> None:
        self._inflight -= 1
        if self._inflight == 0 and self.monitor is not None:
            self.monitor.on_migration_settled(self.sim.now)

    def _skip_migration(self, source: Optional[str], reason: str) -> None:
        self.host.metrics.trace.record(
            self.sim.now, "migrate_skipped", "-", source, reason
        )
        self._log("migrate_skipped", f"{source}:{reason}")

    # -- hot-swap ----------------------------------------------------------

    def _swap(self, entry: SchedulerSwap):
        yield self.sim.timeout(entry.at_s)
        host = self.host
        master = host.master
        metrics = host.metrics
        old = master.policy
        metrics.trace.record(
            self.sim.now, "swap_quiesce", "-", None, f"{old.name}->{entry.scheduler}"
        )
        self._log("swap_quiesce", f"{old.name}->{entry.scheduler}")
        old.begin_quiesce()
        deadline = self.sim.now + entry.quiesce_timeout_s
        while not old.quiescent() and self.sim.now < deadline:
            yield self.sim.timeout(entry.poll_s)
        if not old.quiescent():
            old.end_quiesce()
            metrics.trace.record(
                self.sim.now, "swap_skipped", "-", None, "quiesce-timeout"
            )
            self._log("swap_skipped", "quiesce-timeout")
            return
        # From here to the end of the swap: no yields.  The handoff is
        # atomic in simulation time, so no message or arrival can land
        # between export and import.
        now = self.sim.now
        exported = old.export_state()
        if self.monitor is not None:
            self.monitor.on_swap_export(
                [job.job_id for job in exported], old.name, now
            )
        scheduler = make_scheduler(entry.scheduler, **entry.kwargs)
        new_master = scheduler.make_master()
        # Seed the successor's views from *live* state before it starts:
        # cache contents reflect every download and eviction so far,
        # not the cold-start snapshot the run began with.
        if hasattr(new_master, "cache_view"):
            new_master.cache_view = {
                name: set(node.cache.contents())
                for name, node in host.workers.items()
            }
        if hasattr(new_master, "speed_view"):
            new_master.speed_view = {
                name: (
                    node.spec.network_mbps,
                    node.spec.rw_mbps,
                    node.spec.cpu_factor,
                    node.spec.link_latency,
                )
                for name, node in host.workers.items()
            }
        master.swap_policy(new_master, stale_ok=type(old).stale_inbound)
        worker_stale: tuple = ()
        for node in host.workers.values():
            if not node.alive:
                continue
            old_worker_policy = node.policy
            worker_stale = type(old_worker_policy).stale_inbound
            node.swap_policy(scheduler.make_worker(), stale_ok=worker_stale)
        new_master.import_state(exported)
        if self.monitor is not None:
            self.monitor.on_swap_import(
                [job.job_id for job in exported], new_master.name, now
            )
            self.monitor.contest_window_s = getattr(new_master, "window_s", None)
        metrics.scheduler_swapped(now, old.name, new_master.name)
        self._log("swap_done", f"{old.name}->{new_master.name}")
        # Rebind the runtime's references so worker restarts (and any
        # later swap) build successor-policy components.
        host.scheduler = scheduler
        host._master_policy = new_master

    # -- bookkeeping -------------------------------------------------------

    def _log(self, kind: str, detail: str) -> None:
        self.events.append((self.sim.now, kind, detail))
