"""Reference oracle: the work path as generators, kept in tests only.

This is the per-job path as it ran before it became callback state
machines: ``Link.transfer`` / ``_transfer_locked`` (a process per
transfer, a ``PriorityResource`` for the link, two pooled sleeps),
``Machine.download`` / ``process`` as generators, and the worker's
``_executor`` / ``_execute`` / ``_prefetcher`` processes on a job
``Store``, stopped with ``Interrupt``.  The method bodies are the old
ones, moved verbatim; only the class scaffolding around them (each
reference class extends the current one and swaps the moved methods
back in) is new.  It is slow and obviously a FIFO loop -- take a job,
clone on a miss, scan, report -- which is its whole job:
``test_work_path.py`` drives it and the machines under
``src/repro`` through one script and demands the same log and the same
rng draws.

One bug of the original is kept, because the script steers around it
and ``test_failure_injection.py`` pins the fix: a job handed to the
executor whose turn has not come is in neither ``queue.items`` nor
``current_job``, so ``kill()`` at that instant loses it.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.cluster.machine import Machine
from repro.engine.messages import Hello, JobCompleted, WorkerFailure
from repro.engine.worker import WorkerNode
from repro.net.link import Link
from repro.sim.events import Event
from repro.sim.process import Interrupt
from repro.sim.resources import PriorityResource, Store
from repro.workload.job import Job


class ReferenceLink(Link):
    """``Link`` with the mutex and the transfer process."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._mutex = PriorityResource(self.sim, capacity=1)
        #: Transfer processes currently inside :meth:`transfer` (holding
        #: or waiting on the mutex); drives the occupancy observer.
        self._occupants = 0

    @property
    def busy(self) -> bool:
        """Whether a transfer currently holds (or waits on) the link.

        A cheap gauge for the observability probes: dedicated links are
        capacity-1, so any holder or queued requester means the link is
        occupied.
        """
        return self._mutex.count > 0 or self._mutex.waiting > 0

    def transfer(self, size_mb: float, priority: int = 0) -> Generator:
        """Process: move ``size_mb`` through the link; returns elapsed seconds.

        ``priority`` orders contending transfers (lower = more urgent);
        background prefetches use priority 1 so a job's own download is
        never queued behind them.

        Usage::

            elapsed = yield sim.process(link.transfer(size_mb))
        """
        if size_mb < 0:
            raise ValueError(f"size must be non-negative, got {size_mb}")
        start = self.sim.now
        self._occupants += 1
        if self._occupants == 1 and self.observer is not None:
            self.observer(True)
        try:
            grant = self._mutex.request(priority)
            yield grant
            return (yield from self._transfer_locked(size_mb, start, grant))
        finally:
            self._occupants -= 1
            if self._occupants == 0 and self.observer is not None:
                self.observer(False)

    def _transfer_locked(self, size_mb: float, start: float, grant) -> Generator:
        """The body of :meth:`transfer` once the mutex wait is over."""
        try:
            yield self.sim.sleep(self.latency)
            factor = self.noise.factor(self.rng, self.sim.now)
            realised = self.bandwidth_mbps * max(factor, 1e-9)
            duration = size_mb / realised
            if self.upstream is not None:
                # Consume shared origin capacity concurrently; the transfer
                # completes only when both the local pipe and the origin
                # have moved the bytes.
                upstream_done = self.upstream.transfer(size_mb)
                local_done = self.sim.sleep(duration)
                yield local_done
                yield upstream_done
            else:
                yield self.sim.sleep(duration)
            elapsed = self.sim.now - start
            if elapsed > 0 and size_mb > 0:
                self.last_realised_mbps = size_mb / elapsed
            self.total_mb += size_mb
            self.transfer_count += 1
            return elapsed
        finally:
            self._mutex.release(grant)


class ReferenceMachine(Machine):
    """``Machine`` on a :class:`ReferenceLink`, downloading and
    processing as generators."""

    def __init__(self, sim, spec, network_noise=None, rw_noise=None, rng=None, upstream=None):
        super().__init__(sim, spec, network_noise, rw_noise, rng, upstream)
        link = self.link
        self.link = ReferenceLink(
            sim,
            bandwidth_mbps=link.bandwidth_mbps,
            latency=link.latency,
            noise=link.noise,
            rng=link.rng,
            upstream=link.upstream,
        )

    def download(self, size_mb: float, priority: int = 0) -> Generator:
        """Process: clone ``size_mb`` through the worker's link.

        ``priority`` forwards to the link (0 = foreground job download,
        1 = background prefetch).  Returns elapsed seconds and records a
        network speed sample.
        """
        start = self.sim.now
        elapsed = yield self.sim.process(self.link.transfer(size_mb, priority=priority))
        self.busy_seconds += self.sim.now - start
        if elapsed > 0 and size_mb > 0:
            self.record_network_sample(size_mb / elapsed)
        return elapsed

    def process(self, size_mb: float, base_compute_s: float = 0.0) -> Generator:
        """Process: scan ``size_mb`` of local data plus fixed compute.

        Realised scan speed is the nominal ``rw_mbps`` times a noise
        factor; fixed compute scales with the CPU factor.  Returns
        elapsed seconds and records a read/write speed sample.
        """
        if size_mb < 0:
            raise ValueError("size_mb must be non-negative")
        if base_compute_s < 0:
            raise ValueError("base_compute_s must be non-negative")
        start = self.sim.now
        factor = self.rw_noise.factor(self.rng, self.sim.now)
        realised_rw = self.spec.rw_mbps * max(factor, 1e-9)
        duration = base_compute_s / self.spec.cpu_factor + size_mb / realised_rw
        yield self.sim.sleep(duration)
        self.busy_seconds += self.sim.now - start
        if size_mb > 0 and duration > 0:
            self.record_rw_sample(size_mb / duration)
        return duration


class ReferenceWorkerNode(WorkerNode):
    """``WorkerNode`` with the executor and the prefetcher as processes
    on a job ``Store``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.queue: Store = Store(self.sim)
        self._exec_proc = None
        self._prefetch_proc = None
        self._prefetch_signal: Optional[Event] = None
        #: repo_id -> completion event of an in-flight prefetch.
        self._prefetch_inflight: dict[str, Event] = {}

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
