"""The real worker-pool coordinator.

:class:`ExecBackend` executes a frozen :class:`~repro.exec.plan.ExecPlan`
against genuinely separate OS processes:

* **Atomic queue handoff.**  Every bound job sits in exactly one place:
  the worker's coordinator-side ``ready`` deque or its ``processing``
  map.  The move happens *before* the dispatch message is written
  (BLMOVE-style move-to-processing), so a worker crashing at any instant
  -- before receipt, mid-execution, after replying -- leaves a
  well-defined orphan set: everything still in ``processing`` plus the
  undelivered ``ready`` backlog.  Nothing is ever lost; duplicates from
  a slow original are absorbed by the at-most-once guard.

* **A measured dispatch window.**  A worker holds at most ``depth``
  dispatched jobs, at first ``inflight_per_worker``.  A ``done`` saying
  the worker sat idle (``wait_s``) before a job the full window held in
  ``ready`` raises it by one while a backlog is left: the round trip,
  not the work, was the gap.  The depth never falls.

* **Heartbeats with miss-based eviction.**  Workers register with
  ``hello`` and beat every ``heartbeat_s``; a worker silent for
  ``miss_limit`` periods is evicted exactly like a crashed one (this
  catches wedged processes that keep their socket open), and an EOF on
  the connection (SIGKILL detection) or a malformed line evicts at once.

* **Locality-aware re-dispatch.**  The coordinator mirrors each
  worker's :class:`~repro.data.cache.WorkerCache`, so orphans prefer a
  live worker that already holds their repository -- the same locality
  rule the paper's schedulers apply, driven off the same cache model.

* **Reused verification.**  The coordinator emits on the sim's
  observer seams (:mod:`repro.hooks`), and the
  :class:`~repro.check.invariants.InvariantMonitor` and
  :class:`~repro.metrics.collector.MetricsCollector` take plain
  floats, so the real run drives them with wall-clock times: the full
  conservation family (exactly-once allocation, at-most-once completion,
  ``completed + failed == admitted``) is enforced *live* on real
  processes, and the recorded trace exports through
  :mod:`repro.obs` like any sim run.

The control plane (:mod:`repro.exec.control`) drives a running pool over
the same socket -- ``dispatch`` / ``drain`` / ``rebind`` / ``stats`` /
``kill`` -- so autoscaler-style logic and fault hooks manipulate real
processes through the verbs they use on simulated ones.
"""

from __future__ import annotations

import asyncio
import multiprocessing
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Optional

from repro.check.invariants import InvariantMonitor
from repro.data.cache import WorkerCache
from repro.exec import protocol
from repro.exec.control import handle_control
from repro.exec.plan import ExecPlan, PlanJob, PlanWorker, capture_service_plan
from repro.exec.worker import worker_main
from repro.hooks import Hooks
from repro.metrics.collector import MetricsCollector
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve import ServiceReport, ServiceRuntime


def _pct(ordered: list[float], q: float) -> float:
    """The ``q`` quantile of an ascending list; 0.0 when it is empty."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


#: How long the spawned workers have to register.  Generous: each child
#: re-imports its entry point, and CI runners under load have been seen
#: to need tens of seconds.
SPAWN_TIMEOUT_S = 60.0


class ExecError(RuntimeError):
    """The real run could not complete (spawn failure, timeout, ...)."""


@dataclass(frozen=True)
class ExecConfig:
    """Knobs of the real backend.

    ``time_scale`` maps simulated seconds to wall-clock sleeps inside
    workers (0.02 -> a 50 s simulated download costs 1 s real), kept as
    deadlines a late wake-up never carries over (:mod:`repro.exec.worker`).  The
    heartbeat cadence and miss limit bound crash-detection latency at
    ``heartbeat_s * miss_limit`` real seconds.  ``stall_after`` is the
    chaos hook: ``(worker, n)`` wedges that worker (silence, no
    progress) after ``n`` completions, exercising miss-based eviction.
    ``inflight_per_worker`` is the floor of each worker's dispatch
    window; the coordinator deepens it from the idle time workers report.
    """

    time_scale: float = 0.02
    heartbeat_s: float = 0.25
    miss_limit: int = 4
    inflight_per_worker: int = 2
    max_redispatches: int = 3
    run_timeout_s: float = 120.0
    check: bool = True
    trace: bool = True
    host: str = "127.0.0.1"
    stall_after: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        if self.miss_limit < 1:
            raise ValueError("miss_limit must be at least 1")
        if self.inflight_per_worker < 1:
            raise ValueError("inflight_per_worker must be at least 1")


@dataclass(frozen=True)
class KillSpec:
    """SIGKILL ``worker``'s process once ``after_done`` jobs completed
    fleet-wide -- the real twin of the sim's
    :class:`~repro.faults.plan.WorkerCrash`."""

    worker: str
    after_done: int


@dataclass(frozen=True)
class ExecReport:
    """What actually happened when the plan ran for real."""

    scheduler: str
    seed: int
    workers: tuple[str, ...]
    admitted: int
    completed: int
    failed: int
    crashes: int
    redispatches: int
    duplicates_suppressed: int
    cache_hits: int
    cache_misses: int
    data_load_mb: float
    wall_s: float
    throughput_jobs_per_s: float
    handoff_p50_s: float
    handoff_max_s: float
    #: Every allocation applied, in order: (job_id, worker, redispatch).
    assigned: tuple[tuple[str, str, bool], ...]
    #: Completion order per worker (must equal plan order, fault-free).
    per_worker_completed: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: (hits, misses) per worker.
    per_worker_cache: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def conserved(self) -> bool:
        """The service-conservation law, as a plain property."""
        return self.completed + self.failed == self.admitted

    def to_dict(self) -> dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "seed": self.seed,
            "workers": list(self.workers),
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "crashes": self.crashes,
            "redispatches": self.redispatches,
            "duplicates_suppressed": self.duplicates_suppressed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "data_load_mb": self.data_load_mb,
            "wall_s": self.wall_s,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "handoff_p50_s": self.handoff_p50_s,
            "handoff_max_s": self.handoff_max_s,
            "assigned": [list(entry) for entry in self.assigned],
            "per_worker_completed": {
                name: list(ids) for name, ids in self.per_worker_completed.items()
            },
            "per_worker_cache": {
                name: list(counts) for name, counts in self.per_worker_cache.items()
            },
            "conserved": self.conserved,
        }


class _WorkerState:
    """Coordinator-side view of one worker process."""

    def __init__(self, plan_worker: PlanWorker, depth: int) -> None:
        self.plan = plan_worker
        self.name = plan_worker.name
        self.proc: Optional[multiprocessing.process.BaseProcess] = None
        self.transport: Optional[asyncio.Transport] = None  # set by its hello
        #: Encoded dispatches of the current turn, written as one batch.
        self.outbox: list[bytes] = []
        self.alive = True
        self.draining = False
        self.last_beat = 0.0
        #: Bound, not yet dispatched (coordinator-side backlog).
        self.ready: deque[PlanJob] = deque()
        #: Dispatched, awaiting ``done``: job_id -> (job, dispatched_at,
        #: held), ``held`` when it waited in ``ready`` behind a full window.
        self.processing: dict[str, tuple[PlanJob, float, bool]] = {}
        #: The dispatch window: most jobs in ``processing`` at once.
        self.depth = depth
        #: Summed idle time the worker reported before its jobs.
        self.wait_s = 0.0
        #: Mirror of the worker's data cache (locality for re-dispatch).
        self.cache = WorkerCache(capacity_mb=plan_worker.cache_capacity_mb)
        self.cache.preload(dict(plan_worker.preload))
        self.completed_order: list[str] = []

    @property
    def outstanding(self) -> int:
        return len(self.ready) + len(self.processing)


class ExecBackend:
    """Execute one :class:`ExecPlan` on real processes and report.

    ``kills`` schedules real SIGKILLs; ``script`` is a deterministic
    control hook -- ``(after_done, verb_message)`` pairs applied through
    the control plane once the fleet-wide completion count reaches the
    threshold (the socket control plane accepts the same verbs live).
    """

    def __init__(
        self,
        plan: ExecPlan,
        config: Optional[ExecConfig] = None,
        kills: tuple[KillSpec, ...] = (),
        script: tuple[tuple[int, dict[str, Any]], ...] = (),
    ) -> None:
        self.plan = plan
        self.config = config or ExecConfig()
        self.kills = sorted(kills, key=lambda k: k.after_done)
        fleet = {worker.name for worker in plan.workers}
        for spec in self.kills:
            if spec.worker not in fleet:
                raise ExecError(
                    f"kill targets unknown worker {spec.worker!r} "
                    f"(fleet: {sorted(fleet)})"
                )
        self.script = sorted(script, key=lambda entry: entry[0])
        self.metrics = MetricsCollector()
        self.metrics.trace.enabled = self.config.trace
        #: The coordinator's observer seams (see :mod:`repro.hooks`),
        #: the collector subscribed first as on the sim's host.
        self.hooks = Hooks()
        self.hooks.subscribe(self.metrics)
        self.monitor: Optional[InvariantMonitor] = None
        if self.config.check:
            self.monitor = InvariantMonitor(recovery_enabled=True)
            self.hooks.subscribe(self.monitor)
        #: Wall-clock decision ledger (parity with the sim master's):
        #: one record per ``_bind``, timestamped with the backend clock.
        #: Gated with the trace knob -- both are the run's observability.
        self.ledger = None
        if self.config.trace:
            from repro.obs.ledger import DecisionLedger

            self.ledger = DecisionLedger()
            self.hooks.subscribe(self.ledger)

        self.workers: dict[str, _WorkerState] = {}
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.crashes = 0
        self.redispatches = 0
        self.duplicates = 0
        self.assigned_log: list[tuple[str, str, bool]] = []
        self.port: Optional[int] = None

        self._jobs = plan.job_index
        self._real_jobs: dict[str, Job] = {}  # job_id -> Job, see _admit
        self._terminal: set[str] = set()
        self._redispatch_counts: dict[str, int] = {}
        self._handoff: list[float] = []
        self._writes = self._written_bytes = 0  # _flush's transport.write calls and bytes
        self._pending_kills = list(self.kills)
        self._pending_script = list(self.script)
        self._dirty: list[_WorkerState] = []  # workers with a non-empty outbox
        self._error: Optional[BaseException] = None
        self._registered: Optional[asyncio.Event] = None  # every worker said hello
        self._done: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0

    # -- time --------------------------------------------------------------

    def _now(self) -> float:
        return self._loop.time() - self._t0

    # -- entry point -------------------------------------------------------

    def run(self) -> ExecReport:
        """Spawn the fleet, execute the plan, tear down, report."""
        return asyncio.run(self._run())

    async def _run(self) -> ExecReport:
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self._registered, self._done = asyncio.Event(), asyncio.Event()
        for plan_worker in self.plan.workers:
            self.workers[plan_worker.name] = _WorkerState(plan_worker, cfg.inflight_per_worker)

        server = await self._loop.create_server(lambda: _Peer(self), cfg.host, 0)
        self.port = server.sockets[0].getsockname()[1]
        ctx = multiprocessing.get_context("spawn")
        stall = dict(cfg.stall_after)
        try:
            for state in self.workers.values():
                worker_cfg = {"time_scale": cfg.time_scale, "heartbeat_s": cfg.heartbeat_s}
                if state.name in stall:
                    worker_cfg["stall_after"] = stall[state.name]
                state.proc = ctx.Process(
                    target=worker_main,
                    args=(cfg.host, self.port, state.plan.to_dict(), worker_cfg),
                    daemon=True,
                    name=f"exec-{state.name}",
                )
                state.proc.start()
            try:
                await asyncio.wait_for(self._registered.wait(), timeout=SPAWN_TIMEOUT_S)
            except asyncio.TimeoutError:
                missing = sorted(s.name for s in self.workers.values() if s.transport is None)
                raise ExecError(f"workers never registered: {missing}") from None

            watchdog = asyncio.ensure_future(self._watchdog())
            try:
                self._submit_and_bind()
                try:
                    await asyncio.wait_for(self._done.wait(), timeout=cfg.run_timeout_s)
                except asyncio.TimeoutError:
                    raise ExecError(
                        f"real run did not quiesce within {cfg.run_timeout_s}s "
                        f"({self.admitted - self.completed - self.failed} jobs "
                        "outstanding)"
                    ) from None
            finally:
                watchdog.cancel()
            if self._error is not None:
                raise self._error

            now = self._now()
            for hook in self.hooks.service_close:
                hook(self.admitted, self.completed, self.failed, now)
            for hook in self.hooks.run_finished:
                hook(now)
            if self.config.check:
                self.monitor.final_check()
            return self._report(now)
        finally:
            await self._teardown(server)

    async def _teardown(self, server: "asyncio.AbstractServer") -> None:
        shutdown = protocol.encode({"type": protocol.SHUTDOWN})
        for state in self.workers.values():
            if state.transport is not None and state.alive:
                state.transport.write(shutdown)
        # Give workers one heartbeat to exit cleanly, then force.
        await asyncio.sleep(min(0.2, self.config.heartbeat_s))
        for state in self.workers.values():
            proc = state.proc
            if proc is None or proc.pid is None:  # never started: nothing to join
                continue
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck process
                proc.kill()
                proc.join(timeout=1.0)
        server.close()
        await server.wait_closed()

    # -- connections -------------------------------------------------------

    def _on_worker_message(self, state: _WorkerState, message: dict[str, Any]) -> None:
        state.last_beat = self._now()
        kind = message["type"]
        if kind == protocol.DONE:
            if state.alive:
                self._on_done(state, message)
        elif kind != protocol.HEARTBEAT:
            raise protocol.ProtocolError(
                f"unexpected worker message {kind!r} from {state.name}"
            )

    def _flush(self) -> None:
        """Write each worker's batch of dispatches: one write per worker."""
        for state in self._dirty:
            if state.outbox:
                data = b"".join(state.outbox)
                state.transport.write(data)
                self._writes += 1
                self._written_bytes += len(data)
                state.outbox.clear()
        self._dirty.clear()

    # -- the watchdog ------------------------------------------------------

    async def _watchdog(self) -> None:
        cfg = self.config
        budget = cfg.heartbeat_s * cfg.miss_limit
        while True:
            await asyncio.sleep(cfg.heartbeat_s)
            now = self._now()
            for state in list(self.workers.values()):
                if state.alive and state.transport is not None:
                    if now - state.last_beat > budget:
                        self._lose_worker(
                            state,
                            f"missed {cfg.miss_limit} heartbeats "
                            f"({now - state.last_beat:.2f}s silent)",
                        )
            self._flush()

    # -- intake and binding ------------------------------------------------

    def _submit_and_bind(self) -> None:
        """Admit the plan and bind every decision in one synchronous step:
        each worker's first ``inflight_per_worker`` jobs (its window's floor)
        go out as they are bound, their ``done`` waits for the step's end
        (``handoff_max``), and the digested ``assigned`` order keeps it whole."""
        now = self._now()
        for hook in self.hooks.run_started:
            hook(now)
        for plan_job in self.plan.jobs:
            self._admit(plan_job, now)
        for hook in self.hooks.cache_preload:
            for state in self.workers.values():
                repos = [repo for repo, _size in state.plan.preload]
                if repos:
                    hook(state.name, repos)
        bound: set[str] = set()
        for decision in self.plan.decisions:
            # A plan captured from a faulty sim run can list a job more
            # than once (sim-side re-dispatch); the real pool owns its
            # own fault handling, so only the first decision executes.
            if decision.job_id in bound:
                continue
            bound.add(decision.job_id)
            job = self._jobs[decision.job_id]
            if self.workers[decision.worker].alive:
                self._bind(job, decision.worker, redispatch=False)
            else:
                # Lost between its hello and this bind: its ``ready``
                # would never pump, so re-home the job as an orphan.
                self._redispatch(job, lost_from=decision.worker)
        self._flush()
        self._maybe_finish()

    def _admit(self, job: PlanJob, now: float) -> None:
        """Count one job in; the ``Job`` the observers see is built here, once."""
        self.admitted += 1
        self._real_jobs[job.job_id] = job.to_job()
        for hook in self.hooks.submitted:
            hook(job.job_id, now)

    def _bind(self, job: PlanJob, worker: str, redispatch: bool) -> None:
        state = self.workers[worker]
        now = self._now()
        real_job = self._real_jobs[job.job_id]
        self.assigned_log.append((job.job_id, worker, redispatch))
        # The sim master's seam, the backend standing in for the policy.
        for hook in self.hooks.assigned:
            hook(real_job, worker, self, now)
        state.ready.append(job)
        self._pump(state, held=False)

    #: The ``policy`` of this backend's ledger records.
    name = "exec"

    def decision_snapshot(self, job: Job, worker: str) -> tuple:
        """Ledger: the live worker states at a bind (locality from the
        coordinator cache mirror, queue depth = outstanding) and whether
        it re-dispatches (the bind's ``assigned_log`` entry)."""
        repo = job.repo_id
        states = [
            (s.name, repo is None or bool(s.cache.peek(repo)), s.outstanding, s.alive)
            for s in self.workers.values()
        ]
        return states, self.assigned_log[-1][2]

    def decision_context(self, job: Job, worker: str, snapshot: tuple) -> tuple:
        """Ledger: ``(kind, candidates, runner_up, reason)`` of one bind."""
        from repro.obs.ledger import CandidateScore

        states, redispatch = snapshot
        candidates = tuple(
            CandidateScore(name, local=local, queue_depth=depth, detail=None if alive else "dead")
            for name, local, depth, alive in states
        )
        if redispatch:
            reason = "re-dispatched after worker loss (locality-aware rebind)"
            return ("redispatch", candidates, None, reason)
        return ("replay", candidates, None, "replayed the captured plan decision")

    def _pump(self, state: _WorkerState, held: bool) -> None:
        """Move ready -> processing -> outbox, up to the worker's depth.

        The ``processing`` insert happens *before* the dispatch is queued
        for the socket (:meth:`_flush` writes it at the end of the turn):
        if the write (or the worker) fails at any later point, the job is
        still owned somewhere and the orphan scan will find it.  A pump
        after a bind sends at most that job, and only into a free window;
        a pump after a ``done`` sends what the full window ``held``.
        """
        while (
            state.alive and not state.draining and state.ready
            and len(state.processing) < state.depth
        ):
            job = state.ready.popleft()
            now = self._now()
            state.processing[job.job_id] = (job, now, held)
            for hook in self.hooks.enqueued:
                hook(job.job_id, state.name, now)
            if not state.outbox:
                self._dirty.append(state)
            state.outbox.append(
                protocol.encode(
                    {
                        "type": protocol.DISPATCH,
                        "job_id": job.job_id,
                        "repo_id": job.repo_id,
                        "size_mb": job.size_mb,
                        "base_compute_s": job.base_compute_s,
                        "handler": job.handler,
                    }
                )
            )

    # -- completions -------------------------------------------------------

    def _on_done(self, state: _WorkerState, message: dict[str, Any]) -> None:
        job_id = message["job_id"]
        now = self._now()
        if job_id in self._terminal:
            # At-most-once: a re-dispatched job's original owner finished
            # anyway (e.g. eviction raced an in-flight completion).
            self.duplicates += 1
            for hook in self.hooks.duplicate_completion:
                hook(job_id, state.name, now)
            return
        entry = state.processing.pop(job_id, None)
        if entry is None:
            raise ExecError(
                f"worker {state.name} completed {job_id!r} it does not own"
            )
        job, dispatched_at, held = entry
        exec_s = float(message.get("exec_s", 0.0))
        wait_s = float(message.get("wait_s", 0.0))
        state.wait_s += wait_s
        if wait_s and held and state.ready:
            state.depth += 1  # the window, not the backlog, idled the worker
        started = max(dispatched_at, now - exec_s)
        real_job = self._real_jobs[job_id]
        cache_hit = message.get("cache_hit")
        if cache_hit is True:
            for hook in self.hooks.cache_hit:
                hook(real_job, state.name, started)
            state.cache.lookup(job.repo_id)
        elif cache_hit is False:
            for hook in self.hooks.download_started:
                hook(real_job, state.name, started)
            modelled_fetch = (
                state.plan.link_latency + job.size_mb / state.plan.network_mbps
            ) * self.config.time_scale
            fetch_end = min(now, started + modelled_fetch)
            fetched_mb = float(message.get("fetched_mb", 0.0))
            for hook in self.hooks.cache_fetch:
                hook(real_job, state.name, fetched_mb, fetch_end)
            state.cache.lookup(job.repo_id)
            state.cache.insert(job.repo_id, job.size_mb)
        for hook in self.hooks.job_started:
            hook(job_id, state.name, started)
        self._terminal.add(job_id)
        for hook in self.hooks.completed:
            hook(real_job, state.name, now)
        state.completed_order.append(job_id)
        self.completed += 1
        queued_s = float(message.get("queued_s", 0.0))
        self._handoff.append(max(0.0, now - dispatched_at - queued_s - exec_s))
        self._run_hooks()
        self._pump(state, held=True)
        self._maybe_finish()

    def _run_hooks(self) -> None:
        """Fire scheduled kills and scripted control verbs."""
        while self._pending_kills and self.completed >= self._pending_kills[0].after_done:
            spec = self._pending_kills.pop(0)
            state = self.workers.get(spec.worker)
            if state is not None and state.proc is not None and state.proc.is_alive():
                state.proc.kill()  # SIGKILL; eviction follows via EOF
        while self._pending_script and self.completed >= self._pending_script[0][0]:
            _at, message = self._pending_script.pop(0)
            handle_control(self, dict(message))

    # -- failure handling --------------------------------------------------

    def _lose_worker(self, state: _WorkerState, reason: str) -> None:
        if not state.alive:
            return
        state.alive = False
        now = self._now()
        self.crashes += 1
        for hook in self.hooks.worker_crashed:
            hook(state.name, now)
        if state.proc is not None and state.proc.is_alive():
            # Heartbeat eviction of a wedged-but-running process: the
            # fleet has moved on, so the zombie must not keep executing.
            state.proc.kill()
        state.outbox.clear()
        if state.transport is not None:
            state.transport.close()
        orphans = [entry[0] for entry in state.processing.values()]
        orphans.extend(state.ready)
        state.processing.clear()
        state.ready.clear()
        for job in orphans:
            if job.job_id in self._terminal:
                continue
            for hook in self.hooks.orphaned:
                hook(job.job_id, state.name, now)
            self._redispatch(job, lost_from=state.name)

    def _redispatch(self, job: PlanJob, lost_from: str) -> None:
        attempts = self._redispatch_counts.get(job.job_id, 0)
        target = self.rebind_target(job)
        if attempts >= self.config.max_redispatches or target is None:
            reason = (
                "no live workers to re-dispatch to"
                if target is None
                else f"retry budget exhausted ({attempts} re-dispatches)"
            )
            self._fail(job, reason)
            return
        self._redispatch_counts[job.job_id] = attempts + 1
        self.rehome(job, target)

    def rehome(self, job: PlanJob, target: str) -> None:
        """Bind an already-admitted job to ``target`` as a re-dispatch."""
        now = self._now()
        self.redispatches += 1
        for hook in self.hooks.redispatched:
            hook(job.job_id, now)
        self._bind(job, target, redispatch=True)

    def rebind_target(self, job: PlanJob, exclude: tuple[str, ...] = ()) -> Optional[str]:
        """Deterministic locality-aware placement for a re-homed job:
        prefer live, non-draining holders of the job's repository (the
        cache mirrors), tie-break on fewest outstanding then name."""
        candidates = [
            state
            for state in self.workers.values()
            if state.alive and not state.draining and state.name not in exclude
        ]
        if not candidates:
            return None
        if job.repo_id is not None:
            holders = [s for s in candidates if s.cache.peek(job.repo_id)]
            if holders:
                candidates = holders
        return min(candidates, key=lambda s: (s.outstanding, s.name)).name

    def _fail(self, job: PlanJob, reason: str) -> None:
        now = self._now()
        self._terminal.add(job.job_id)
        self.failed += 1
        real_job = self._real_jobs[job.job_id]
        for hook in self.hooks.failed:
            hook(real_job, reason, now)
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if (
            self._done is not None
            and not self._done.is_set()
            and self.completed + self.failed >= self.admitted
        ):
            self._done.set()

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Live snapshot (the control plane's ``stats`` verb), computed on read."""
        handoff, done = sorted(self._handoff), max(1, self.completed)
        return {
            "scheduler": self.plan.scheduler,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "crashes": self.crashes,
            "redispatches": self.redispatches,
            "handoff_ms": {
                "count": len(handoff),
                "p50": _pct(handoff, 0.5) * 1e3,
                "p90": _pct(handoff, 0.9) * 1e3,
                "max": _pct(handoff, 1.0) * 1e3,
            },
            "writes_per_job": self._writes / done,
            "write_bytes_per_job": self._written_bytes / done,
            "workers": {
                state.name: {
                    "alive": state.alive,
                    "draining": state.draining,
                    "ready": len(state.ready),
                    "processing": len(state.processing),
                    "depth": state.depth,
                    "wait_ms": state.wait_s * 1e3,
                    "completed": len(state.completed_order),
                    "cached_repos": sorted(state.cache.contents()),
                }
                for state in self.workers.values()
            },
        }

    def _report(self, wall_s: float) -> ExecReport:
        handoff = sorted(self._handoff)
        per_worker_cache = {
            name: (block.cache_hits, block.cache_misses)
            for name, block in self.metrics.workers.items()
        }
        return ExecReport(
            scheduler=self.plan.scheduler,
            seed=self.plan.seed,
            workers=tuple(sorted(self.workers)),
            admitted=self.admitted,
            completed=self.completed,
            failed=self.failed,
            crashes=self.crashes,
            redispatches=self.redispatches,
            duplicates_suppressed=self.duplicates,
            cache_hits=self.metrics.total_cache_hits,
            cache_misses=self.metrics.total_cache_misses,
            data_load_mb=self.metrics.total_mb_downloaded,
            wall_s=wall_s,
            throughput_jobs_per_s=self.completed / wall_s if wall_s > 0 else 0.0,
            handoff_p50_s=_pct(handoff, 0.5),
            handoff_max_s=_pct(handoff, 1.0),
            assigned=tuple(self.assigned_log),
            per_worker_completed={
                state.name: tuple(state.completed_order)
                for state in self.workers.values()
            },
            per_worker_cache=per_worker_cache,
        )


class _Peer(asyncio.Protocol):
    """One connection to the coordinator: a worker's or a control client's.

    ``data_received`` parses every complete line of a read, handles each
    synchronously -- a worker's ``done``, a control client's verb -- and
    ends the turn by writing each worker's dispatches in one batch.  A
    peer that breaks the framing or the schema is dropped at once; a
    worker so dropped, or whose connection ends, is lost at once.
    """

    def __init__(self, backend: ExecBackend) -> None:
        self.backend = backend
        self.parser = protocol.LineParser()
        self.transport: Optional[asyncio.Transport] = None
        self.worker: Optional[_WorkerState] = None
        self.control = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        backend, replies = self.backend, []
        try:
            for message in self.parser.feed(data):
                if self.transport.is_closing():
                    break
                if self.worker is not None:
                    backend._on_worker_message(self.worker, message)
                elif self.control:
                    try:
                        reply = handle_control(backend, message)
                    except Exception as err:
                        reply = {"type": protocol.ERROR, "detail": str(err)}
                    replies.append(protocol.encode(reply))
                else:
                    self._hello(message)
        except protocol.ProtocolError as err:
            if self.worker is not None:
                backend._lose_worker(self.worker, f"protocol error: {err}")
            self.transport.close()
        except Exception as err:  # a broken invariant: end the run with it
            if backend._error is None:
                backend._error = err
                backend._done.set()
        if replies and not self.transport.is_closing():
            self.transport.write(b"".join(replies))
        backend._flush()

    def _hello(self, message: dict[str, Any]) -> None:
        role = message.get("role") if message["type"] == protocol.HELLO else None
        if role == protocol.ROLE_CONTROL:
            self.control = True
            return
        state = self.backend.workers.get(message.get("name"))
        if role != protocol.ROLE_WORKER or state is None or state.transport is not None:
            self.transport.close()
            return
        self.worker = state
        state.transport = self.transport
        state.last_beat = self.backend._now()
        if all(s.transport is not None for s in self.backend.workers.values()):
            self.backend._registered.set()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self.worker is not None:
            self.backend._lose_worker(self.worker, "connection lost")
            self.backend._flush()


def execute_service(
    runtime: "ServiceRuntime", time_scale: float
) -> tuple[ExecPlan, ExecReport, "ServiceReport"]:
    """Run ``runtime`` in the simulator, then replay the plan it captured
    on a real pool at ``time_scale`` wall seconds per simulated second.
    Returns ``(plan, real, report)``: the sim's report (latency stays
    simulated) with the real pool's execution counters spliced in."""
    plan, report = capture_service_plan(runtime)
    real = ExecBackend(plan, ExecConfig(time_scale=time_scale)).run()
    return plan, real, replace(
        report,
        completed=real.completed,
        failed=real.failed,
        cache_hits=real.cache_hits,
        cache_misses=real.cache_misses,
        data_load_mb=real.data_load_mb,
        crashes=real.crashes,
        redispatches=real.redispatches,
        duplicates_suppressed=real.duplicates_suppressed,
    )
