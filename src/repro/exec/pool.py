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

* **Heartbeats with miss-based eviction.**  Workers register with
  ``hello`` and beat every ``heartbeat_s``; a worker silent for
  ``miss_limit`` periods is evicted exactly like a crashed one (this
  catches wedged processes that keep their socket open), and an EOF on
  the connection evicts immediately (SIGKILL detection).

* **Locality-aware re-dispatch.**  The coordinator mirrors each
  worker's :class:`~repro.data.cache.WorkerCache`, so orphans prefer a
  live worker that already holds their repository -- the same locality
  rule the paper's schedulers apply, driven off the same cache model.

* **Reused verification.**  The sim's
  :class:`~repro.check.invariants.InvariantMonitor` and
  :class:`~repro.metrics.collector.MetricsCollector` hooks take plain
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
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.check.invariants import InvariantMonitor
from repro.data.cache import WorkerCache
from repro.exec import protocol
from repro.exec.plan import ExecPlan, PlanJob, PlanWorker
from repro.exec.worker import worker_main
from repro.metrics.collector import MetricsCollector


class ExecError(RuntimeError):
    """The real run could not complete (spawn failure, timeout, ...)."""


@dataclass(frozen=True)
class ExecConfig:
    """Knobs of the real backend.

    ``time_scale`` maps simulated seconds to wall-clock sleeps inside
    workers (0.02 -> a 50 s simulated download costs 1 s real).  The
    heartbeat cadence and miss limit bound crash-detection latency at
    ``heartbeat_s * miss_limit`` real seconds.  ``stall_after`` is the
    chaos hook: ``(worker, n)`` wedges that worker (silence, no
    progress) after ``n`` completions, exercising miss-based eviction.
    """

    time_scale: float = 0.02
    heartbeat_s: float = 0.25
    miss_limit: int = 4
    inflight_per_worker: int = 2
    max_redispatches: int = 3
    run_timeout_s: float = 120.0
    #: Generous: each spawned child re-imports the scientific stack, and
    #: CI runners under load have been seen to need tens of seconds.
    spawn_timeout_s: float = 60.0
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

    def __init__(self, plan_worker: PlanWorker) -> None:
        self.plan = plan_worker
        self.name = plan_worker.name
        self.proc: Optional[multiprocessing.process.BaseProcess] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.registered = asyncio.Event()
        self.alive = True
        self.draining = False
        self.last_beat = 0.0
        #: Bound, not yet dispatched (coordinator-side backlog).
        self.ready: deque[PlanJob] = deque()
        #: Dispatched, awaiting ``done``: job_id -> (job, dispatched_at).
        self.processing: dict[str, tuple[PlanJob, float]] = {}
        #: Mirror of the worker's data cache (locality for re-dispatch).
        self.cache = WorkerCache(
            capacity_mb=plan_worker.cache_capacity_mb
        )
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
        self.monitor = InvariantMonitor() if self.config.check else None
        if self.monitor is not None:
            self.monitor.recovery_enabled = True
            self.metrics.monitor = self.monitor

        from repro.obs.ledger import DecisionLedger

        #: Wall-clock decision ledger (parity with the sim master's):
        #: one record per ``_bind``, timestamped with the backend clock.
        #: Gated with the trace knob -- both are the run's observability.
        self.ledger = DecisionLedger() if self.config.trace else None

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
        self._terminal: set[str] = set()
        self._redispatch_counts: dict[str, int] = {}
        self._handoff: list[float] = []
        self._pending_kills = list(self.kills)
        self._pending_script = list(self.script)
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
        self._done = asyncio.Event()
        for plan_worker in self.plan.workers:
            self.workers[plan_worker.name] = _WorkerState(plan_worker)

        server = await asyncio.start_server(self._on_connection, cfg.host, 0)
        self.port = server.sockets[0].getsockname()[1]
        ctx = multiprocessing.get_context("spawn")
        stall = dict(cfg.stall_after)
        try:
            for state in self.workers.values():
                worker_cfg = {
                    "time_scale": cfg.time_scale,
                    "heartbeat_s": cfg.heartbeat_s,
                }
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
                await asyncio.wait_for(
                    asyncio.gather(
                        *(state.registered.wait() for state in self.workers.values())
                    ),
                    timeout=cfg.spawn_timeout_s,
                )
            except asyncio.TimeoutError:
                missing = sorted(
                    state.name
                    for state in self.workers.values()
                    if not state.registered.is_set()
                )
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

            now = self._now()
            if self.monitor is not None:
                self.monitor.on_service_close(
                    self.admitted, self.completed, self.failed, now
                )
            self.metrics.run_finished(now)
            if self.monitor is not None:
                self.monitor.final_check()
            return self._report(now)
        finally:
            await self._teardown(server)

    async def _teardown(self, server: "asyncio.AbstractServer") -> None:
        for state in self.workers.values():
            if state.writer is not None and state.alive:
                try:
                    protocol.send(state.writer, {"type": protocol.SHUTDOWN})
                except Exception:
                    pass
        # Give workers one heartbeat to exit cleanly, then force.
        await asyncio.sleep(min(0.2, self.config.heartbeat_s))
        for state in self.workers.values():
            proc = state.proc
            if proc is None:
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

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        hello = await protocol.recv(reader)
        if hello is None or hello.get("type") != protocol.HELLO:
            writer.close()
            return
        role = hello.get("role")
        if role == protocol.ROLE_WORKER:
            await self._serve_worker(hello, reader, writer)
        elif role == protocol.ROLE_CONTROL:
            await self._serve_control(reader, writer)
        else:
            writer.close()

    async def _serve_worker(
        self,
        hello: dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        state = self.workers.get(hello.get("name"))
        if state is None or state.writer is not None:
            writer.close()
            return
        state.writer = writer
        state.last_beat = self._now()
        state.registered.set()
        while True:
            message = await protocol.recv(reader)
            if message is None:
                self._lose_worker(state, "connection lost")
                return
            state.last_beat = self._now()
            kind = message["type"]
            if kind == protocol.HEARTBEAT:
                continue
            if kind == protocol.DONE:
                if state.alive:
                    self._on_done(state, message)
            else:  # pragma: no cover - defensive
                raise protocol.ProtocolError(
                    f"unexpected worker message {kind!r} from {state.name}"
                )

    async def _serve_control(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        from repro.exec.control import handle_control

        while True:
            message = await protocol.recv(reader)
            if message is None:
                return
            try:
                reply = handle_control(self, message)
                reply.setdefault("type", protocol.OK)
            except Exception as err:
                reply = {"type": protocol.ERROR, "detail": str(err)}
            try:
                protocol.send(writer, reply)
                await writer.drain()
            except ConnectionError:
                return

    # -- the watchdog ------------------------------------------------------

    async def _watchdog(self) -> None:
        cfg = self.config
        budget = cfg.heartbeat_s * cfg.miss_limit
        while True:
            await asyncio.sleep(cfg.heartbeat_s)
            now = self._now()
            for state in list(self.workers.values()):
                if state.alive and state.writer is not None:
                    if now - state.last_beat > budget:
                        self._lose_worker(
                            state,
                            f"missed {cfg.miss_limit} heartbeats "
                            f"({now - state.last_beat:.2f}s silent)",
                        )

    # -- intake and binding ------------------------------------------------

    def _submit_and_bind(self) -> None:
        now = self._now()
        self.metrics.run_started(now)
        for plan_job in self.plan.jobs:
            self.admitted += 1
            self.metrics.job_submitted(now, plan_job.to_job())
            if self.monitor is not None:
                self.monitor.on_submitted(plan_job.job_id, now)
        if self.monitor is not None:
            for state in self.workers.values():
                repos = [repo for repo, _size in state.plan.preload]
                if repos:
                    self.monitor.on_cache_preload(state.name, repos)
        bound: set[str] = set()
        for decision in self.plan.decisions:
            # A plan captured from a faulty sim run can list a job more
            # than once (sim-side re-dispatch); the real pool owns its
            # own fault handling, so only the first decision executes.
            if decision.job_id in bound:
                continue
            bound.add(decision.job_id)
            self._bind(self._jobs[decision.job_id], decision.worker, redispatch=False)
        self._maybe_finish()

    def _bind(self, job: PlanJob, worker: str, redispatch: bool) -> None:
        state = self.workers[worker]
        now = self._now()
        if self.monitor is not None:
            self.monitor.on_assigned(job.job_id, worker, now)
        self.metrics.job_assigned(now, job.to_job(), worker)
        self.assigned_log.append((job.job_id, worker, redispatch))
        if self.ledger is not None:
            # The sim master's hook, the backend standing in for the
            # policy: a row of the live worker states (locality from the
            # coordinator cache mirror, queue depth = outstanding).
            repo = job.repo_id
            states = [
                (s.name, repo is None or bool(s.cache.peek(repo)), s.outstanding, s.alive)
                for s in self.workers.values()
            ]
            self.ledger.note(now, job, worker, self, (states, redispatch))
        state.ready.append(job)
        self._pump(state)

    #: The ``policy`` of this backend's ledger records.
    name = "exec"

    def decision_context(self, job: PlanJob, worker: str, snapshot: tuple) -> tuple:
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

    def _pump(self, state: _WorkerState) -> None:
        """Move ready -> processing -> wire, respecting the in-flight cap.

        The ``processing`` insert happens *before* the socket write: if
        the write (or the worker) fails at any later point, the job is
        still owned somewhere and the orphan scan will find it.
        """
        cfg = self.config
        while (
            state.alive
            and not state.draining
            and state.ready
            and len(state.processing) < cfg.inflight_per_worker
        ):
            job = state.ready.popleft()
            now = self._now()
            state.processing[job.job_id] = (job, now)
            if self.monitor is not None:
                self.monitor.on_enqueued(job.job_id, state.name, now)
            try:
                protocol.send(
                    state.writer,
                    {
                        "type": protocol.DISPATCH,
                        "job_id": job.job_id,
                        "repo_id": job.repo_id,
                        "size_mb": job.size_mb,
                        "base_compute_s": job.base_compute_s,
                        "handler": job.handler,
                    },
                )
            except Exception:
                self._lose_worker(state, "dispatch write failed")
                return

    # -- completions -------------------------------------------------------

    def _on_done(self, state: _WorkerState, message: dict[str, Any]) -> None:
        job_id = message["job_id"]
        now = self._now()
        if job_id in self._terminal:
            # At-most-once: a re-dispatched job's original owner finished
            # anyway (e.g. eviction raced an in-flight completion).
            job = self._jobs[job_id]
            self.duplicates += 1
            if self.monitor is not None:
                self.monitor.on_duplicate_completion(job_id, state.name, now)
            self.metrics.duplicate_suppressed(now, job.to_job(), state.name)
            return
        entry = state.processing.pop(job_id, None)
        if entry is None:
            raise ExecError(
                f"worker {state.name} completed {job_id!r} it does not own"
            )
        job, dispatched_at = entry
        exec_s = float(message.get("exec_s", 0.0))
        started = max(dispatched_at, now - exec_s)
        real_job = job.to_job()
        cache_hit = message.get("cache_hit")
        if cache_hit is True:
            if self.monitor is not None:
                self.monitor.on_cache_hit(state.name, job.repo_id, now)
            self.metrics.record_cache_hit(started, state.name, real_job)
            state.cache.lookup(job.repo_id)
        elif cache_hit is False:
            if self.monitor is not None:
                self.monitor.on_cache_fetch(state.name, job.repo_id, now)
            self.metrics.record_cache_miss(started, state.name, real_job)
            modelled_fetch = (
                state.plan.link_latency + job.size_mb / state.plan.network_mbps
            ) * self.config.time_scale
            fetch_end = min(now, started + modelled_fetch)
            self.metrics.record_download(
                fetch_end, state.name, real_job, float(message.get("fetched_mb", 0.0))
            )
            state.cache.lookup(job.repo_id)
            state.cache.insert(job.repo_id, job.size_mb)
        if self.monitor is not None:
            self.monitor.on_job_started(job_id, state.name, started)
        self.metrics.job_started(started, real_job, state.name)
        self._terminal.add(job_id)
        if self.monitor is not None:
            self.monitor.on_completed(job_id, state.name, now)
        self.metrics.job_completed(now, real_job, state.name)
        state.completed_order.append(job_id)
        self.completed += 1
        self._handoff.append(max(0.0, now - dispatched_at - exec_s))
        self._run_hooks()
        self._pump(state)
        self._maybe_finish()

    def _run_hooks(self) -> None:
        """Fire scheduled kills and scripted control verbs."""
        while self._pending_kills and self.completed >= self._pending_kills[0].after_done:
            spec = self._pending_kills.pop(0)
            state = self.workers.get(spec.worker)
            if state is not None and state.proc is not None and state.proc.is_alive():
                state.proc.kill()  # SIGKILL; eviction follows via EOF
        if self._pending_script:
            from repro.exec.control import handle_control

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
        self.metrics.worker_crashed(now, state.name)
        if state.proc is not None and state.proc.is_alive():
            # Heartbeat eviction of a wedged-but-running process: the
            # fleet has moved on, so the zombie must not keep executing.
            state.proc.kill()
        if state.writer is not None:
            try:
                state.writer.close()
            except Exception:
                pass
        orphans = [job for job, _at in state.processing.values()]
        orphans.extend(state.ready)
        state.processing.clear()
        state.ready.clear()
        for job in orphans:
            if job.job_id in self._terminal:
                continue
            if self.monitor is not None:
                self.monitor.on_orphaned(job.job_id, now)
            self.metrics.job_orphaned(now, job.to_job(), state.name)
            self._redispatch(job, lost_from=state.name)
        self._maybe_finish()

    def _redispatch(self, job: PlanJob, lost_from: str) -> None:
        now = self._now()
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
        self.redispatches += 1
        if self.monitor is not None:
            self.monitor.on_redispatched(job.job_id, now)
        self.metrics.job_redispatched(now, job.to_job())
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
        if self.monitor is not None:
            self.monitor.on_failed(job.job_id, now)
        self.metrics.job_failed(now, job.to_job(), reason)
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
        """Live snapshot (the control plane's ``stats`` verb)."""
        return {
            "scheduler": self.plan.scheduler,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "crashes": self.crashes,
            "redispatches": self.redispatches,
            "workers": {
                state.name: {
                    "alive": state.alive,
                    "draining": state.draining,
                    "ready": len(state.ready),
                    "processing": len(state.processing),
                    "completed": len(state.completed_order),
                    "cached_repos": sorted(state.cache.contents()),
                }
                for state in self.workers.values()
            },
        }

    def _report(self, wall_s: float) -> ExecReport:
        handoff = sorted(self._handoff)

        def pct(q: float) -> float:
            if not handoff:
                return 0.0
            return handoff[min(len(handoff) - 1, int(q * len(handoff)))]

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
            handoff_p50_s=pct(0.50),
            handoff_max_s=handoff[-1] if handoff else 0.0,
            assigned=tuple(self.assigned_log),
            per_worker_completed={
                state.name: tuple(state.completed_order)
                for state in self.workers.values()
            },
            per_worker_cache=per_worker_cache,
        )
