"""Per-run metric accumulation.

:class:`MetricsCollector` accumulates the paper's three headline
metrics (Section 6.1) plus the per-worker breakdowns and
scheduling-overhead diagnostics that the analysis in Sections 6.3.2 and
6.4 relies on, and writes the run's :class:`~repro.metrics.trace.Trace`.
It is a watcher like any other: the host subscribes it, first, to the
run's :class:`~repro.hooks.Hooks` table, and each ``on_<seam>`` handler
below updates its counters and writes the seam's trace row (the trace
module lists the seam behind each event kind).  No model code calls it;
what a report or an oracle reads off it are totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.metrics.trace import FLEET, Trace
from repro.workload.job import Job


@dataclass
class WorkerMetrics:
    """Counters for one worker."""

    name: str
    cache_misses: int = 0
    cache_hits: int = 0
    mb_downloaded: float = 0.0
    jobs_completed: int = 0
    bids_submitted: int = 0
    offers_rejected: int = 0
    offers_accepted: int = 0


@dataclass
class MetricsCollector:
    """Accumulates everything measured during one workflow run."""

    trace: Trace = field(default_factory=Trace)
    workers: dict[str, WorkerMetrics] = field(default_factory=dict)

    # Run boundaries.
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    # Master-side counters.
    jobs_submitted: int = 0
    jobs_completed: int = 0
    contests_opened: int = 0
    contests_closed_full: int = 0  # all workers bid before the window
    contests_closed_fast: int = 0  # fast-local-close short circuit (extension)
    contests_closed_timeout: int = 0  # window expired with >=1 bid
    contests_fallback: int = 0  # window expired with zero bids
    contest_seconds: float = 0.0  # total time jobs spent in open contests
    offers_made: int = 0
    rejections_seen: int = 0

    # Service-layer counters (open-loop runs; zero for workflow runs).
    jobs_shed: int = 0
    workers_joined: int = 0
    workers_retired: int = 0

    # Fault/recovery counters (robustness extension; zero in clean runs).
    workers_crashed: int = 0
    workers_restarted: int = 0
    jobs_orphaned: int = 0
    jobs_redispatched: int = 0
    jobs_failed: int = 0
    duplicates_suppressed: int = 0

    # Live-reconfiguration counters (repro.reconfig; zero when unused).
    jobs_migrated: int = 0
    scheduler_swaps: int = 0
    #: Orphan-to-completion delays, one entry per recovered job.
    recovery_times: list = field(default_factory=list)
    _orphaned_at: dict = field(default_factory=dict)

    def worker(self, name: str) -> WorkerMetrics:
        """Get-or-create the counter block for ``name``."""
        block = self.workers.get(name)
        if block is None:
            block = WorkerMetrics(name=name)
            self.workers[name] = block
        return block

    # -- run boundaries ----------------------------------------------------

    def on_run_started(self, now: float) -> None:
        """Workflow start (master and workers up)."""
        self.started_at = now

    def on_run_finished(self, now: float) -> None:
        """Workflow completion (all jobs done)."""
        self.finished_at = now

    @property
    def makespan(self) -> float:
        """End-to-end execution time (Section 6.1 metric 1)."""
        if self.started_at is None or self.finished_at is None:
            raise RuntimeError("run has not completed")
        return self.finished_at - self.started_at

    # -- the locality metrics ------------------------------------------------

    def on_cache_hit(self, job: Job, worker: str, now: float) -> None:
        """The worker had the job's data locally."""
        self.worker(worker).cache_hits += 1
        self.trace.record(now, "cache_hit", job.job_id, worker, job.repo_id)

    def on_download_started(self, job: Job, worker: str, now: float) -> None:
        """Section 6.1 metric 3: data had to be downloaded/relocated."""
        self.worker(worker).cache_misses += 1
        self.trace.record(now, "download_started", job.job_id, worker, job.size_mb)

    def record_download(self, job: Job, worker: str, mb: float, now: float) -> None:
        """Section 6.1 metric 2: non-local megabytes transferred."""
        self.worker(worker).mb_downloaded += mb
        self.trace.record(now, "download_finished", job.job_id, worker, mb)

    # The handler keeps its old name: the benchmark's ledger counts
    # finished downloads as calls of ``MetricsCollector.record_download``.
    on_cache_fetch = record_download

    @property
    def total_cache_misses(self) -> int:
        """Cluster-wide cache misses for the run."""
        return sum(w.cache_misses for w in self.workers.values())

    @property
    def total_cache_hits(self) -> int:
        """Cluster-wide cache hits for the run."""
        return sum(w.cache_hits for w in self.workers.values())

    @property
    def total_mb_downloaded(self) -> float:
        """Cluster-wide data load (MB) for the run."""
        return sum(w.mb_downloaded for w in self.workers.values())

    # -- job lifecycle -------------------------------------------------------

    def on_submitted(self, job_id: str, now: float) -> None:
        self.jobs_submitted += 1
        self.trace.record(now, "submitted", job_id)

    def on_assigned(self, job: Job, worker: str, policy, now: float) -> None:
        self.trace.record(now, "assigned", job.job_id, worker)

    def on_job_started(self, job_id: str, worker: str, now: float) -> None:
        self.trace.record(now, "started", job_id, worker)

    def on_completed(self, job: Job, worker: Optional[str], now: float) -> None:
        self.jobs_completed += 1
        if worker is not None:
            self.worker(worker).jobs_completed += 1
        orphaned_at = self._orphaned_at.pop(job.job_id, None)
        if orphaned_at is not None:
            self.recovery_times.append(now - orphaned_at)
        self.trace.record(now, "completed", job.job_id, worker)

    # -- service layer (admission + elasticity) ------------------------------

    def on_shed(self, job_id: str, reason: str, now: float) -> None:
        """Admission control turned the job away (queue full / rate cap)."""
        self.jobs_shed += 1
        self.trace.record(now, "shed", job_id, reason)

    def on_worker_joined(self, worker: str, now: float) -> None:
        """A worker entered the fleet mid-run (scale-up)."""
        self.workers_joined += 1
        self.trace.record(now, "worker_joined", FLEET, worker)

    def on_worker_retired(self, worker: str, now: float) -> None:
        """A worker left the active set mid-run (scale-down drain)."""
        self.workers_retired += 1
        self.trace.record(now, "worker_retired", FLEET, worker)

    # -- faults and recovery --------------------------------------------------

    def on_worker_crashed(self, worker: str, now: float) -> None:
        """Fault injection killed a worker."""
        self.workers_crashed += 1
        self.trace.record(now, "worker_crashed", FLEET, worker)

    def on_worker_restarted(self, worker: str, now: float) -> None:
        """A crashed worker rejoined the fleet."""
        self.workers_restarted += 1
        self.trace.record(now, "worker_restarted", FLEET, worker)

    def on_orphaned(self, job_id: str, worker: Optional[str], now: float) -> None:
        """A job lost its worker (crash or straggler timeout)."""
        self.jobs_orphaned += 1
        # First orphan time anchors the recovery-latency measurement.
        self._orphaned_at.setdefault(job_id, now)
        self.trace.record(now, "orphaned", job_id, worker)

    def on_redispatched(self, job_id: str, now: float) -> None:
        """The master re-dispatched an orphan through the policy."""
        self.jobs_redispatched += 1
        self.trace.record(now, "redispatched", job_id)

    def on_failed(self, job: Job, reason: str, now: float) -> None:
        """The job was declared permanently failed."""
        self.jobs_failed += 1
        self._orphaned_at.pop(job.job_id, None)
        self.trace.record(now, "failed", job.job_id, reason)

    def on_duplicate_completion(self, job_id: str, worker: Optional[str], now: float) -> None:
        """At-most-once guard: a second completion for the job arrived."""
        self.duplicates_suppressed += 1
        self.trace.record(now, "duplicate_suppressed", job_id, worker)

    def on_fault(self, kind: str, detail: str, now: float) -> None:
        """A fault-injector action, as a ``fault_*`` row: a crash or a
        restart names its worker in the worker column."""
        if kind in ("crash", "restart"):
            self.trace.record(now, "fault_" + kind, FLEET, detail)
        else:
            self.trace.record(now, "fault_" + kind.replace("-", "_"), FLEET, None, detail)

    # -- live reconfiguration --------------------------------------------------

    def on_migrate_request(self, source: str, max_jobs: int, now: float) -> None:
        self.trace.record(now, "migrate_request", FLEET, source, max_jobs)

    def on_migrate_skipped(self, source: Optional[str], reason: str, now: float) -> None:
        self.trace.record(now, "migrate_skipped", FLEET, source, reason)

    def on_migrate_prewarm(self, job_id: str, target: str, repo_id: str, now: float) -> None:
        self.trace.record(now, "migrate_prewarm", job_id, target, repo_id)

    def on_migration_checkpoint(self, job_id: str, source: str, now: float) -> None:
        self.trace.record(now, "migrate_checkpoint", job_id, source)

    def on_migration_rebind(
        self, job_id: str, source: Optional[str], target: str, now: float
    ) -> None:
        """A checkpointed job is rebound to its migration target."""
        self.jobs_migrated += 1
        self.trace.record(now, "migrate_rebind", job_id, target, source)

    def on_swap_quiesce(self, old: str, new: str, now: float) -> None:
        self.trace.record(now, "swap_quiesce", FLEET, None, f"{old}->{new}")

    def on_swap_skipped(self, reason: str, now: float) -> None:
        self.trace.record(now, "swap_skipped", FLEET, None, reason)

    def on_swap_done(self, old: str, new: str, now: float) -> None:
        """A mid-run scheduler hot-swap completed."""
        self.scheduler_swaps += 1
        self.trace.record(now, "swap_done", FLEET, None, f"{old}->{new}")

    def on_swap_stale_drop(self, worker: Optional[str], message: object, now: float) -> None:
        self.trace.record(now, "swap_stale_drop", FLEET, worker, type(message).__name__)

    # -- scheduling overhead ---------------------------------------------------

    def contest_opened(self, job_id: str, now: float) -> None:
        self.contests_opened += 1
        self.trace.record(now, "announced", job_id)

    # The benchmark's ledger counts contests as calls of this name.
    on_contest_opened = contest_opened

    def on_bid(self, job_id: str, worker: str, cost: float, now: float) -> None:
        self.worker(worker).bids_submitted += 1
        self.trace.record(now, "bid", job_id, worker, cost)

    def on_contest_closed(
        self, job_id: str, winner: Optional[str], duration: float, outcome: str, now: float
    ) -> None:
        """Record contest resolution; ``outcome`` is one of ``full``/
        ``fast``/``timeout``/``fallback``."""
        if outcome == "full":
            self.contests_closed_full += 1
        elif outcome == "fast":
            self.contests_closed_fast += 1
        elif outcome == "timeout":
            self.contests_closed_timeout += 1
        elif outcome == "fallback":
            self.contests_fallback += 1
        else:
            raise ValueError(f"unknown contest outcome {outcome!r}")
        self.contest_seconds += duration
        self.trace.record(now, "contest_closed", job_id, winner, outcome)

    def on_offered(self, job_id: str, worker: str, now: float) -> None:
        self.offers_made += 1
        self.trace.record(now, "offered", job_id, worker)

    def on_rejected(self, job_id: str, worker: str, now: float) -> None:
        self.rejections_seen += 1
        self.worker(worker).offers_rejected += 1
        self.trace.record(now, "rejected", job_id, worker)

    def on_accepted(self, job_id: str, worker: str, now: float) -> None:
        self.worker(worker).offers_accepted += 1
        self.trace.record(now, "accepted", job_id, worker)
