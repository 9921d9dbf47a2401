"""Per-run metric accumulation.

:class:`MetricsCollector` is the single object engine components report
into during a run.  It accumulates the paper's three headline metrics
(Section 6.1) plus the per-worker breakdowns and scheduling-overhead
diagnostics that the analysis in Sections 6.3.2 and 6.4 relies on.
Contest records are also emitted on the run's ``contest_opened``,
``bid`` and ``contest_closed`` seams (:mod:`repro.hooks`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hooks import Hooks
from repro.metrics.trace import Trace
from repro.workload.job import Job


@dataclass
class WorkerMetrics:
    """Counters for one worker."""

    name: str
    cache_misses: int = 0
    cache_hits: int = 0
    mb_downloaded: float = 0.0
    jobs_completed: int = 0
    busy_seconds: float = 0.0
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
    #: The run's observer seams (see :mod:`repro.hooks`).
    hooks: Hooks = field(default_factory=Hooks, repr=False, compare=False)

    def worker(self, name: str) -> WorkerMetrics:
        """Get-or-create the counter block for ``name``."""
        block = self.workers.get(name)
        if block is None:
            block = WorkerMetrics(name=name)
            self.workers[name] = block
        return block

    # -- run boundaries ----------------------------------------------------

    def run_started(self, now: float) -> None:
        """Mark workflow start (master and workers up)."""
        self.started_at = now

    def run_finished(self, now: float) -> None:
        """Mark workflow completion (all jobs done)."""
        self.finished_at = now

    @property
    def makespan(self) -> float:
        """End-to-end execution time (Section 6.1 metric 1)."""
        if self.started_at is None or self.finished_at is None:
            raise RuntimeError("run has not completed")
        return self.finished_at - self.started_at

    # -- the locality metrics ------------------------------------------------

    def record_cache_hit(self, now: float, worker: str, job: Job) -> None:
        """The worker had the job's data locally."""
        self.worker(worker).cache_hits += 1
        self.trace.record(now, "cache_hit", job.job_id, worker, job.repo_id)

    def record_cache_miss(self, now: float, worker: str, job: Job) -> None:
        """Section 6.1 metric 3: data had to be downloaded/relocated."""
        self.worker(worker).cache_misses += 1
        self.trace.record(now, "download_started", job.job_id, worker, job.size_mb)

    def record_download(self, now: float, worker: str, job: Job, mb: float) -> None:
        """Section 6.1 metric 2: non-local megabytes transferred."""
        self.worker(worker).mb_downloaded += mb
        self.trace.record(now, "download_finished", job.job_id, worker, mb)

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

    def job_submitted(self, now: float, job: Job) -> None:
        self.jobs_submitted += 1
        self.trace.record(now, "submitted", job.job_id)

    def job_assigned(self, now: float, job: Job, worker: str) -> None:
        self.trace.record(now, "assigned", job.job_id, worker)

    def job_started(self, now: float, job: Job, worker: str) -> None:
        self.trace.record(now, "started", job.job_id, worker)

    def job_completed(self, now: float, job: Job, worker: Optional[str]) -> None:
        self.jobs_completed += 1
        if worker is not None:
            self.worker(worker).jobs_completed += 1
        orphaned_at = self._orphaned_at.pop(job.job_id, None)
        if orphaned_at is not None:
            self.recovery_times.append(now - orphaned_at)
        self.trace.record(now, "completed", job.job_id, worker)

    # -- service layer (admission + elasticity) ------------------------------

    def job_shed(self, now: float, job: Job, reason: str) -> None:
        """Admission control turned the job away (queue full / rate cap)."""
        self.jobs_shed += 1
        self.trace.record(now, "shed", job.job_id, reason)

    def worker_joined(self, now: float, worker: str) -> None:
        """A worker entered the fleet mid-run (scale-up)."""
        self.workers_joined += 1
        self.trace.record(now, "worker_joined", "-", worker)

    def worker_retired(self, now: float, worker: str) -> None:
        """A worker left the active set mid-run (scale-down drain)."""
        self.workers_retired += 1
        self.trace.record(now, "worker_retired", "-", worker)

    # -- faults and recovery --------------------------------------------------

    def worker_crashed(self, now: float, worker: str) -> None:
        """Fault injection killed a worker."""
        self.workers_crashed += 1
        self.trace.record(now, "worker_crashed", "-", worker)

    def worker_restarted(self, now: float, worker: str) -> None:
        """A crashed worker rejoined the fleet."""
        self.workers_restarted += 1
        self.trace.record(now, "worker_restarted", "-", worker)

    def job_orphaned(self, now: float, job: Job, worker: Optional[str]) -> None:
        """A job lost its worker (crash or straggler timeout)."""
        self.jobs_orphaned += 1
        # First orphan time anchors the recovery-latency measurement.
        self._orphaned_at.setdefault(job.job_id, now)
        self.trace.record(now, "orphaned", job.job_id, worker)

    def job_redispatched(self, now: float, job: Job) -> None:
        """The master re-dispatched an orphan through the policy."""
        self.jobs_redispatched += 1
        self.trace.record(now, "redispatched", job.job_id)

    def job_failed(self, now: float, job: Job, reason: str) -> None:
        """The job was declared permanently failed."""
        self.jobs_failed += 1
        self._orphaned_at.pop(job.job_id, None)
        self.trace.record(now, "failed", job.job_id, reason)

    def duplicate_suppressed(self, now: float, job: Job, worker: Optional[str]) -> None:
        """At-most-once guard: a second completion for the job arrived."""
        self.duplicates_suppressed += 1
        self.trace.record(now, "duplicate_suppressed", job.job_id, worker)

    # -- live reconfiguration --------------------------------------------------

    def job_migrated(
        self, now: float, job: Job, source: Optional[str], target: Optional[str]
    ) -> None:
        """A checkpointed job was rebound to its migration target."""
        self.jobs_migrated += 1
        self.trace.record(now, "migrate_rebind", job.job_id, target, source)

    def scheduler_swapped(self, now: float, old: str, new: str) -> None:
        """A mid-run scheduler hot-swap completed."""
        self.scheduler_swaps += 1
        self.trace.record(now, "swap_done", "-", None, f"{old}->{new}")

    def record_fault(
        self, now: float, kind: str, worker: Optional[str] = None, detail: object = None
    ) -> None:
        """Surface a fault-injector action (``fault_*`` kind) into the trace.

        Faults are fleet-level events, so they carry the placeholder job
        id ``"-"`` like worker join/crash events do.
        """
        self.trace.record(now, kind, "-", worker, detail)

    # -- scheduling overhead ---------------------------------------------------

    def contest_opened(self, now: float, job: Job) -> None:
        self.contests_opened += 1
        for hook in self.hooks.contest_opened:
            hook(job.job_id, now)
        self.trace.record(now, "announced", job.job_id)

    def bid_received(self, now: float, job_id: str, worker: str, cost: float) -> None:
        self.worker(worker).bids_submitted += 1
        for hook in self.hooks.bid:
            hook(job_id, worker, now)
        self.trace.record(now, "bid", job_id, worker, cost)

    def contest_closed(
        self, now: float, job: Job, winner: Optional[str], duration: float, outcome: str
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
        for hook in self.hooks.contest_closed:
            hook(job.job_id, winner, duration, outcome, now)
        self.trace.record(now, "contest_closed", job.job_id, winner, outcome)

    def offer_made(self, now: float, job: Job, worker: str) -> None:
        self.offers_made += 1
        self.trace.record(now, "offered", job.job_id, worker)

    def offer_rejected(self, now: float, job: Job, worker: str) -> None:
        self.rejections_seen += 1
        self.worker(worker).offers_rejected += 1
        self.trace.record(now, "rejected", job.job_id, worker)

    def offer_accepted(self, now: float, job: Job, worker: str) -> None:
        self.worker(worker).offers_accepted += 1
        self.trace.record(now, "accepted", job.job_id, worker)
