"""Online SLO tracking: streaming latency quantiles and service counters.

A long-running service cannot afford to keep every latency sample just
to answer "what is my p99?", so :class:`P2Quantile` implements the
piecewise-parabolic (P-squared) streaming estimator of Jain & Chlamtac
(CACM 1985): five markers track the running quantile in O(1) memory and
O(1) time per observation, exact until the fifth sample and accurate to
a fraction of a percent thereafter for smooth distributions.

:class:`SLOTracker` composes three such sketches (p50/p95/p99) with the
deadline-miss, shed and queue-depth counters a service dashboard needs,
and :class:`ServiceReport` freezes the end-of-run summary the CLI and
benchmarks print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.metrics.collector import MetricsCollector
from repro.workload.job import Job


class P2Quantile:
    """Streaming estimate of one quantile (the P-squared algorithm)."""

    def __init__(self, q: float) -> None:
        if not 0 < q < 1:
            raise ValueError("q must be in (0, 1)")
        self.q = q
        self._count = 0
        # Marker heights and (1-based) positions; live after 5 samples.
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2 * q, 1.0 + 4 * q, 3.0 + 2 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    @property
    def count(self) -> int:
        """Observations seen so far."""
        return self._count

    def observe(self, x: float) -> None:
        """Feed one observation."""
        self._count += 1
        if self._count <= 5:
            self._heights.append(x)
            self._heights.sort()
            return
        h = self._heights
        # Which marker cell the sample falls into; clamp the extremes.
        if x < h[0]:
            h[0] = x
            cell = 0
        elif x >= h[4]:
            h[4] = x
            cell = 3
        else:
            cell = (x >= h[1]) + (x >= h[2]) + (x >= h[3])
        for i in range(cell + 1, 5):
            self._positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Nudge the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            delta = self._desired[i] - self._positions[i]
            n, n_prev, n_next = self._positions[i], self._positions[i - 1], self._positions[i + 1]
            if (delta >= 1.0 and n_next - n > 1.0) or (delta <= -1.0 and n_prev - n < -1.0):
                d = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, d)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    # Parabolic prediction left the bracket: linear step.
                    j = i + int(d)
                    h[i] += d * (h[j] - h[i]) / (self._positions[j] - n)
                self._positions[i] += d

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def value(self) -> float:
        """Current quantile estimate (0.0 before any observation)."""
        if self._count == 0:
            return 0.0
        if self._count <= 5:
            # Exact from the sorted sample (nearest-rank).
            rank = max(0, min(self._count - 1, round(self.q * (self._count - 1))))
            return self._heights[rank]
        return self._heights[2]


class LatencyStats:
    """p50/p95/p99 sketches plus count, mean and max."""

    def __init__(self) -> None:
        self.p50 = P2Quantile(0.50)
        self.p95 = P2Quantile(0.95)
        self.p99 = P2Quantile(0.99)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, latency_s: float) -> None:
        """Feed one end-to-end latency sample."""
        self.p50.observe(latency_s)
        self.p95.observe(latency_s)
        self.p99.observe(latency_s)
        self.count += 1
        self.total += latency_s
        self.max = max(self.max, latency_s)

    @property
    def mean(self) -> float:
        """Mean latency (0.0 before any sample)."""
        return self.total / self.count if self.count else 0.0


class SLOTracker:
    """Accumulates the service-level view of one open-loop run.

    Latency is measured arrival-to-completion (sojourn time), the
    number a submitting client actually experiences: admission wait +
    scheduling + download + processing.
    """

    def __init__(
        self, metrics: MetricsCollector, deadline_s: Optional[float] = None
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.metrics = metrics
        self.deadline_s = deadline_s
        self.latency = LatencyStats()
        self.arrivals = 0
        self.completed = 0
        self.failed = 0
        self.deadline_misses = 0
        self._arrived_at: dict[str, float] = {}

    def job_arrived(self, now: float, job: Job) -> None:
        """An arrival reached the front door (pre-admission)."""
        self.arrivals += 1
        self._arrived_at[job.job_id] = now

    def job_shed(self, now: float, job: Job, reason: str) -> None:
        """Admission turned the job away."""
        self._arrived_at.pop(job.job_id, None)
        self.metrics.job_shed(now, job, reason)

    def job_completed(self, now: float, job: Job) -> None:
        """The job finished; record its sojourn latency."""
        arrived = self._arrived_at.pop(job.job_id, None)
        if arrived is None:
            return
        latency = now - arrived
        self.latency.observe(latency)
        self.completed += 1
        if self.deadline_s is not None and latency > self.deadline_s:
            self.deadline_misses += 1

    def job_failed(self, now: float, job: Job) -> None:
        """The job was declared permanently failed (fault path)."""
        self._arrived_at.pop(job.job_id, None)
        self.failed += 1


@dataclass(frozen=True)
class ServiceReport:
    """Frozen end-of-run summary of one service execution."""

    scheduler: str
    arrival: str
    seed: int
    duration_s: float
    arrivals: int
    admitted: int
    completed: int
    shed: int
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_mean_s: float
    latency_max_s: float
    deadline_misses: int
    queue_peak: int
    workers_initial: int
    workers_final: int
    workers_peak: int
    scale_ups: int
    scale_downs: int
    cache_hits: int
    cache_misses: int
    data_load_mb: float
    per_tenant_admitted: dict[str, int] = field(default_factory=dict)
    per_tenant_shed: dict[str, int] = field(default_factory=dict)
    # Resilience counters (robustness extension; zero in healthy runs).
    failed: int = 0
    crashes: int = 0
    restarts: int = 0
    redispatches: int = 0
    duplicates_suppressed: int = 0
    recovery_p50_s: float = 0.0
    recovery_p95_s: float = 0.0
    recovery_max_s: float = 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of arrivals turned away."""
        return self.shed / self.arrivals if self.arrivals else 0.0

    @property
    def throughput_jobs_per_s(self) -> float:
        """Completions per simulated second over the arrival window."""
        return self.completed / self.duration_s if self.duration_s else 0.0

    def to_dict(self) -> dict:
        """JSON-friendly flat dict (benchmark output format)."""
        return {
            "scheduler": self.scheduler,
            "arrival": self.arrival,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "latency_p50_s": self.latency_p50_s,
            "latency_p95_s": self.latency_p95_s,
            "latency_p99_s": self.latency_p99_s,
            "latency_mean_s": self.latency_mean_s,
            "latency_max_s": self.latency_max_s,
            "deadline_misses": self.deadline_misses,
            "queue_peak": self.queue_peak,
            "workers_initial": self.workers_initial,
            "workers_final": self.workers_final,
            "workers_peak": self.workers_peak,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "data_load_mb": self.data_load_mb,
            "per_tenant_admitted": dict(self.per_tenant_admitted),
            "per_tenant_shed": dict(self.per_tenant_shed),
            "failed": self.failed,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "redispatches": self.redispatches,
            "duplicates_suppressed": self.duplicates_suppressed,
            "recovery_p50_s": self.recovery_p50_s,
            "recovery_p95_s": self.recovery_p95_s,
            "recovery_max_s": self.recovery_max_s,
        }
