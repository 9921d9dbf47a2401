"""Admission control: bounded queueing, rate limiting, tenant fairness.

An open-loop service cannot control its arrival rate, so it must decide
at the front door which jobs to take.  :class:`AdmissionController`
implements the three standard defences:

* a **bounded pending queue** -- depth never exceeds ``queue_cap``, so
  a flash crowd cannot grow latency without bound;
* an optional **token bucket** rate limiter smoothing sustained
  overload before it reaches the queue;
* a choice of overload **policy**: ``"reject"`` sheds the job
  immediately (load shedding), ``"delay"`` asks the caller to hold the
  arrival until space frees up (backpressure on the submitting client).

Dequeue order is weighted-fair across tenants (start-time fair queueing
on job counts): each tenant accumulates virtual service inversely
proportional to its weight, and the backlogged tenant with the least
accumulated service goes next.  A tenant that idles does not bank
credit -- on re-arrival its virtual clock jumps forward to the current
minimum, the classic SFQ rule.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Overload policies.
POLICY_REJECT = "reject"
POLICY_DELAY = "delay"

#: Decision actions.
ADMIT = "admit"
SHED = "shed"
DELAY = "delay"


@dataclass(frozen=True)
class AdmissionConfig:
    """Front-door knobs for the service.

    Parameters
    ----------
    queue_cap:
        Hard bound on the pending queue depth (jobs admitted but not yet
        handed to the master).
    policy:
        What to do when a job cannot be admitted right now:
        ``"reject"`` sheds it, ``"delay"`` applies backpressure (the
        arrival blocks until admission becomes possible).
    rate_limit:
        Sustained admission rate cap in jobs/second (token-bucket rate),
        or ``None`` for unlimited.
    rate_burst:
        Token-bucket capacity: how many jobs may be admitted
        back-to-back after an idle period.
    tenant_weights:
        Relative dequeue shares per tenant.  Tenants not listed get
        weight 1.0.
    """

    queue_cap: int = 64
    policy: str = POLICY_REJECT
    rate_limit: Optional[float] = None
    rate_burst: float = 10.0
    tenant_weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.queue_cap < 1:
            raise ValueError("queue_cap must be positive")
        if self.policy not in (POLICY_REJECT, POLICY_DELAY):
            raise ValueError(f"policy must be {POLICY_REJECT!r} or {POLICY_DELAY!r}")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError("rate_limit must be positive")
        if self.rate_burst < 1:
            raise ValueError("rate_burst must be at least 1")
        if any(w <= 0 for w in self.tenant_weights.values()):
            raise ValueError("tenant weights must be positive")


@dataclass(frozen=True)
class Decision:
    """Outcome of offering one job to the controller.

    ``action`` is ``"admit"``, ``"shed"`` or ``"delay"``; ``reason``
    names the binding constraint (``queue_full`` / ``rate_limited``);
    ``retry_after_s`` is the suggested wait before retrying a delayed
    offer (0 when the caller should instead wait for queue space).
    """

    action: str
    reason: Optional[str] = None
    retry_after_s: float = 0.0


class TokenBucket:
    """Lazy-refill token bucket: ``rate`` tokens/second, ``burst`` cap."""

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now

    def try_take(self, now: float) -> bool:
        """Consume one token if available."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def time_until_token(self, now: float) -> float:
        """Seconds until one token will be available (0 if already is).

        Never shorter than the step from ``now`` to the next float: a
        deficit of a few ulps would otherwise round ``now + wait`` back
        to ``now``, and a retry at that instant finds the bucket as it
        left it, forever.
        """
        self._refill(now)
        if self._tokens >= 1.0:
            return 0.0
        return max((1.0 - self._tokens) / self.rate, math.nextafter(now, math.inf) - now)


class AdmissionController:
    """The service front door: bounded, rate-limited, tenant-fair.

    The controller is passive -- the service's injector *offers* jobs
    and its dispatcher *takes* them; a held arrival waits in the
    injector, which hands in the callback that resumes it.
    """

    def __init__(self, sim: "Simulator", config: AdmissionConfig) -> None:
        self.sim = sim
        self.config = config
        self.bucket = (
            TokenBucket(config.rate_limit, config.rate_burst)
            if config.rate_limit is not None
            else None
        )
        self._queues: dict[str, deque[Job]] = {}
        self._service: dict[str, float] = {}
        self._space_waiters: list[tuple[Callable[..., None], tuple]] = []

        # Counters for the SLO report.
        self.admitted = 0
        self.shed_queue_full = 0
        self.shed_rate_limited = 0
        self.depth_peak = 0
        self.per_tenant_admitted: dict[str, int] = {}
        self.per_tenant_shed: dict[str, int] = {}

    # -- state -------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Jobs currently pending (admitted, not yet dequeued)."""
        return sum(len(q) for q in self._queues.values())

    @property
    def shed(self) -> int:
        """Total jobs turned away."""
        return self.shed_queue_full + self.shed_rate_limited

    def _weight(self, tenant: str) -> float:
        return self.config.tenant_weights.get(tenant, 1.0)

    # -- the front door ----------------------------------------------------

    def offer(self, job: Job, tenant: str) -> Decision:
        """Offer one arriving job; admit, shed, or request a delay.

        An admitted job is enqueued immediately.  Under the ``delay``
        policy the caller must honour the returned hint -- wait
        ``retry_after_s`` (rate limiting) or :meth:`wait_for_space`
        (queue full) -- and offer the job again.
        """
        now = self.sim.now
        if self.bucket is not None and not self.bucket.try_take(now):
            if self.config.policy == POLICY_DELAY:
                return Decision(DELAY, "rate_limited", self.bucket.time_until_token(now))
            self.per_tenant_shed[tenant] = self.per_tenant_shed.get(tenant, 0) + 1
            self.shed_rate_limited += 1
            return Decision(SHED, "rate_limited")
        if self.depth >= self.config.queue_cap:
            if self.config.policy == POLICY_DELAY:
                return Decision(DELAY, "queue_full")
            self.per_tenant_shed[tenant] = self.per_tenant_shed.get(tenant, 0) + 1
            self.shed_queue_full += 1
            return Decision(SHED, "queue_full")
        self._enqueue(job, tenant)
        return Decision(ADMIT)

    def _enqueue(self, job: Job, tenant: str) -> None:
        queue = self._queues.setdefault(tenant, deque())
        if not queue:
            # SFQ catch-up: an idle tenant re-enters at the current
            # virtual time instead of cashing in banked credit.
            floor = min(
                (self._service[t] for t, q in self._queues.items() if q and t != tenant),
                default=0.0,
            )
            self._service[tenant] = max(self._service.get(tenant, 0.0), floor)
        queue.append(job)
        self.admitted += 1
        self.per_tenant_admitted[tenant] = self.per_tenant_admitted.get(tenant, 0) + 1
        self.depth_peak = max(self.depth_peak, self.depth)

    # -- the back door -----------------------------------------------------

    def next_job(self) -> Optional[tuple[Job, str]]:
        """Dequeue the next job, weighted-fair across backlogged tenants."""
        backlogged = [t for t, q in self._queues.items() if q]
        if not backlogged:
            return None
        tenant = min(backlogged, key=lambda t: (self._service[t], t))
        job = self._queues[tenant].popleft()
        self._service[tenant] += 1.0 / self._weight(tenant)
        self._wake_space_waiters()
        return job, tenant

    # -- backpressure plumbing ---------------------------------------------

    def wait_for_space(self, callback: Callable[..., None], *args: object) -> None:
        """Call ``callback(*args)`` once queue space frees up: in a turn
        of this instant if the queue is already below its cap, else in
        one of the instant a dequeue makes room."""
        if self.depth < self.config.queue_cap:
            self.sim.call_soon(callback, *args, urgent=False)
        else:
            self._space_waiters.append((callback, args))

    def _wake_space_waiters(self) -> None:
        if self.depth >= self.config.queue_cap:
            return
        waiters, self._space_waiters = self._space_waiters, []
        for callback, args in waiters:
            self.sim.call_soon(callback, *args, urgent=False)
