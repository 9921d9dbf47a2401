"""Structured job-lifecycle event log.

Every scheduler-relevant moment in a run is appended to a
:class:`Trace` as a :class:`TraceEvent`.  The trace powers debugging,
the latency diagnostics in reports, and several integration tests that
assert protocol properties (e.g. "every job is assigned exactly once",
"a baseline job is declined at most once per worker").

Event kinds
-----------
``submitted``   job entered the master (from the source or a parent task)
``announced``   bidding contest opened for the job
``bid``         a worker submitted a bid (detail = cost)
``contest_closed``  contest resolved (detail = winner / "fallback")
``offered``     master offered the job to a pulling worker
``rejected``    worker declined an offer
``accepted``    worker accepted an offer
``assigned``    master bound the job to a worker (any policy)
``started``     worker began executing the job
``download_started`` / ``download_finished``  clone activity (detail = MB)
``cache_hit``   required data was already local
``completed``   worker finished the job
``shed``        admission control turned the job away (detail = reason)
``worker_joined`` / ``worker_retired``  fleet elasticity (worker = name)
``fault_*``     fault-injector actions (crash, restart, degrade, restore,
                partition, heal, loss window edges, skipped actions) --
                surfaced into the main trace so exported timelines show
                injected chaos alongside the job lifecycle
``migrate_*`` / ``swap_*``  live-reconfiguration actions (checkpoint,
                pre-warm, rebind, scheduler hot-swap quiesce/done) --
                see :mod:`repro.reconfig`

Fleet-level events (worker joins, crashes, fault-injector actions) carry
the placeholder job id ``"-"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple, Optional

#: The closed set of valid event kinds (typos fail fast in tests).
EVENT_KINDS = frozenset(
    {
        "submitted",
        "announced",
        "bid",
        "contest_closed",
        "offered",
        "rejected",
        "accepted",
        "assigned",
        "started",
        "download_started",
        "download_finished",
        "cache_hit",
        "completed",
        "shed",
        "worker_joined",
        "worker_retired",
        "worker_crashed",
        "worker_restarted",
        "orphaned",
        "redispatched",
        "failed",
        "duplicate_suppressed",
        "fault_crash",
        "fault_crash_skipped",
        "fault_restart",
        "fault_restart_skipped",
        "fault_degrade",
        "fault_restore",
        "fault_partition",
        "fault_heal",
        "fault_loss_start",
        "fault_loss_end",
        "migrate_request",
        "migrate_checkpoint",
        "migrate_prewarm",
        "migrate_rebind",
        "migrate_skipped",
        "swap_quiesce",
        "swap_done",
        "swap_skipped",
        "swap_stale_drop",
    }
)


class _EventFields(NamedTuple):
    time: float
    kind: str
    job_id: str
    worker: Optional[str] = None
    detail: Any = None


class TraceEvent(_EventFields):
    """One timestamped lifecycle event (immutable; ``kind`` is checked)."""

    __slots__ = ()

    def __new__(cls, time, kind, job_id, worker=None, detail=None):
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        return _new_event(cls, (time, kind, job_id, worker, detail))


#: One C call, no ``__init__``: how ``record`` builds what it checked itself.
_new_event = tuple.__new__


@dataclass
class Trace:
    """An append-only, time-ordered event log for one run.

    ``enabled=False`` turns recording into a no-op for benchmark runs
    where only the aggregate counters matter.
    """

    enabled: bool = True
    events: list[TraceEvent] = field(default_factory=list)
    # Lazily built per-job index.  ``for_job``/``first`` used to scan the
    # whole event list per call, making trace post-processing
    # O(jobs * events) -- the analysis narration and the replay oracle
    # call them once per job.  The index is extended incrementally from a
    # watermark, so interleaved record/query patterns stay cheap, and is
    # rebuilt from scratch only if the event list was truncated externally.
    _by_job: Optional[dict[str, list[TraceEvent]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _indexed_upto: int = field(default=0, init=False, repr=False, compare=False)

    def record(
        self,
        time: float,
        kind: str,
        job_id: str,
        worker: Optional[str] = None,
        detail: Any = None,
    ) -> None:
        """Append one event (no-op when disabled)."""
        if not self.enabled:
            return
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        self.events.append(_new_event(TraceEvent, (time, kind, job_id, worker, detail)))

    def _index(self) -> dict[str, list[TraceEvent]]:
        """Return the per-job index, catching up on newly recorded events."""
        if self._by_job is None or self._indexed_upto > len(self.events):
            self._by_job = {}
            self._indexed_upto = 0
        if self._indexed_upto < len(self.events):
            by_job = self._by_job
            for event in self.events[self._indexed_upto :]:
                bucket = by_job.get(event.job_id)
                if bucket is None:
                    by_job[event.job_id] = [event]
                else:
                    bucket.append(event)
            self._indexed_upto = len(self.events)
        return self._by_job

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All events of one kind, in time order."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        return [event for event in self.events if event.kind == kind]

    def for_job(self, job_id: str) -> list[TraceEvent]:
        """The full lifecycle of one job.

        Served from a lazily built per-job index with an incremental
        watermark.  The invalidation contract:

        * events appended through :meth:`record` (or directly to
          ``events``) after a query are picked up on the next call --
          only the suffix past the watermark is scanned;
        * *truncating* ``events`` (e.g. replacing it with a prefix) is
          detected -- the watermark overshoots and the index rebuilds;
        * replacing or reordering events **in place at the same or
          greater length** is NOT detected: the index still holds the
          old objects.  Post-hoc trace surgery of that shape must reset
          ``_by_job = None`` (or truncate first, then re-append) to
          force a rebuild.
        """
        return list(self._index().get(job_id, ()))

    def first(self, kind: str, job_id: str) -> Optional[TraceEvent]:
        """Earliest event of ``kind`` for ``job_id`` (None if absent)."""
        for event in self._index().get(job_id, ()):
            if event.kind == kind:
                return event
        return None

    def job_latency(self, job_id: str) -> Optional[float]:
        """Submission-to-completion latency for one job, if both ends exist."""
        submitted = self.first("submitted", job_id)
        completed = self.first("completed", job_id)
        if submitted is None or completed is None:
            return None
        return completed.time - submitted.time

    def allocation_delay(self, job_id: str) -> Optional[float]:
        """Submission-to-assignment delay (scheduling overhead) for a job."""
        submitted = self.first("submitted", job_id)
        assigned = self.first("assigned", job_id)
        if submitted is None or assigned is None:
            return None
        return assigned.time - submitted.time
