"""Structured job-lifecycle event log.

Every scheduler-relevant moment in a run is appended to a
:class:`Trace` as a :class:`TraceEvent`.  The trace powers debugging,
the latency diagnostics in reports, and several integration tests that
assert protocol properties (e.g. "every job is assigned exactly once",
"a baseline job is declined at most once per worker").

Event kinds
-----------
The metrics collector writes each row from its handler of the
:mod:`repro.hooks` seam of the same name, or of the seam named last.

``submitted``   job entered the master (from the source or a parent task)
``announced``   bidding contest opened for the job; ``contest_opened``
``bid``         a worker submitted a bid (detail = cost)
``contest_closed``  contest resolved (detail = winner / "fallback")
``offered`` / ``rejected`` / ``accepted``  a pull offer and its answer
``assigned``    master bound the job to a worker (any policy)
``started``     worker began executing the job; ``job_started``
``download_started`` / ``download_finished``  clone activity (detail =
                MB); ``download_started`` / ``cache_fetch``
``cache_hit``   required data was already local
``completed``   worker finished the job
``orphaned`` / ``redispatched`` / ``failed`` / ``duplicate_suppressed``
                recovery; ``duplicate_completion`` for the last
``shed``        admission control turned the job away (worker = reason)
``worker_*``    fleet membership: joined, retired, crashed, restarted
``fault_*``     fault-injector actions (crash, restart, degrade, restore,
                partition, heal, loss window edges, skipped actions) --
                surfaced so exported timelines show injected chaos
                alongside the job lifecycle; ``fault``
``migrate_*`` / ``swap_*``  live-reconfiguration actions -- see
                :mod:`repro.reconfig`; ``migration_checkpoint`` /
                ``migration_rebind`` for checkpoint and rebind

Fleet-level events (worker joins, crashes, fault-injector actions) carry
the placeholder job id :data:`FLEET`.
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


#: Placeholder job id used by fleet-level events (joins, faults).
FLEET = "-"


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
        """The events of one job, in time order.

        A scan: every per-job reading of a whole run goes through
        :func:`repro.metrics.analysis.lifecycles`, one pass for all jobs.
        """
        return [event for event in self.events if event.job_id == job_id]

    def first(self, kind: str, job_id: str) -> Optional[TraceEvent]:
        """Earliest event of ``kind`` for ``job_id`` (None if absent)."""
        for event in self.events:
            if event.kind == kind and event.job_id == job_id:
                return event
        return None
