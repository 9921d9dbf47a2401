"""Trace analytics: job lifecycles, utilization, queueing and scheduling delay.

The paper's three metrics say *what* happened; these tools say *why*:

* :func:`lifecycles` -- the one reader of a job's path through the run:
  its segments, contest / offer / download windows and terminal event,
  from one pass over the trace.  The span tree, the critical-path tiling
  and the attribution table in :mod:`repro.obs` are projections of it,
* :func:`worker_utilization` -- busy fraction per worker (exposes the
  straggler effect behind Figure 2's Spark columns),
* :func:`allocation_delays` -- submission-to-binding delay per job
  (the Bidding Scheduler's contest overhead, the Baseline's rejection
  round-trips),
* :func:`queue_timeline` -- per-worker backlog over time,
* :func:`gantt` -- per-job execution spans, exportable for plotting,
* :func:`summarize` -- one-call distribution summary used by the
  experiment reports.

All functions are pure readers over a completed run's
:class:`~repro.metrics.trace.Trace` (the trace must have been enabled).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.metrics.trace import FLEET, Trace, TraceEvent


class Segment(NamedTuple):
    """One tile of a job's interval -- ``schedule``, ``queue``, ``run`` or
    ``recovery`` -- with its attempt's worker (for recovery, the lost one)."""

    category: str
    start: float
    end: float
    worker: Optional[str]


@dataclass
class Window:
    """A contest, an offer or a download.  ``end`` is ``None`` while
    unpaired; ``worker`` is the winner, the offeree or the downloader;
    ``detail`` how the contest closed, the offer's answer or the megabytes
    moved; ``attempt`` the index in :attr:`Lifecycle.segments` of the
    schedule segment a contest or an offer belongs to."""

    start: float
    end: Optional[float] = None
    worker: Optional[str] = None
    detail: object = None
    attempt: Optional[int] = None
    bids: int = 0


@dataclass
class Lifecycle:
    """One job's path through the run, read off the trace by :func:`lifecycles`.

    ``segments`` tile ``[submitted, end]``: each attempt is a
    ``schedule`` (submission or re-dispatch to binding), a ``queue``
    (binding to start) and a ``run`` (start to the end of the attempt),
    and an orphaned attempt is followed by ``recovery`` until the job is
    re-dispatched.  Two ordering rules decide the cuts:

    * a run starts at ``started``, even when the master's ``assigned``
      lands later (a pull worker starts a job before its acceptance
      reaches the master): the queue segment is then empty;
    * an orphaned attempt ends its segment, and a re-dispatched job gets
      a fresh schedule, queue and run.
    """

    job_id: str
    submitted: Optional[float] = None
    #: The first ``completed`` or ``failed`` event; ``None`` while open.
    terminal: Optional[TraceEvent] = None
    segments: list[Segment] = field(default_factory=list)
    contests: list[Window] = field(default_factory=list)
    offers: list[Window] = field(default_factory=list)
    #: Paired downloads, in finishing order.
    downloads: list[Window] = field(default_factory=list)
    _state: Optional[str] = None
    _mark: float = 0.0
    _worker: Optional[str] = None
    _attempt: Optional[int] = None
    _downloading: dict = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.terminal is not None and self.terminal.kind == "completed"

    @property
    def end(self) -> float:
        """The terminal instant, or the trace horizon for an open job."""
        return self.segments[-1].end

    def _cut(self, time: float, state: Optional[str]) -> None:
        if self._state is not None:
            self.segments.append(Segment(self._state, self._mark, time, self._worker))
        self._state, self._mark = state, time

    def _begin_attempt(self, time: float) -> None:
        self._cut(time, "schedule")
        self._worker, self._attempt = None, len(self.segments)

    def _read(self, event: TraceEvent) -> None:
        time, kind, worker = event.time, event.kind, event.worker
        if kind == "submitted" and self.submitted is None:
            self.submitted = time
            self._begin_attempt(time)
        elif kind == "announced":
            self.contests.append(Window(time, attempt=self._attempt))
        elif kind == "bid" and self.contests:
            self.contests[-1].bids += 1
        elif kind == "contest_closed" and self.contests and self.contests[-1].end is None:
            contest = self.contests[-1]
            contest.end, contest.worker, contest.detail = time, worker, event.detail
        elif kind == "offered":
            self.offers.append(Window(time, worker=worker, attempt=self._attempt))
        elif kind in ("accepted", "rejected"):
            for offer in self.offers:
                if offer.end is None and offer.worker == worker:
                    offer.end, offer.detail = time, kind
        elif kind in ("assigned", "started"):
            self._worker = worker
            if self._state == "schedule":
                self._cut(time, "queue")
            if kind == "started":
                self._cut(time, "run")
        elif kind == "download_started":
            self._downloading[worker] = time
        elif kind == "download_finished" and worker in self._downloading:
            self.downloads.append(
                Window(self._downloading.pop(worker), time, worker, event.detail)
            )
        elif kind == "orphaned":
            self._cut(time, "recovery")
            self._worker = worker
        elif kind == "redispatched":
            self._begin_attempt(time)
        elif kind in ("completed", "failed"):
            self.terminal = event
            self._cut(time, None)


def lifecycles(trace: Trace) -> dict[str, Lifecycle]:
    """Every job's :class:`Lifecycle`, in first-appearance order, from one
    pass over the trace.  Events after a job's terminal event are ignored;
    an open job's last segment ends at the trace horizon."""
    lives: dict[str, Lifecycle] = {}
    for event in trace.events:
        life = lives.get(event.job_id)
        if life is None and event.job_id != FLEET:
            life = lives[event.job_id] = Lifecycle(event.job_id)
        if life is not None and life.terminal is None:
            life._read(event)
    for life in lives.values():
        life._cut(trace.events[-1].time, None)
    return lives


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-plus-mean summary of a sample."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "DistributionSummary":
        """Summarise ``values`` (raises on empty input)."""
        if len(values) == 0:
            raise ValueError("cannot summarise an empty sample")
        array = np.asarray(values, dtype=float)
        return cls(
            count=int(array.size),
            mean=float(array.mean()),
            p50=float(np.percentile(array, 50)),
            p90=float(np.percentile(array, 90)),
            p99=float(np.percentile(array, 99)),
            max=float(array.max()),
        )


@dataclass(frozen=True)
class GanttSpan:
    """One job's execution span on one worker."""

    job_id: str
    worker: str
    started: float
    finished: float

    @property
    def duration(self) -> float:
        return self.finished - self.started


def _require_trace(trace: Trace) -> None:
    if not trace.enabled and len(trace) == 0:
        raise ValueError(
            "trace is empty; run with EngineConfig(trace=True) to use analysis"
        )


def gantt(trace: Trace) -> list[GanttSpan]:
    """Per-job execution spans (each completed job's last run), ordered by
    start time.

    Jobs killed mid-execution (no completion event) are omitted.
    """
    _require_trace(trace)
    spans: list[GanttSpan] = []
    for life in lifecycles(trace).values():
        last = life.segments[-1] if life.segments else None
        if life.completed and last and last.category == "run" and last.worker is not None:
            spans.append(GanttSpan(life.job_id, last.worker, last.start, last.end))
    spans.sort(key=lambda span: (span.started, span.job_id))
    return spans


def worker_utilization(trace: Trace, makespan: float) -> dict[str, float]:
    """Fraction of the run each worker spent executing jobs.

    A perfectly balanced cluster shows equal values; Spark's straggler
    columns show one worker near 1.0 with the rest idle at the end.
    """
    if makespan <= 0:
        raise ValueError("makespan must be positive")
    busy: dict[str, float] = {}
    for span in gantt(trace):
        busy[span.worker] = busy.get(span.worker, 0.0) + span.duration
    return {worker: seconds / makespan for worker, seconds in busy.items()}


def allocation_delays(trace: Trace) -> dict[str, float]:
    """Submission-to-binding delay per job (scheduling overhead): its
    first schedule segment, for every job that segment bound to a worker
    (only a binding opens a queue segment)."""
    _require_trace(trace)
    return {
        life.job_id: life.segments[0].end - life.segments[0].start
        for life in lifecycles(trace).values()
        if len(life.segments) > 1 and life.segments[1].category == "queue"
    }


def job_latencies(trace: Trace) -> dict[str, float]:
    """Submission-to-completion latency per job."""
    _require_trace(trace)
    return {
        life.job_id: life.end - life.submitted
        for life in lifecycles(trace).values()
        if life.completed and life.submitted is not None
    }


def queue_timeline(trace: Trace, worker: str) -> list[tuple[float, int]]:
    """(time, backlog) steps for one worker.

    Backlog counts jobs assigned/accepted but not yet completed there.
    """
    _require_trace(trace)
    steps: list[tuple[float, int]] = []
    backlog = 0
    for event in trace:
        if event.worker != worker:
            continue
        if event.kind in ("assigned", "accepted"):
            backlog += 1
            steps.append((event.time, backlog))
        elif event.kind == "completed":
            backlog -= 1
            steps.append((event.time, backlog))
    return steps


def download_concurrency(trace: Trace) -> int:
    """Peak number of simultaneous downloads across the cluster."""
    _require_trace(trace)
    events: list[tuple[float, int]] = []
    for event in trace:
        if event.kind == "download_started":
            events.append((event.time, 1))
        elif event.kind == "download_finished":
            events.append((event.time, -1))
    events.sort()
    peak = current = 0
    for _time, delta in events:
        current += delta
        peak = max(peak, current)
    return peak


def ascii_gantt(
    trace: Trace,
    makespan: float,
    width: int = 72,
    max_workers: int = 10,
) -> str:
    """Render per-worker execution timelines as text.

    Each worker gets one row; ``#`` marks time executing, ``.`` idle.
    Sub-cell busy fractions round to the nearest state, so short jobs
    may be invisible at small widths -- this is a load-shape overview
    (stragglers, idle tails), not a per-job chart.
    """
    if makespan <= 0:
        raise ValueError("makespan must be positive")
    if width < 10:
        raise ValueError("width must be at least 10")
    spans = gantt(trace)
    by_worker: dict[str, list[GanttSpan]] = {}
    for span in spans:
        by_worker.setdefault(span.worker, []).append(span)
    lines = []
    cell = makespan / width
    for worker in sorted(by_worker)[:max_workers]:
        busy = np.zeros(width)
        for span in by_worker[worker]:
            start_cell = int(span.started / cell)
            end_cell = min(int(span.finished / cell), width - 1)
            busy[start_cell : end_cell + 1] += 1
        row = "".join("#" if value > 0 else "." for value in busy)
        lines.append(f"{worker:>8s} |{row}|")
    lines.append(f"{'':>8s}  0s{' ' * (width - 10)}{makespan:.0f}s")
    return "\n".join(lines)


@dataclass(frozen=True)
class RunAnalysis:
    """One-call analysis bundle over a completed, traced run."""

    utilization: dict[str, float]
    allocation_delay: DistributionSummary
    job_latency: DistributionSummary
    peak_download_concurrency: int

    @property
    def utilization_imbalance(self) -> float:
        """Max/min utilization ratio (1.0 = perfectly balanced)."""
        values = [v for v in self.utilization.values() if v > 0]
        if not values:
            return 1.0
        return max(values) / min(values)


def summarize(trace: Trace, makespan: float) -> RunAnalysis:
    """Build the full :class:`RunAnalysis` for a traced run."""
    delays = list(allocation_delays(trace).values())
    latencies = list(job_latencies(trace).values())
    return RunAnalysis(
        utilization=worker_utilization(trace, makespan),
        allocation_delay=DistributionSummary.of(delays if delays else [0.0]),
        job_latency=DistributionSummary.of(latencies if latencies else [0.0]),
        peak_download_concurrency=download_concurrency(trace),
    )
