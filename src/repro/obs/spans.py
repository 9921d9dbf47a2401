"""Causal span model over the flat job-lifecycle trace.

The engine's :class:`~repro.metrics.trace.Trace` is a flat, time-ordered
event log.  This module promotes it into a *span tree*: every job gets a
root ``job`` span (submit -> terminal) whose children reconstruct the
path the job took across master, broker and workers --

``schedule``
    master-side allocation work (submission to binding), containing a
    ``contest`` span (bidding policies) and one ``offer`` span per
    master offer (pull policies),
``queued`` / ``execute``
    worker-side wait and run phases, with ``transfer`` child spans for
    clone activity overlapping execution (or preceding it, for
    prefetches),
``recovery``
    orphan-to-redispatch windows after worker crashes.

Spans carry ``trace_id`` (the job id), a globally unique ``span_id`` and
a ``parent_id``, so exporters can emit them as a connected tree and the
coverage check can verify the submit -> complete path is linked end to
end.  Construction is a post-hoc projection of each job's
:class:`~repro.metrics.analysis.Lifecycle`: it allocates no per-event
state during the run and is deterministic for a fixed trace.

The causal links come from that projection alone: every trace event
names its job, so a job's events are its path through master, broker
and workers whatever order the messages took, and the parent ids are
assigned here.  No context travels on the engine's messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.metrics.analysis import lifecycles
from repro.metrics.trace import FLEET, Trace


@dataclass(frozen=True)
class Span:
    """One closed interval in a job's causal tree."""

    name: str
    trace_id: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float
    track: str
    attrs: tuple[tuple[str, object], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr(self, key: str, default: object = None) -> object:
        for name, value in self.attrs:
            if name == key:
                return value
        return default


def build_spans(trace: Trace) -> list[Span]:
    """Project every job's :class:`~repro.metrics.analysis.Lifecycle`
    onto the span forest.

    Jobs appear in first-appearance order; span ids are allocated
    sequentially so output is deterministic for a fixed trace.  Each
    lifecycle segment becomes one span -- ``schedule`` and ``recovery``
    on the master track, ``queued`` and ``execute`` on the attempt's
    worker -- with the attempt's contests and offers under its
    ``schedule`` span, clipped to it.  A download inside a run on its
    worker hangs off that ``execute`` span, any other (a prefetch) off
    the root.  Jobs with no terminal event (still running when the trace
    was cut) get an open root clamped to the trace horizon.
    """
    spans: list[Span] = []

    def make(name, parent, start, end, track, attrs=()) -> Span:
        # A span of the job being projected (``job_id`` of the loop below).
        span = Span(name, job_id, len(spans) + 1, parent, start, max(start, end), track, attrs)
        spans.append(span)
        return span

    for job_id, life in lifecycles(trace).items():
        if life.submitted is None:
            continue  # shed-only or synthetic entries have no lifecycle to span
        terminal = life.terminal
        root = make(
            "job",
            None,
            life.submitted,
            life.end,
            "master",
            (
                ("status", terminal.kind if terminal else "open"),
                ("worker", terminal.worker if terminal else None),
            ),
        ).span_id
        runs: list[Span] = []
        for index, (category, start, end, worker) in enumerate(life.segments):
            if category == "schedule":
                schedule = make("schedule", root, start, end, "master", (("worker", worker),))
                for contest in life.contests:
                    if contest.attempt == index:
                        closed = end if contest.end is None else min(contest.end, end)
                        attrs = (
                            ("bids", contest.bids),
                            ("outcome", contest.detail),
                            ("winner", contest.worker),
                        )
                        make("contest", schedule.span_id, contest.start, closed, "master", attrs)
                for offer in life.offers:
                    if offer.attempt == index:
                        answered = offer.start if offer.end is None else min(offer.end, end)
                        attrs = (("worker", offer.worker), ("outcome", offer.detail or "open"))
                        make("offer", schedule.span_id, offer.start, answered, "master", attrs)
            elif category == "recovery":
                make("recovery", root, start, end, "master", (("lost_worker", worker),))
            elif category == "queue":
                make("queued", root, start, end, worker or "?")
            else:
                runs.append(make("execute", root, start, end, worker or "?"))
        for download in life.downloads:
            parent = next(
                (
                    run.span_id
                    for run in runs
                    if run.track == download.worker
                    and run.start <= download.start
                    and download.end <= run.end
                ),
                root,
            )
            attrs = (("mb", download.detail),)
            make("transfer", parent, download.start, download.end, download.worker or "?", attrs)
    return spans


@dataclass(frozen=True)
class SpanCoverage:
    """How much of the completed-job population the span tree connects."""

    completed_jobs: int
    connected_jobs: int
    disconnected: tuple[str, ...] = ()

    @property
    def fraction(self) -> float:
        if self.completed_jobs == 0:
            return 1.0
        return self.connected_jobs / self.completed_jobs


def span_coverage(trace: Trace, spans: Optional[list[Span]] = None) -> SpanCoverage:
    """Fraction of completed jobs whose submit -> complete path is linked.

    A job counts as connected when its root ``job`` span is closed with
    status ``completed`` and -- if the job actually ran on a worker --
    an ``execute`` span parented (directly) under that root reaches the
    completion time.  Jobs resolved inline by the master (no run) are
    connected through the root alone.
    """
    if spans is None:
        spans = build_spans(trace)
    roots = {span.trace_id: span for span in spans if span.name == "job"}
    reached = {
        span.trace_id
        for span in spans
        if span.name == "execute"
        and (root := roots.get(span.trace_id)) is not None
        and span.parent_id == root.span_id
        and span.end >= root.end - 1e-9
    }
    completed = [life for life in lifecycles(trace).values() if life.completed]
    disconnected = tuple(
        life.job_id
        for life in completed
        if life.job_id not in roots
        or roots[life.job_id].attr("status") != "completed"
        or (any(seg.category == "run" for seg in life.segments) and life.job_id not in reached)
    )
    return SpanCoverage(len(completed), len(completed) - len(disconnected), disconnected)


__all__ = ["FLEET", "Span", "SpanCoverage", "build_spans", "span_coverage"]
