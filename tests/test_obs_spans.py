"""Span-tree construction and coverage."""

import pytest

from repro.experiments.runner import CellSpec, run_cell_observed
from repro.metrics.trace import Trace
from repro.obs import (
    FLEET,
    Span,
    build_spans,
    span_coverage,
)


def synthetic_trace() -> Trace:
    """One bidding-style job lifecycle plus an offer-style one."""
    trace = Trace()
    # j1: contested, assigned, downloaded, executed.
    trace.record(0.0, "submitted", "j1")
    trace.record(0.1, "announced", "j1")
    trace.record(0.3, "bid", "j1", "w1", 5.0)
    trace.record(0.4, "bid", "j1", "w2", 9.0)
    trace.record(1.1, "contest_closed", "j1", "w1", "w1")
    trace.record(1.1, "assigned", "j1", "w1")
    trace.record(1.5, "started", "j1", "w1")
    trace.record(1.5, "download_started", "j1", "w1")
    trace.record(3.0, "download_finished", "j1", "w1", 30.0)
    trace.record(6.0, "completed", "j1", "w1")
    # j2: offered, rejected once, accepted, executed without a download.
    trace.record(0.5, "submitted", "j2")
    trace.record(0.6, "offered", "j2", "w2")
    trace.record(0.8, "rejected", "j2", "w2")
    trace.record(0.9, "offered", "j2", "w1")
    trace.record(1.2, "accepted", "j2", "w1")
    trace.record(1.2, "assigned", "j2", "w1")
    trace.record(6.0, "started", "j2", "w1")
    trace.record(8.0, "completed", "j2", "w1")
    return trace


class TestBuildSpans:
    def test_job_roots_and_children(self):
        spans = build_spans(synthetic_trace())
        by_name = {}
        for span in spans:
            by_name.setdefault((span.trace_id, span.name), []).append(span)

        root = by_name[("j1", "job")][0]
        assert root.parent_id is None
        assert root.start == 0.0 and root.end == 6.0
        assert root.attr("status") == "completed"

        schedule = by_name[("j1", "schedule")][0]
        assert schedule.parent_id == root.span_id
        assert schedule.end == 1.1

        contest = by_name[("j1", "contest")][0]
        assert contest.parent_id == schedule.span_id
        assert contest.attr("bids") == 2
        assert contest.attr("winner") == "w1"

        execute = by_name[("j1", "execute")][0]
        assert execute.parent_id == root.span_id
        assert execute.track == "w1"
        assert execute.start == 1.5 and execute.end == 6.0

        transfer = by_name[("j1", "transfer")][0]
        assert transfer.parent_id == execute.span_id
        assert transfer.attr("mb") == 30.0

    def test_offer_spans_pair_with_their_outcomes(self):
        spans = build_spans(synthetic_trace())
        offers = [s for s in spans if s.trace_id == "j2" and s.name == "offer"]
        assert [(o.attr("worker"), o.attr("outcome")) for o in offers] == [
            ("w2", "rejected"),
            ("w1", "accepted"),
        ]
        assert offers[0].end == 0.8 and offers[1].end == 1.2

    def test_span_ids_unique_and_sequential(self):
        spans = build_spans(synthetic_trace())
        ids = [span.span_id for span in spans]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_prefetch_transfer_parents_under_root(self):
        trace = Trace()
        trace.record(0.0, "submitted", "j1")
        trace.record(0.0, "assigned", "j1", "w1")
        # Prefetch finishes before the job starts running.
        trace.record(0.1, "download_started", "j1", "w1")
        trace.record(0.9, "download_finished", "j1", "w1", 10.0)
        trace.record(2.0, "started", "j1", "w1")
        trace.record(3.0, "completed", "j1", "w1")
        spans = build_spans(trace)
        root = next(s for s in spans if s.name == "job")
        transfer = next(s for s in spans if s.name == "transfer")
        assert transfer.parent_id == root.span_id

    def test_recovery_span_for_orphaned_job(self):
        trace = Trace()
        trace.record(0.0, "submitted", "j1")
        trace.record(0.2, "assigned", "j1", "w1")
        trace.record(1.0, "orphaned", "j1", "w1")
        trace.record(2.5, "redispatched", "j1", "w2")
        trace.record(3.0, "started", "j1", "w2")
        trace.record(5.0, "completed", "j1", "w2")
        spans = build_spans(trace)
        recovery = next(s for s in spans if s.name == "recovery")
        assert recovery.start == 1.0 and recovery.end == 2.5
        assert recovery.attr("lost_worker") == "w1"

    def test_open_job_clamped_to_horizon(self):
        trace = Trace()
        trace.record(0.0, "submitted", "j1")
        trace.record(1.0, "assigned", "j1", "w1")
        trace.record(2.0, "started", "j1", "w1")
        trace.record(9.0, "submitted", "j2")  # horizon extender
        spans = build_spans(trace)
        root = next(s for s in spans if s.trace_id == "j1" and s.name == "job")
        assert root.attr("status") == "open"
        assert root.end == 9.0

    def test_fleet_events_do_not_create_jobs(self):
        trace = Trace()
        trace.record(0.0, "fault_crash", FLEET, "w1")
        trace.record(0.5, "submitted", "j1")
        trace.record(1.0, "completed", "j1", "w1")
        spans = build_spans(trace)
        assert {span.trace_id for span in spans} == {"j1"}

    def test_empty_trace(self):
        assert build_spans(Trace()) == []


class TestSpanCoverage:
    def test_full_coverage_on_connected_tree(self):
        trace = synthetic_trace()
        coverage = span_coverage(trace)
        assert coverage.completed_jobs == 2
        assert coverage.connected_jobs == 2
        assert coverage.fraction == 1.0
        assert coverage.disconnected == ()

    def test_missing_execute_breaks_coverage(self):
        trace = Trace()
        trace.record(0.0, "submitted", "j1")
        trace.record(1.0, "started", "j1", "w1")
        # completed is recorded but the execute span cannot reach it:
        # drop the completion by cutting the trace after `started` and
        # appending a completion far past the horizon of the built spans.
        trace.record(2.0, "completed", "j1", "w1")
        spans = build_spans(trace)
        # Sabotage: remove the execute span to simulate a broken tree.
        spans = [s for s in spans if s.name != "execute"]
        coverage = span_coverage(trace, spans)
        assert coverage.connected_jobs == 0
        assert coverage.disconnected == ("j1",)

    def test_empty_trace_counts_as_full(self):
        assert span_coverage(Trace()).fraction == 1.0


class TestAcceptance:
    """ISSUE acceptance: a fixed-seed full-cell traced run must produce a
    span tree covering every completed job end to end.

    Push-style schedulers (the master calls ``assign`` directly) are
    pinned at exactly 100% -- any regression is a broken lifecycle
    projection, not noise.  Pull-style schedulers reach the same seam
    via ``note_external_assignment``; their floor is pinned separately
    below so a push-path refactor cannot silently eat the pull path's
    coverage (or vice versa).
    """

    @pytest.mark.parametrize("scheduler", ["bidding", "spark"])
    def test_push_span_coverage_is_total(self, scheduler):
        spec = CellSpec(
            scheduler=scheduler,
            workload="80%_small",
            profile="fast-slow",
            seed=7,
            iterations=1,
            engine_overrides=(("trace", True), ("obs", True)),
        )
        results, runtime = run_cell_observed(spec)
        trace = runtime.metrics.trace
        coverage = span_coverage(trace)
        assert coverage.completed_jobs == results[-1].jobs_completed
        assert coverage.fraction == 1.0, coverage.disconnected[:5]

    @pytest.mark.parametrize("scheduler", ["baseline", "matchmaking"])
    def test_pull_span_coverage_floor(self, scheduler):
        # Regression pin at the measured floor (currently also total);
        # lower this only with an explanation of what was lost.
        spec = CellSpec(
            scheduler=scheduler,
            workload="80%_small",
            profile="fast-slow",
            seed=7,
            iterations=1,
            engine_overrides=(("trace", True), ("obs", True)),
        )
        results, runtime = run_cell_observed(spec)
        trace = runtime.metrics.trace
        coverage = span_coverage(trace)
        assert coverage.completed_jobs == results[-1].jobs_completed
        assert coverage.fraction >= 1.0, coverage.disconnected[:5]

