"""Critical-path attribution: exact tiling, chain recovery, determinism."""

import pytest

from conftest import make_profile, make_spec
from repro.host import EngineConfig, WorkflowRuntime
from repro.metrics.trace import Trace
from repro.obs import (
    CATEGORIES,
    critical_path,
    job_breakdown,
    render_critical_path,
)
from repro.schedulers.registry import make_scheduler
from repro.workload.job import Job, JobStream
from repro.workload.msr import TASK_ANALYZER


def hand_trace():
    """One job with every lifecycle phase, hand-timed for exact asserts."""
    trace = Trace()
    trace.record(0.0, "submitted", "j1")
    trace.record(0.0, "announced", "j1")
    trace.record(1.0, "contest_closed", "j1")
    trace.record(1.5, "assigned", "j1", worker="w1")
    trace.record(3.0, "started", "j1", worker="w1")
    trace.record(3.0, "download_started", "j1", worker="w1")
    trace.record(5.0, "download_finished", "j1", worker="w1")
    trace.record(9.0, "completed", "j1", worker="w1")
    return trace


class TestJobBreakdown:
    def test_hand_timed_tiling(self):
        breakdown = job_breakdown(hand_trace(), "j1")
        assert breakdown.worker == "w1"
        assert breakdown.categories == pytest.approx(
            {
                "schedule": 0.5,  # 1.5 total minus the 1.0 contest overlap
                "contest": 1.0,
                "queue": 1.5,
                "transfer": 2.0,
                "execute": 4.0,
                "recovery": 0.0,
            }
        )
        assert sum(breakdown.categories.values()) == pytest.approx(breakdown.latency)

    def test_recovery_segment(self):
        trace = Trace()
        trace.record(0.0, "submitted", "j1")
        trace.record(1.0, "assigned", "j1", worker="w1")
        trace.record(2.0, "started", "j1", worker="w1")
        trace.record(3.0, "orphaned", "j1", worker="w1")
        trace.record(4.0, "redispatched", "j1")
        trace.record(4.5, "assigned", "j1", worker="w2")
        trace.record(5.0, "started", "j1", worker="w2")
        trace.record(7.0, "completed", "j1", worker="w2")
        breakdown = job_breakdown(trace, "j1")
        assert breakdown.worker == "w2"
        assert breakdown.categories["recovery"] == pytest.approx(1.0)
        # Both schedule stints (0->1 and 4->4.5) count.
        assert breakdown.categories["schedule"] == pytest.approx(1.5)
        assert breakdown.categories["queue"] == pytest.approx(1.5)
        assert sum(breakdown.categories.values()) == pytest.approx(7.0)

    def test_incomplete_job_is_none(self):
        trace = Trace()
        trace.record(0.0, "submitted", "j1")
        trace.record(1.0, "assigned", "j1", worker="w1")
        assert job_breakdown(trace, "j1") is None
        assert job_breakdown(trace, "missing") is None


class TestCriticalPath:
    def run_cell(self, scheduler="bidding", seed=5, n=10):
        runtime = WorkflowRuntime(
            profile=make_profile(make_spec("w1"), make_spec("w2"), make_spec("w3")),
            stream=JobStream.burst(
                [
                    Job(
                        job_id=f"j{i}",
                        task=TASK_ANALYZER,
                        repo_id=f"r{i % 3}",
                        size_mb=10.0,
                    )
                    for i in range(n)
                ]
            ),
            scheduler=make_scheduler(scheduler),
            config=EngineConfig(seed=seed, trace=True),
        )
        result = runtime.run()
        return result, runtime.metrics.trace

    @pytest.mark.parametrize("scheduler", ["bidding", "baseline", "spark"])
    def test_categories_tile_makespan_exactly(self, scheduler):
        result, trace = self.run_cell(scheduler)
        path = critical_path(trace)
        assert path is not None
        # The acceptance bound is 1e-6; the tiling is exact up to float
        # addition, so assert far tighter.
        assert sum(path.categories.values()) == pytest.approx(
            path.makespan, abs=1e-9
        )
        assert set(path.categories) == set(CATEGORIES)

    def test_chain_ends_at_last_completion_and_has_zero_slack(self):
        _, trace = self.run_cell()
        path = critical_path(trace)
        completions = {}
        for event in trace.events:
            if event.kind == "completed" and event.job_id not in completions:
                completions[event.job_id] = event.time
        tail = max(completions, key=lambda j: (completions[j], j))
        assert path.chain[-1] == tail
        assert path.slack[tail] == 0.0
        assert all(slack >= 0.0 for slack in path.slack.values())
        # Chain jobs are time-ordered and their breakdowns line up.
        assert [b.job_id for b in path.breakdowns] == list(path.chain)
        for earlier, later in zip(path.breakdowns, path.breakdowns[1:]):
            assert earlier.finished <= later.submitted + 1e-9

    def test_pipeline_children_chain_through_parents(self):
        # A hand trace where j2 is submitted at j1's completion instant:
        # the chain must recover j1 -> j2.
        trace = Trace()
        trace.record(0.0, "submitted", "j1")
        trace.record(1.0, "assigned", "j1", worker="w1")
        trace.record(1.0, "started", "j1", worker="w1")
        trace.record(4.0, "completed", "j1", worker="w1")
        trace.record(4.0, "submitted", "j2")
        trace.record(5.0, "assigned", "j2", worker="w2")
        trace.record(5.0, "started", "j2", worker="w2")
        trace.record(9.0, "completed", "j2", worker="w2")
        path = critical_path(trace)
        assert path.chain == ("j1", "j2")
        assert path.makespan == pytest.approx(9.0)
        assert path.categories["arrival"] == pytest.approx(0.0)
        assert sum(path.categories.values()) == pytest.approx(9.0, abs=1e-12)

    def test_deterministic_across_reruns(self):
        _, trace_a = self.run_cell(seed=9)
        _, trace_b = self.run_cell(seed=9)
        path_a = critical_path(trace_a)
        path_b = critical_path(trace_b)
        assert path_a.chain == path_b.chain
        assert path_a.categories == path_b.categories
        assert path_a.slack == path_b.slack

    def test_empty_and_incomplete_traces(self):
        assert critical_path(Trace()) is None
        trace = Trace()
        trace.record(0.0, "submitted", "j1")
        assert critical_path(trace) is None


class TestRender:
    def test_render_mentions_every_category_and_chain_job(self):
        _, trace = TestCriticalPath().run_cell()
        path = critical_path(trace)
        text = render_critical_path(path)
        for name in CATEGORIES:
            assert name in text
        for job_id in path.chain:
            assert job_id in text
        assert f"{path.makespan:.1f}" in text
