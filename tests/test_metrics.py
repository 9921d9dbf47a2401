"""Unit tests for trace, collector and report."""

import pytest

from repro.metrics.analysis import allocation_delays, job_latencies
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import (
    RunResult,
    format_table,
    mean,
    percent_change,
    speedup,
)
from repro.metrics.trace import Trace, TraceEvent
from repro.workload.job import Job


def make_job(i=0):
    return Job(job_id=f"j{i}", task="t", repo_id=f"r{i}", size_mb=10.0)


class TestTrace:
    def test_record_and_query(self):
        trace = Trace()
        trace.record(1.0, "submitted", "j1")
        trace.record(2.0, "assigned", "j1", worker="w1")
        trace.record(3.0, "completed", "j1", worker="w1")
        assert len(trace) == 3
        assert [e.kind for e in trace.for_job("j1")] == [
            "submitted",
            "assigned",
            "completed",
        ]
        assert len(trace.of_kind("assigned")) == 1

    def test_unknown_kind_rejected(self):
        trace = Trace()
        with pytest.raises(ValueError):
            trace.record(1.0, "teleported", "j1")
        with pytest.raises(ValueError):
            trace.of_kind("teleported")
        with pytest.raises(ValueError):
            TraceEvent(1.0, "bogus", "j1")

    def test_disabled_trace_is_noop(self):
        trace = Trace(enabled=False)
        trace.record(1.0, "submitted", "j1")
        assert len(trace) == 0

    def test_job_latency(self):
        trace = Trace()
        trace.record(1.0, "submitted", "j1")
        trace.record(9.0, "completed", "j1")
        assert job_latencies(trace)["j1"] == pytest.approx(8.0)
        assert "missing" not in job_latencies(trace)

    def test_allocation_delay(self):
        trace = Trace()
        trace.record(1.0, "submitted", "j1")
        trace.record(2.5, "assigned", "j1", worker="w")
        assert allocation_delays(trace)["j1"] == pytest.approx(1.5)

    def test_first_returns_earliest(self):
        trace = Trace()
        trace.record(5.0, "offered", "j1", worker="a")
        trace.record(7.0, "offered", "j1", worker="b")
        assert trace.first("offered", "j1").worker == "a"

    def test_index_catches_up_on_appends(self):
        trace = Trace()
        trace.record(1.0, "submitted", "j1")
        assert len(trace.for_job("j1")) == 1
        # Appends after a query land past the watermark and are picked up.
        trace.record(2.0, "assigned", "j1", worker="w1")
        assert [e.kind for e in trace.for_job("j1")] == ["submitted", "assigned"]

    def test_index_rebuilds_after_truncation(self):
        trace = Trace()
        for t, kind in [(1.0, "submitted"), (2.0, "assigned"), (3.0, "completed")]:
            trace.record(t, kind, "j1", worker="w1")
        assert len(trace.for_job("j1")) == 3
        # Truncation overshoots the watermark -> full rebuild.
        trace.events[:] = trace.events[:1]
        assert [e.kind for e in trace.for_job("j1")] == ["submitted"]


class TestCollector:
    def test_makespan(self):
        metrics = MetricsCollector()
        metrics.run_started(10.0)
        metrics.run_finished(250.0)
        assert metrics.makespan == pytest.approx(240.0)

    def test_makespan_requires_completion(self):
        metrics = MetricsCollector()
        metrics.run_started(0.0)
        with pytest.raises(RuntimeError):
            _ = metrics.makespan

    def test_cache_counters_aggregate_over_workers(self):
        metrics = MetricsCollector()
        job = make_job()
        metrics.record_cache_miss(1.0, "w1", job)
        metrics.record_cache_miss(2.0, "w2", job)
        metrics.record_cache_hit(3.0, "w1", job)
        metrics.record_download(4.0, "w1", job, 10.0)
        metrics.record_download(5.0, "w2", job, 10.0)
        assert metrics.total_cache_misses == 2
        assert metrics.total_cache_hits == 1
        assert metrics.total_mb_downloaded == pytest.approx(20.0)
        assert metrics.workers["w1"].cache_misses == 1

    def test_contest_accounting(self):
        metrics = MetricsCollector()
        job = make_job()
        metrics.contest_opened(0.0, job)
        metrics.bid_received(0.1, job.job_id, "w1", 5.0)
        metrics.contest_closed(1.0, job, "w1", 1.0, "timeout")
        assert metrics.contests_opened == 1
        assert metrics.contests_closed_timeout == 1
        assert metrics.contest_seconds == pytest.approx(1.0)
        assert metrics.workers["w1"].bids_submitted == 1

    def test_contest_outcome_validated(self):
        metrics = MetricsCollector()
        with pytest.raises(ValueError):
            metrics.contest_closed(1.0, make_job(), "w", 1.0, "weird")

    def test_offer_accounting(self):
        metrics = MetricsCollector()
        job = make_job()
        metrics.offer_made(0.0, job, "w1")
        metrics.offer_rejected(0.1, job, "w1")
        metrics.offer_made(0.2, job, "w2")
        metrics.offer_accepted(0.3, job, "w2")
        assert metrics.offers_made == 2
        assert metrics.rejections_seen == 1
        assert metrics.workers["w2"].offers_accepted == 1


class TestReport:
    def make_result(self, **overrides):
        base = dict(
            scheduler="bidding",
            workload="80%_large",
            profile="all-equal",
            seed=1,
            iteration=0,
            makespan_s=100.0,
            cache_misses=10,
            cache_hits=5,
            data_load_mb=500.0,
            jobs_completed=120,
        )
        base.update(overrides)
        return RunResult(**base)

    def test_speedup_and_percent_change(self):
        assert speedup(200.0, 100.0) == pytest.approx(2.0)
        assert percent_change(200.0, 100.0) == pytest.approx(50.0)
        assert percent_change(100.0, 150.0) == pytest.approx(-50.0)

    def test_speedup_validates(self):
        with pytest.raises(ValueError):
            speedup(100.0, 0.0)
        with pytest.raises(ValueError):
            percent_change(0.0, 10.0)

    def test_mean_validates(self):
        with pytest.raises(ValueError):
            mean([])
        assert mean([1.0, 3.0]) == 2.0

    def test_result_validation(self):
        with pytest.raises(ValueError):
            self.make_result(makespan_s=-1.0)
        with pytest.raises(ValueError):
            self.make_result(cache_misses=-1)
        with pytest.raises(ValueError):
            self.make_result(data_load_mb=-0.5)

    def test_format_table_aligns(self):
        table = format_table(["name", "value"], [["a", "1"], ["longer", "22"]])
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1  # all same width

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])
