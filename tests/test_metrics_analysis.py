"""Tests for trace analytics and result persistence."""

import pytest

from repro.metrics.analysis import (
    DistributionSummary,
    RunAnalysis,
    allocation_delays,
    download_concurrency,
    gantt,
    job_latencies,
    queue_timeline,
    summarize,
    worker_utilization,
)
from repro.metrics.report import RunResult
from repro.metrics.trace import Trace
from repro.experiments.report_io import (
    load_csv,
    load_json,
    save_csv,
    save_json,
    to_dict,
    from_dict,
)


def build_trace():
    """Two workers, three jobs with a full lifecycle."""
    trace = Trace()
    rows = [
        (0.0, "submitted", "j1", None, None),
        (0.0, "submitted", "j2", None, None),
        (5.0, "submitted", "j3", None, None),
        (1.0, "assigned", "j1", "w1", None),
        (1.0, "assigned", "j2", "w2", None),
        (6.0, "assigned", "j3", "w1", None),
        (1.0, "started", "j1", "w1", None),
        (1.5, "download_started", "j1", "w1", 10.0),
        (3.0, "download_finished", "j1", "w1", 10.0),
        (1.0, "started", "j2", "w2", None),
        (2.0, "download_started", "j2", "w2", 5.0),
        (2.5, "download_finished", "j2", "w2", 5.0),
        (4.0, "completed", "j1", "w1", None),
        (3.0, "completed", "j2", "w2", None),
        (6.0, "started", "j3", "w1", None),
        (8.0, "completed", "j3", "w1", None),
    ]
    for time, kind, job_id, worker, detail in sorted(rows, key=lambda r: r[0]):
        trace.record(time, kind, job_id, worker, detail)
    return trace


class TestGantt:
    def test_spans_extracted(self):
        spans = gantt(build_trace())
        assert len(spans) == 3
        j1 = next(s for s in spans if s.job_id == "j1")
        assert j1.worker == "w1"
        assert j1.duration == pytest.approx(3.0)

    def test_incomplete_jobs_omitted(self):
        trace = Trace()
        trace.record(1.0, "started", "jx", "w1")
        assert gantt(trace) == []

    def test_ordered_by_start(self):
        spans = gantt(build_trace())
        starts = [s.started for s in spans]
        assert starts == sorted(starts)


class TestUtilization:
    def test_busy_fractions(self):
        util = worker_utilization(build_trace(), makespan=10.0)
        assert util["w1"] == pytest.approx((3.0 + 2.0) / 10.0)
        assert util["w2"] == pytest.approx(2.0 / 10.0)

    def test_invalid_makespan(self):
        with pytest.raises(ValueError):
            worker_utilization(build_trace(), makespan=0.0)


class TestDelaysAndLatencies:
    def test_allocation_delays(self):
        delays = allocation_delays(build_trace())
        assert delays["j1"] == pytest.approx(1.0)
        assert delays["j3"] == pytest.approx(1.0)

    def test_job_latencies(self):
        latencies = job_latencies(build_trace())
        assert latencies["j1"] == pytest.approx(4.0)
        assert latencies["j2"] == pytest.approx(3.0)

    def test_queue_timeline(self):
        timeline = queue_timeline(build_trace(), "w1")
        assert timeline[0] == (1.0, 1)
        assert timeline[-1][1] == 0  # drains to empty

    def test_download_concurrency(self):
        assert download_concurrency(build_trace()) == 2


class TestSummaries:
    def test_distribution_summary(self):
        summary = DistributionSummary.of([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.max == 4.0
        assert summary.p50 == pytest.approx(2.5)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            DistributionSummary.of([])

    def test_summarize_bundle(self):
        analysis = summarize(build_trace(), makespan=10.0)
        assert isinstance(analysis, RunAnalysis)
        assert analysis.peak_download_concurrency == 2
        assert analysis.utilization_imbalance == pytest.approx(0.5 / 0.2)

    def test_summarize_real_run(self):
        from conftest import make_profile, make_spec
        from repro.host import EngineConfig, WorkflowRuntime
        from repro.schedulers.registry import make_scheduler
        from repro.workload.generators import job_config_by_name

        _corpus, stream = job_config_by_name("80%_small").build(seed=7)
        runtime = WorkflowRuntime(
            profile=make_profile(make_spec("w1"), make_spec("w2")),
            stream=stream,
            scheduler=make_scheduler("bidding"),
            config=EngineConfig(seed=7, trace=True),
        )
        result = runtime.run()
        analysis = summarize(runtime.metrics.trace, result.makespan_s)
        assert set(analysis.utilization) <= {"w1", "w2"}
        assert analysis.job_latency.count == 120
        assert analysis.allocation_delay.mean > 0


class TestReportIO:
    def make_result(self, seed=1, iteration=0):
        return RunResult(
            scheduler="bidding",
            workload="80%_large",
            profile="all-equal",
            seed=seed,
            iteration=iteration,
            makespan_s=123.4,
            cache_misses=10,
            cache_hits=110,
            data_load_mb=456.7,
            jobs_completed=120,
            contest_seconds=12.0,
            contests_fallback=1,
            rejections=0,
            per_worker_mb={"w1": 456.7},
            per_worker_jobs={"w1": 120},
        )

    def test_dict_roundtrip(self):
        result = self.make_result()
        assert from_dict(to_dict(result)) == result

    def test_json_roundtrip(self, tmp_path):
        results = [self.make_result(seed=s) for s in (1, 2, 3)]
        path = save_json(results, tmp_path / "out" / "results.json")
        assert load_json(path) == results

    def test_csv_roundtrip_scalars(self, tmp_path):
        results = [self.make_result(iteration=i) for i in range(3)]
        path = save_csv(results, tmp_path / "results.csv")
        loaded = load_csv(path)
        assert [r.makespan_s for r in loaded] == [123.4] * 3
        assert [r.iteration for r in loaded] == [0, 1, 2]
        # Per-worker maps are JSON-only.
        assert loaded[0].per_worker_mb == {}

    def test_csv_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_csv(path)
