"""Tests for stats, ASCII charts and trace replay."""

import json

import numpy as np
import pytest

from repro.metrics.ascii_chart import bar_chart, grouped_bar_chart
from repro.metrics.stats import (
    Comparison,
    bootstrap_ci,
    bootstrap_ratio_ci,
    compare,
    mean_std,
    rank_sum_pvalue,
)
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.replay import load_trace, save_trace


class TestMeanStd:
    def test_basic(self):
        mean, std = mean_std([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)

    def test_single_value(self):
        assert mean_std([5.0]) == (5.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_std([])


class TestBootstrap:
    def test_ci_contains_mean_for_tight_sample(self):
        values = [10.0, 10.1, 9.9, 10.05, 9.95]
        lo, hi = bootstrap_ci(values, seed=1)
        assert lo <= np.mean(values) <= hi
        assert hi - lo < 0.5

    def test_ci_deterministic_per_seed(self):
        values = [1.0, 5.0, 3.0, 2.0]
        assert bootstrap_ci(values, seed=7) == bootstrap_ci(values, seed=7)

    def test_single_value_degenerate(self):
        assert bootstrap_ci([4.0]) == (4.0, 4.0)

    def test_confidence_validated(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=1.5)

    def test_ratio_ci_straddles_true_ratio(self):
        baseline = [100.0, 110.0, 90.0, 105.0]
        candidate = [50.0, 55.0, 45.0, 52.0]
        lo, hi = bootstrap_ratio_ci(baseline, candidate, seed=2)
        assert lo < 2.0 < hi or (1.5 < lo and hi < 2.5)

    def test_ratio_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            bootstrap_ratio_ci([1.0], [0.0])


class TestCompare:
    def test_clear_win_is_significant(self):
        baseline = [100.0 + i for i in range(8)]
        candidate = [50.0 + i for i in range(8)]
        result = compare(baseline, candidate)
        assert isinstance(result, Comparison)
        assert result.speedup == pytest.approx(103.5 / 53.5, rel=0.01)
        assert result.significant

    def test_noise_is_not_significant(self):
        rng = np.random.default_rng(3)
        a = list(rng.normal(100, 10, size=8))
        b = list(rng.normal(100, 10, size=8))
        result = compare(a, b)
        assert not result.significant

    def test_rank_sum_symmetry(self):
        a, b = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
        assert rank_sum_pvalue(a, b) == pytest.approx(rank_sum_pvalue(b, a))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_sum_pvalue([], [1.0])


class TestBarChart:
    def test_longest_bar_belongs_to_max(self):
        chart = bar_chart([("short", 10.0), ("long", 100.0)], width=20)
        lines = chart.splitlines()
        assert lines[1].count("█") == 20
        assert lines[0].count("█") == 2

    def test_title_and_unit(self):
        chart = bar_chart([("a", 1.0)], title="T", unit="s")
        assert chart.startswith("T\n")
        assert chart.rstrip().endswith("1.0 s")

    def test_zero_values_ok(self):
        chart = bar_chart([("zero", 0.0), ("one", 1.0)])
        assert "zero" in chart

    def test_validation(self):
        with pytest.raises(ValueError):
            bar_chart([])
        with pytest.raises(ValueError):
            bar_chart([("a", -1.0)])
        with pytest.raises(ValueError):
            bar_chart([("a", 1.0)], width=0)

    def test_grouped_scales_globally(self):
        chart = grouped_bar_chart(
            [
                ("g1", [("x", 100.0)]),
                ("g2", [("y", 50.0)]),
            ],
            width=20,
        )
        lines = chart.splitlines()
        x_line = next(line for line in lines if "x" in line)
        y_line = next(line for line in lines if "y" in line)
        assert x_line.count("█") == 20
        assert y_line.count("█") == 10

    def test_grouped_validation(self):
        with pytest.raises(ValueError):
            grouped_bar_chart([])


class TestReplay:
    def make_stream(self):
        return JobStream(
            arrivals=[
                JobArrival(
                    at=0.0,
                    job=Job(
                        job_id="j0",
                        task="RepositoryAnalyzer",
                        repo_id="linux",
                        size_mb=3800.0,
                        base_compute_s=2.0,
                    ),
                ),
                JobArrival(
                    at=12.5,
                    job=Job(job_id="j1", task="RepositoryAnalyzer", repo_id="linux", size_mb=3800.0),
                ),
                JobArrival(
                    at=3.0,
                    job=Job(job_id="j2", task="RepositorySearcher", base_compute_s=0.5, payload=("react",)),
                ),
            ],
            name="mytrace",
        )

    def test_roundtrip(self, tmp_path):
        stream = self.make_stream()
        path = save_trace(stream, tmp_path / "trace.json")
        corpus, loaded = load_trace(path)
        assert len(loaded) == 3
        assert loaded.name == "trace"
        assert "linux" in corpus
        assert corpus.get("linux").size_mb == pytest.approx(3800.0)
        originals = {(a.at, a.job.job_id, a.job.size_mb) for a in stream}
        replayed = {(a.at, a.job.job_id, a.job.size_mb) for a in loaded}
        assert originals == replayed

    def test_loaded_trace_runs_end_to_end(self, tmp_path):
        from conftest import make_profile, make_spec
        from repro.host import EngineConfig, WorkflowRuntime, single_task_pipeline
        from repro.schedulers.registry import make_scheduler
        from repro.workload.msr import KIND_ANALYSIS, TASK_ANALYZER
        from repro.workload.pipeline import Pipeline, Task

        stream = JobStream(
            arrivals=[
                JobArrival(
                    at=float(i),
                    job=Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i}", size_mb=10.0),
                )
                for i in range(4)
            ]
        )
        path = save_trace(stream, tmp_path / "t.json")
        _corpus, loaded = load_trace(path)
        runtime = WorkflowRuntime(
            profile=make_profile(make_spec("w1"), make_spec("w2")),
            stream=loaded,
            scheduler=make_scheduler("bidding"),
            config=EngineConfig(seed=0),
        )
        assert runtime.run().jobs_completed == 4

    def test_inconsistent_sizes_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                [
                    {"at": 0, "job_id": "a", "repo_id": "r", "size_mb": 10.0},
                    {"at": 1, "job_id": "b", "repo_id": "r", "size_mb": 20.0},
                ]
            )
        )
        with pytest.raises(ValueError, match="appeared earlier"):
            load_trace(path)

    def test_duplicate_job_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            json.dumps(
                [
                    {"at": 0, "job_id": "a", "repo_id": "r", "size_mb": 10.0},
                    {"at": 1, "job_id": "a", "repo_id": "r", "size_mb": 10.0},
                ]
            )
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_trace(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps([{"at": 0, "jobid": "a"}]))
        with pytest.raises(ValueError, match="unknown keys"):
            load_trace(path)

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="JSON array"):
            load_trace(path)

    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps([{"repo_id": "r", "size_mb": 5.0}]))
        _corpus, stream = load_trace(path)
        job = stream.jobs[0]
        assert job.task == "RepositoryAnalyzer"
        assert job.job_id.startswith("trace-")
