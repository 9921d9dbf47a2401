"""Unit tests for the Crossflow-style pipeline DSL and the MSR pipeline."""

import numpy as np
import pytest

from repro.data.github import GitHubService
from repro.data.repository import Repository, RepositoryCorpus
from repro.sim import Simulator
from repro.workload.job import Job
from repro.workload.msr import (
    KIND_ANALYSIS,
    KIND_LIBRARY,
    MSRPipelineSpec,
    TASK_ANALYZER,
    TASK_CALCULATOR,
    TASK_SEARCHER,
    CooccurrenceMatrix,
    build_msr_pipeline,
    library_stream,
)
from repro.workload.pipeline import Pipeline, Task


def two_stage_pipeline():
    def expand(job):
        return [
            Job(job_id=f"{job.job_id}-child", task="sink", payload=job.payload)
        ]

    pipeline = Pipeline(name="test")
    pipeline.add_task(Task(name="source-task", consumes=("A",), produces=("B",), handle=expand))
    pipeline.add_task(Task(name="sink", consumes=("B",)))
    pipeline.connect("A", None, "source-task")
    pipeline.connect("B", "source-task", "sink")
    return pipeline


class TestPipelineValidation:
    def test_valid_pipeline_passes(self):
        two_stage_pipeline().validate()

    def test_duplicate_task_rejected(self):
        pipeline = Pipeline(name="p")
        pipeline.add_task(Task(name="t", consumes=("A",)))
        with pytest.raises(ValueError):
            pipeline.add_task(Task(name="t", consumes=("A",)))

    def test_unknown_consumer_rejected(self):
        pipeline = Pipeline(name="p")
        pipeline.add_task(Task(name="t", consumes=("A",)))
        pipeline.connect("A", None, "ghost")
        with pytest.raises(ValueError, match="unknown consumer"):
            pipeline.validate()

    def test_producer_must_declare_kind(self):
        pipeline = Pipeline(name="p")
        pipeline.add_task(Task(name="a", consumes=("X",), produces=()))
        pipeline.add_task(Task(name="b", consumes=("Y",)))
        pipeline.connect("X", None, "a")
        pipeline.connect("Y", "a", "b")
        with pytest.raises(ValueError, match="does not produce"):
            pipeline.validate()

    def test_consumer_must_accept_kind(self):
        pipeline = Pipeline(name="p")
        pipeline.add_task(Task(name="a", consumes=("X",)))
        pipeline.connect("Z", None, "a")
        with pytest.raises(ValueError, match="does not consume"):
            pipeline.validate()

    def test_unfed_task_rejected(self):
        pipeline = Pipeline(name="p")
        pipeline.add_task(Task(name="a", consumes=("X",)))
        pipeline.add_task(Task(name="orphan", consumes=("Y",)))
        pipeline.connect("X", None, "a")
        with pytest.raises(ValueError, match="no incoming channel"):
            pipeline.validate()

    def test_task_must_consume_something(self):
        with pytest.raises(ValueError):
            Task(name="t", consumes=())


class TestRouting:
    def test_task_of(self):
        pipeline = two_stage_pipeline()
        job = Job(job_id="j", task="sink")
        assert pipeline.task_of(job).name == "sink"

    def test_task_of_unknown_raises(self):
        pipeline = two_stage_pipeline()
        with pytest.raises(KeyError):
            pipeline.task_of(Job(job_id="j", task="nowhere"))

    def test_on_completion_spawns_children(self):
        pipeline = two_stage_pipeline()
        parent = Job(job_id="p1", task="source-task", payload=("x",))
        children = pipeline.on_completion(parent)
        assert len(children) == 1
        assert children[0].task == "sink"
        assert children[0].payload == ("x",)

    def test_sink_completion_spawns_nothing(self):
        pipeline = two_stage_pipeline()
        assert pipeline.on_completion(Job(job_id="c", task="sink")) == []

    def test_child_for_unknown_task_rejected(self):
        pipeline = Pipeline(name="p")
        pipeline.add_task(
            Task(
                name="bad",
                consumes=("A",),
                handle=lambda job: [Job(job_id="x", task="ghost")],
            )
        )
        with pytest.raises(ValueError, match="unknown task"):
            pipeline.on_completion(Job(job_id="j", task="bad"))


class TestMSRPipeline:
    @pytest.fixture
    def github(self):
        sim = Simulator()
        corpus = RepositoryCorpus(
            [
                Repository(f"r{i}", 600.0 + i, stars=9000, forks=9000)
                for i in range(20)
            ]
        )
        return GitHubService(sim, corpus, match_fraction=0.5, seed=11)

    def test_structure_matches_figure_1(self, github):
        spec = MSRPipelineSpec(libraries=("lodash", "react"))
        pipeline, _matrix = build_msr_pipeline(github, spec)
        assert set(pipeline.tasks) == {TASK_SEARCHER, TASK_ANALYZER, TASK_CALCULATOR}
        assert pipeline.tasks[TASK_CALCULATOR].on_master

    def test_search_expands_to_analysis_jobs(self, github):
        spec = MSRPipelineSpec(libraries=("lodash",), query_min_size_mb=500.0)
        pipeline, _matrix = build_msr_pipeline(github, spec)
        library_job = Job(job_id="lib-0", task=TASK_SEARCHER, payload=("lodash",))
        children = pipeline.on_completion(library_job)
        assert children, "expected at least one matching repository"
        assert all(child.task == TASK_ANALYZER for child in children)
        assert all(child.is_data_bound for child in children)

    def test_analysis_produces_one_record(self, github):
        spec = MSRPipelineSpec(libraries=("lodash",))
        pipeline, _matrix = build_msr_pipeline(github, spec)
        analysis = Job(
            job_id="a-0",
            task=TASK_ANALYZER,
            repo_id="r0",
            size_mb=600.0,
            payload=("lodash", "r0"),
        )
        records = pipeline.on_completion(analysis)
        assert len(records) == 1
        assert records[0].task == TASK_CALCULATOR

    def test_calculator_updates_matrix(self, github):
        spec = MSRPipelineSpec(libraries=("a", "b"))
        pipeline, matrix = build_msr_pipeline(github, spec)
        for library in ("a", "b"):
            record = Job(
                job_id=f"rec-{library}",
                task=TASK_CALCULATOR,
                payload=(library, "r0", True),
            )
            pipeline.on_completion(record)
        assert matrix.counts[("a", "b")] == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MSRPipelineSpec(libraries=())
        with pytest.raises(ValueError):
            MSRPipelineSpec(libraries=("a", "a"))

    def test_library_stream_shape(self):
        spec = MSRPipelineSpec(libraries=("x", "y", "z"))
        stream = library_stream(spec, mean_interarrival_s=1.0, rng=np.random.default_rng(0))
        assert len(stream) == 3
        assert all(a.job.task == TASK_SEARCHER for a in stream)
        assert all(not a.job.is_data_bound for a in stream)


class TestCooccurrenceMatrix:
    def test_pairs_counted_once_per_repo(self):
        matrix = CooccurrenceMatrix()
        matrix.record("a", "r1", True)
        matrix.record("b", "r1", True)
        matrix.record("b", "r2", True)
        matrix.record("a", "r2", True)
        assert matrix.counts[("a", "b")] == 2

    def test_absent_library_ignored(self):
        matrix = CooccurrenceMatrix()
        matrix.record("a", "r1", True)
        matrix.record("b", "r1", False)
        assert matrix.counts == {}
        assert matrix.records == 2

    def test_duplicate_library_no_self_pair(self):
        matrix = CooccurrenceMatrix()
        matrix.record("a", "r1", True)
        matrix.record("a", "r1", True)
        assert ("a", "a") not in matrix.counts

    def test_top_sorted_by_count(self):
        matrix = CooccurrenceMatrix()
        for repo in ("r1", "r2"):
            matrix.record("a", repo, True)
            matrix.record("b", repo, True)
        matrix.record("c", "r1", True)
        top = matrix.top(2)
        assert top[0][0] == ("a", "b")
        assert top[0][1] == 2
