"""Cross-module integration tests: full workflows, paper invariants."""

import pytest

from repro import compare_schedulers, run_workflow
from repro.cluster.profiles import profile_by_name
from repro.data.github import GitHubService
from repro.data.repository import Repository, RepositoryCorpus
from repro.experiments.configs import JOB_CONFIG_NAMES, PROFILE_NAMES
from repro.experiments.runner import CellSpec, run_cell
from repro.host import EngineConfig, WorkflowRuntime
from repro.schedulers.registry import make_scheduler
from repro.sim.rng import substream
from repro.workload.generators import job_config_by_name
from repro.workload.msr import MSRPipelineSpec, build_msr_pipeline, library_stream


class TestFullMatrixSmoke:
    """Every (workload, profile) cell terminates for both paper schedulers."""

    @pytest.mark.parametrize("workload", JOB_CONFIG_NAMES)
    @pytest.mark.parametrize("scheduler", ["baseline", "bidding"])
    def test_cell_terminates(self, workload, scheduler):
        spec = CellSpec(
            scheduler=scheduler,
            workload=workload,
            profile="all-equal",
            seed=11,
            iterations=1,
        )
        results = run_cell(spec)
        assert results[0].jobs_completed == 120

    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    def test_profiles_terminate(self, profile):
        spec = CellSpec(
            scheduler="bidding",
            workload="80%_small",
            profile=profile,
            seed=11,
            iterations=1,
        )
        assert run_cell(spec)[0].jobs_completed == 120


class TestIdenticalWorkAcrossSchedulers:
    def test_same_jobs_processed_by_all_schedulers(self):
        results = compare_schedulers(
            workload="80%_large",
            profile="all-equal",
            seed=13,
            schedulers=("baseline", "bidding", "spark", "random"),
            iterations=1,
        )
        completions = {name: runs[0].jobs_completed for name, runs in results.items()}
        assert set(completions.values()) == {120}

    def test_cold_misses_identical_for_all_different_workload(self):
        """With every job on a distinct repository and cold caches, every
        scheduler must miss exactly once per job."""
        results = compare_schedulers(
            workload="all_diff_equal",
            profile="all-equal",
            seed=17,
            schedulers=("baseline", "bidding", "spark"),
            iterations=1,
        )
        for runs in results.values():
            assert runs[0].cache_misses == 120


class TestPaperShapeInvariants:
    """Small-scale versions of the headline comparative claims."""

    def test_bidding_beats_baseline_on_repetitive_warm_workload(self):
        results = compare_schedulers(
            workload="80%_large", profile="all-equal", seed=19, iterations=3
        )
        baseline_mean = sum(r.makespan_s for r in results["baseline"]) / 3
        bidding_mean = sum(r.makespan_s for r in results["bidding"]) / 3
        assert bidding_mean < baseline_mean

    def test_bidding_reduces_data_load(self):
        results = compare_schedulers(
            workload="80%_large", profile="all-equal", seed=19, iterations=3
        )
        assert sum(r.data_load_mb for r in results["bidding"]) < sum(
            r.data_load_mb for r in results["baseline"]
        )

    def test_bidding_reduces_cache_misses(self):
        results = compare_schedulers(
            workload="all_diff_equal", profile="all-equal", seed=19, iterations=3
        )
        assert sum(r.cache_misses for r in results["bidding"]) < sum(
            r.cache_misses for r in results["baseline"]
        )

    def test_warm_iterations_get_faster_under_bidding(self):
        runs = run_workflow(
            scheduler="bidding", workload="80%_large", profile="all-equal", seed=23
        )
        assert runs[1].makespan_s < runs[0].makespan_s
        assert runs[2].cache_misses <= runs[1].cache_misses

    def test_one_slow_profile_amplifies_bidding_advantage(self):
        def mean_ratio(profile):
            results = compare_schedulers(
                workload="all_diff_large", profile=profile, seed=29, iterations=3
            )
            baseline = sum(r.makespan_s for r in results["baseline"])
            bidding = sum(r.makespan_s for r in results["bidding"])
            return baseline / bidding

        assert mean_ratio("one-slow") > 1.0


class TestMSRPipelineEndToEnd:
    def build(self, scheduler_name, seed=31):
        spec = MSRPipelineSpec(
            libraries=("lodash", "react", "axios"), query_min_size_mb=500.0
        )
        rng = substream(seed, "corpus")
        corpus = RepositoryCorpus(
            [
                Repository(
                    f"r{i}",
                    float(rng.uniform(500.0, 1500.0)),
                    stars=9000,
                    forks=9000,
                )
                for i in range(30)
            ]
        )
        stream = library_stream(spec, mean_interarrival_s=2.0, rng=substream(seed, "arr"))
        holder = {}

        def factory(sim):
            github = GitHubService(sim, corpus, match_fraction=0.4, seed=seed)
            pipeline, matrix = build_msr_pipeline(github, spec)
            holder["matrix"] = matrix
            holder["github"] = github
            return pipeline

        runtime = WorkflowRuntime(
            profile=profile_by_name("all-equal"),
            stream=stream,
            scheduler=make_scheduler(scheduler_name),
            pipeline_factory=factory,
            config=EngineConfig(seed=seed),
        )
        return runtime, holder

    @pytest.mark.parametrize("scheduler", ["baseline", "bidding"])
    def test_pipeline_produces_cooccurrence_output(self, scheduler):
        runtime, holder = self.build(scheduler)
        result = runtime.run()
        matrix = holder["matrix"]
        # Every analysis job produced exactly one record.
        analysis_jobs = [
            job_id for job_id in runtime.master.assignments if job_id.startswith("analysis")
        ]
        assert matrix.records == len(analysis_jobs)
        assert result.jobs_completed > len(analysis_jobs)

    def test_both_schedulers_compute_identical_output(self):
        _runtime_a, holder_a = self.build("baseline")
        _runtime_b, holder_b = self.build("bidding")
        _runtime_a.run()
        _runtime_b.run()
        # Scheduling must never change the workflow's semantics.
        assert holder_a["matrix"].counts == holder_b["matrix"].counts

    def test_search_stage_used_the_api_model(self):
        runtime, holder = self.build("bidding")
        runtime.run()
        assert holder["github"].request_count >= 3  # one+ page per library


class TestWorkloadOverrides:
    def test_burst_override_applies_to_job_config(self):
        import dataclasses

        config = job_config_by_name("80%_small")
        burst = dataclasses.replace(config, mean_interarrival_s=0.0)
        _corpus, stream = burst.build(seed=37)
        assert all(arrival.at == 0.0 for arrival in stream)

    def test_override_flows_through_run_cell(self):
        spec = CellSpec(
            scheduler="round-robin",
            workload="all_small_strict",
            profile="all-equal",
            seed=37,
            iterations=1,
            workload_overrides=(("mean_interarrival_s", 0.0),),
        )
        burst_result = run_cell(spec)[0]
        streamed_result = run_cell(
            CellSpec(
                scheduler="round-robin",
                workload="all_small_strict",
                profile="all-equal",
                seed=37,
                iterations=1,
            )
        )[0]
        # The streamed variant is partly arrival-bound (~119 s horizon),
        # so submitting everything at t=0 must strictly shorten the run.
        assert burst_result.makespan_s < streamed_result.makespan_s
