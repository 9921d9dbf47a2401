"""Tests for the future-work extensions: fast local close + adaptive bids."""

import pytest

from conftest import make_profile, make_spec
from repro.core.adaptive import BidCorrector
from repro.host import EngineConfig, WorkflowRuntime
from repro.schedulers.bidding import make_bidding_policy
from repro.net.topology import TopologyConfig
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


def quiet_config(seed=0, **overrides):
    defaults = dict(
        seed=seed,
        noise_kind="none",
        noise_params={},
        topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def repeated_stream(n=10, repo="hot", size=50.0, gap=30.0):
    return JobStream(
        arrivals=[
            JobArrival(
                at=float(i) * gap,
                job=Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=repo, size_mb=size),
            )
            for i in range(n)
        ]
    )


def build_runtime(stream, caches=None, **policy_kwargs):
    policy_kwargs.setdefault("bid_compute_s", 0.5)
    profile = make_profile(make_spec("w1"), make_spec("w2"), make_spec("w3"))
    return WorkflowRuntime(
        profile=profile,
        stream=stream,
        scheduler=make_bidding_policy(**policy_kwargs),
        config=quiet_config(),
        initial_caches=caches,
    )


class TestBidCorrector:
    def test_starts_unbiased(self):
        assert BidCorrector().factor == 1.0

    def test_learns_underestimation(self):
        corrector = BidCorrector(alpha=0.5)
        for _ in range(10):
            corrector.observe(estimated_s=10.0, actual_s=20.0)
        assert corrector.factor > 1.5
        assert corrector.correct(10.0) > 15.0

    def test_learns_overestimation(self):
        corrector = BidCorrector(alpha=0.5)
        for _ in range(10):
            corrector.observe(estimated_s=10.0, actual_s=5.0)
        assert corrector.factor < 0.75

    def test_clamped_against_outliers(self):
        corrector = BidCorrector(alpha=1.0, clamp=(0.5, 2.0))
        corrector.observe(estimated_s=1.0, actual_s=1000.0)
        assert corrector.factor == 2.0

    def test_zero_estimate_skipped(self):
        corrector = BidCorrector()
        corrector.observe(estimated_s=0.0, actual_s=5.0)
        assert corrector.observations == 0
        assert corrector.factor == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BidCorrector(alpha=0.0)
        with pytest.raises(ValueError):
            BidCorrector(clamp=(2.0, 0.5))
        with pytest.raises(ValueError):
            BidCorrector().correct(-1.0)


class TestAdaptiveBidding:
    def test_adaptive_run_completes(self):
        runtime = build_runtime(repeated_stream(), adaptive=True)
        result = runtime.run()
        assert result.jobs_completed == 10

    def test_corrector_learns_during_run(self):
        runtime = build_runtime(
            repeated_stream(n=12),
            adaptive=True,
        )
        # Realised speeds are half nominal: estimates systematically low.
        runtime.config = runtime.config  # noqa: B018 - readability anchor
        runtime.run()
        correctors = [
            worker.policy.corrector
            for worker in runtime.workers.values()
            if worker.policy.corrector is not None and worker.policy.corrector.observations
        ]
        assert correctors, "at least one worker should have observed jobs"


class TestFastLocalClose:
    def test_fast_close_reduces_contest_time_on_repetitive_warm_jobs(self):
        caches = {"w1": {"hot": 50.0}}
        slow = build_runtime(repeated_stream(), caches=caches, fast_local_close=False)
        slow_result = slow.run()
        fast = build_runtime(repeated_stream(), caches=caches, fast_local_close=True)
        fast_result = fast.run()
        assert fast_result.contest_seconds < slow_result.contest_seconds
        assert fast.metrics.contests_closed_fast > 0

    def test_fast_close_preserves_locality(self):
        caches = {"w1": {"hot": 50.0}}
        runtime = build_runtime(repeated_stream(), caches=caches, fast_local_close=True)
        result = runtime.run()
        # The idle holder keeps winning: no redundant clones.
        assert result.cache_misses == 0
        assert all(w == "w1" for w in runtime.master.assignments.values())

    def test_fast_close_never_fires_on_cold_jobs(self):
        stream = JobStream(
            arrivals=[
                JobArrival(
                    at=float(i) * 30.0,
                    job=Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i}", size_mb=50.0),
                )
                for i in range(5)
            ]
        )
        runtime = build_runtime(stream, fast_local_close=True)
        runtime.run()
        assert runtime.metrics.contests_closed_fast == 0
