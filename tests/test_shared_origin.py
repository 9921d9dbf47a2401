"""Tests for the shared-origin contention extension (A10)."""

import pytest

from conftest import make_profile, make_spec
from repro.host import EngineConfig, WorkflowRuntime
from repro.net.topology import TopologyConfig
from repro.schedulers.registry import make_scheduler
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


def burst_stream(n=6, size=100.0):
    return JobStream(
        arrivals=[
            JobArrival(
                at=0.0,
                job=Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i}", size_mb=size),
            )
            for i in range(n)
        ]
    )


def run_with_origin(origin_mbps, n_workers=3, scheduler="round-robin"):
    profile = make_profile(
        *[make_spec(f"w{i + 1}", network=10.0, rw=100.0) for i in range(n_workers)]
    )
    runtime = WorkflowRuntime(
        profile=profile,
        stream=burst_stream(n=n_workers * 2),
        scheduler=make_scheduler(scheduler),
        config=EngineConfig(
            seed=0,
            noise_kind="none",
            noise_params={},
            topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
            shared_origin_mbps=origin_mbps,
        ),
    )
    return runtime.run()


class TestSharedOrigin:
    def test_uncapped_matches_no_origin_closely(self):
        free = run_with_origin(None)
        huge = run_with_origin(10_000.0)
        assert huge.makespan_s == pytest.approx(free.makespan_s, rel=0.02)

    def test_tight_origin_slows_concurrent_downloads(self):
        free = run_with_origin(None)
        tight = run_with_origin(5.0)  # 3 workers at 10 MB/s want 30
        assert tight.makespan_s > 1.5 * free.makespan_s

    def test_data_volume_unchanged_by_contention(self):
        free = run_with_origin(None)
        tight = run_with_origin(5.0)
        assert tight.data_load_mb == pytest.approx(free.data_load_mb)

    def test_origin_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(shared_origin_mbps=0.0)
        with pytest.raises(ValueError):
            EngineConfig(shared_origin_mbps=-5.0)

    def test_locality_worth_more_under_contention(self):
        """Bidding-vs-baseline gap widens when the origin is the
        bottleneck: redundant clones now tax every other download."""
        from repro.experiments.ablations import ablate_shared_origin
        from repro.experiments.grid import run_grids, speedup

        [sweep] = run_grids([ablate_shared_origin(capacities=(None, 10.0), seed=11)])
        free, tight = sweep.values()
        # Baseline / bidding mean makespan: the bidding-vs-baseline gap.
        assert speedup(tight) > speedup(free)
