"""Large-scale smoke tests: the engine at 5x fleet / 10x workflow size.

These guard the "larger-scale evaluation" path: nothing in the engine
may assume the paper's 5-worker, 120-job scale.
"""

import dataclasses

import pytest

from repro.cluster.profiles import BASE_NETWORK_MBPS, BASE_RW_MBPS, WorkerProfile
from repro.cluster.worker_spec import WorkerSpec
from repro.host import EngineConfig, WorkflowRuntime
from repro.net.topology import TopologyConfig
from repro.schedulers.registry import make_scheduler
from repro.workload.generators import job_config_by_name


def big_profile(n=25):
    return WorkerProfile(
        f"equal-{n}",
        tuple(
            WorkerSpec(name=f"w{i:02d}", network_mbps=BASE_NETWORK_MBPS, rw_mbps=BASE_RW_MBPS)
            for i in range(n)
        ),
    )


def big_stream(n_jobs=1200, seed=11):
    config = dataclasses.replace(
        job_config_by_name("80%_large"), n_jobs=n_jobs, mean_interarrival_s=0.2
    )
    return config.build(seed=seed)[1]


@pytest.mark.parametrize("scheduler", ["bidding", "baseline", "spark"])
def test_25_workers_1200_jobs_complete(scheduler):
    runtime = WorkflowRuntime(
        profile=big_profile(25),
        stream=big_stream(1200),
        scheduler=make_scheduler(scheduler),
        config=EngineConfig(
            seed=11,
            noise_kind="lognormal",
            noise_params={"sigma": 0.25},
            topology=TopologyConfig(),
            trace=False,
        ),
    )
    result = runtime.run()
    assert result.jobs_completed == 1200
    assert result.cache_hits + result.cache_misses == 1200
    # Every worker got something to do under any reasonable policy.
    active = sum(1 for count in result.per_worker_jobs.values() if count > 0)
    assert active >= 20


def test_contest_accounting_scales():
    runtime = WorkflowRuntime(
        profile=big_profile(25),
        stream=big_stream(600),
        scheduler=make_scheduler("bidding"),
        config=EngineConfig(seed=7, trace=False),
    )
    runtime.run()
    metrics = runtime.metrics
    assert metrics.contests_opened == 600
    closed = (
        metrics.contests_closed_full
        + metrics.contests_closed_fast
        + metrics.contests_closed_timeout
        + metrics.contests_fallback
    )
    assert closed == 600
