"""The reference oracle (``repro.check.oracle``): differential testing.

The oracle re-derives the headline accounting from the raw trace with
one linear scan per metric -- no shared code with the engine's
collector.  Every scheduler's summary must agree with it, healthy and
faulted; a tampered summary must be flagged with the exact fields that
disagree.
"""

import dataclasses

import pytest

from conftest import make_profile, make_spec
from repro.check import OracleMismatch, replay_trace, verify_run
from repro.faults import FaultPlan, RecoveryConfig, WorkerCrash
from repro.host import EngineConfig, WorkflowRuntime
from repro.net.topology import TopologyConfig
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


def stream_of(n=12, size=35.0, repos=5):
    return JobStream(
        arrivals=[
            JobArrival(
                at=float(i) * 0.3,
                job=Job(
                    job_id=f"j{i}",
                    task=TASK_ANALYZER,
                    repo_id=f"r{i % repos}",
                    size_mb=size,
                ),
            )
            for i in range(n)
        ]
    )


def run_with_trace(scheduler, faults=None, allow_partial=False, seed=5):
    runtime = WorkflowRuntime(
        profile=make_profile(make_spec("w1"), make_spec("w2"), make_spec("w3")),
        stream=stream_of(),
        scheduler=make_scheduler(scheduler),
        config=EngineConfig(
            seed=seed,
            noise_kind="none",
            noise_params={},
            topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
            trace=True,
            max_sim_time=5000.0,
        ),
        faults=faults,
        allow_partial=allow_partial,
    )
    return runtime.run(), runtime.metrics


class TestDifferential:
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_every_scheduler_agrees_with_the_oracle(self, scheduler):
        result, metrics = run_with_trace(scheduler)
        oracle = verify_run(result, metrics)
        assert oracle.jobs_completed == 12

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_faulted_runs_agree_too(self, scheduler):
        plan = FaultPlan(
            crashes=(WorkerCrash(at_s=2.0, worker="w2", restart_after_s=5.0),),
            recovery=RecoveryConfig(max_redispatches=5, backoff_base_s=0.1),
        )
        result, metrics = run_with_trace(scheduler, faults=plan)
        verify_run(result, metrics)

    def test_partial_runs_report_failed_jobs_identically(self):
        plan = FaultPlan(
            crashes=(WorkerCrash(at_s=2.0, worker="w1"),),
            recovery=RecoveryConfig(max_redispatches=0, backoff_base_s=0.1),
        )
        result, metrics = run_with_trace("bidding", faults=plan, allow_partial=True)
        oracle = verify_run(result, metrics)
        assert oracle.failed_jobs == tuple(result.failed_jobs)


class TestTampering:
    def test_tampered_counter_is_flagged(self):
        result, metrics = run_with_trace("bidding")
        bad = dataclasses.replace(result, cache_misses=result.cache_misses + 1)
        with pytest.raises(OracleMismatch) as caught:
            verify_run(bad, metrics)
        assert any(field == "cache_misses" for field, _, _ in caught.value.mismatches)

    def test_tampered_float_is_flagged(self):
        result, metrics = run_with_trace("bidding")
        bad = dataclasses.replace(result, data_load_mb=result.data_load_mb * 1.01)
        with pytest.raises(OracleMismatch) as caught:
            verify_run(bad, metrics)
        assert any(field == "data_load_mb" for field, _, _ in caught.value.mismatches)

    def test_last_ulp_reassociation_is_tolerated(self):
        # The engine groups per-worker sums; the oracle scans in time
        # order.  Identical values summed in a different order may
        # differ by an ulp -- that must NOT be a mismatch.
        result, metrics = run_with_trace("bidding")
        nudged = dataclasses.replace(
            result,
            data_load_mb=result.data_load_mb * (1.0 + 1e-12),
        )
        verify_run(nudged, metrics)

    def test_multiple_mismatches_are_all_listed(self):
        result, metrics = run_with_trace("bidding")
        bad = dataclasses.replace(
            result,
            cache_hits=result.cache_hits + 1,
            jobs_completed=result.jobs_completed + 1,
        )
        with pytest.raises(OracleMismatch) as caught:
            verify_run(bad, metrics)
        fields = {field for field, _, _ in caught.value.mismatches}
        assert {"cache_hits", "jobs_completed"} <= fields


class TestReplay:
    def test_oracle_totals_are_internally_consistent(self):
        result, metrics = run_with_trace("bar")
        oracle = replay_trace(metrics.trace, started_at=metrics.started_at)
        assert oracle.jobs_completed == sum(oracle.per_worker_jobs.values())
        assert oracle.data_load_mb == pytest.approx(
            sum(oracle.per_worker_mb.values())
        )

    def test_disabled_trace_is_rejected(self):
        runtime = WorkflowRuntime(
            profile=make_profile(make_spec("w1"), make_spec("w2")),
            stream=stream_of(4),
            scheduler=make_scheduler("bidding"),
            config=EngineConfig(seed=5, noise_kind="none", noise_params={}, trace=False),
        )
        runtime.run()
        with pytest.raises(ValueError):
            replay_trace(runtime.metrics.trace, started_at=runtime.metrics.started_at)
