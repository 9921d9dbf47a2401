"""Trace-level protocol invariants across full runs.

These tests assert properties stated or implied by the paper's protocol
descriptions, checked on real traced runs rather than in isolation.
"""

import pytest

from conftest import make_profile, make_spec
from repro.host import EngineConfig, WorkflowRuntime
from repro.net.topology import TopologyConfig
from repro.schedulers.registry import make_scheduler
from repro.workload.generators import job_config_by_name
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


def traced_config(seed=0):
    return EngineConfig(
        seed=seed,
        noise_kind="lognormal",
        noise_params={"sigma": 0.25},
        topology=TopologyConfig(),
        trace=True,
    )


def run_traced(scheduler_name, workload="80%_small", seed=3, **scheduler_kwargs):
    _corpus, stream = job_config_by_name(workload).build(seed=seed)
    runtime = WorkflowRuntime(
        profile=make_profile(*[make_spec(f"w{i}") for i in range(1, 6)]),
        stream=stream,
        scheduler=make_scheduler(scheduler_name, **scheduler_kwargs),
        config=traced_config(seed),
    )
    runtime.run()
    return runtime


class TestBiddingProtocolInvariants:
    @pytest.fixture(scope="class")
    def runtime(self):
        return run_traced("bidding")

    def test_every_job_announced_before_assignment(self, runtime):
        trace = runtime.metrics.trace
        for event in trace.of_kind("assigned"):
            announced = trace.first("announced", event.job_id)
            assert announced is not None
            assert announced.time <= event.time

    def test_contest_duration_bounded_by_window(self, runtime):
        """biddingFinished: every contest closes within the 1 s window
        (plus one delivery of slack for the closing race)."""
        trace = runtime.metrics.trace
        for closed in trace.of_kind("contest_closed"):
            opened = trace.first("announced", closed.job_id)
            assert closed.time - opened.time <= 1.0 + 0.25

    def test_winner_had_lowest_counted_bid(self, runtime):
        """getPreferredWorker returns the argmin of bids received before
        the close."""
        trace = runtime.metrics.trace
        for closed in trace.of_kind("contest_closed"):
            if closed.detail == "fallback":
                continue
            close_time = closed.time
            bids = [
                event
                for event in trace.of_kind("bid")
                if event.job_id == closed.job_id and event.time <= close_time
            ]
            assert bids, f"no bids for closed contest {closed.job_id}"
            best = min(bids, key=lambda event: (event.detail, event.worker))
            assert closed.worker == best.worker

    def test_assignment_matches_contest_winner(self, runtime):
        trace = runtime.metrics.trace
        for closed in trace.of_kind("contest_closed"):
            assigned = trace.first("assigned", closed.job_id)
            assert assigned is not None
            assert assigned.worker == closed.worker

    def test_one_contest_per_job(self, runtime):
        trace = runtime.metrics.trace
        announced = [event.job_id for event in trace.of_kind("announced")]
        assert len(announced) == len(set(announced))


class TestBaselineProtocolInvariants:
    @pytest.fixture(scope="class")
    def runtime(self):
        return run_traced("baseline")

    def test_no_job_offered_to_same_worker_three_times(self, runtime):
        """First offer may be declined, the second must be accepted; a
        third offer to the same worker would mean the second-attempt
        rule failed."""
        trace = runtime.metrics.trace
        counts: dict[tuple[str, str], int] = {}
        for event in trace.of_kind("offered"):
            key = (event.job_id, event.worker)
            counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) <= 2

    def test_rejected_jobs_eventually_complete(self, runtime):
        trace = runtime.metrics.trace
        for event in trace.of_kind("rejected"):
            assert trace.first("completed", event.job_id) is not None

    def test_acceptance_implies_execution_on_acceptor(self, runtime):
        trace = runtime.metrics.trace
        for accepted in trace.of_kind("accepted"):
            started = trace.first("started", accepted.job_id)
            assert started is not None
            assert started.worker == accepted.worker

    def test_every_job_started_exactly_once(self, runtime):
        trace = runtime.metrics.trace
        started = [event.job_id for event in trace.of_kind("started")]
        assert len(started) == len(set(started)) == 120


class TestCommittedWorkloadReflection:
    def test_busy_workers_bid_higher(self):
        """Deterministic two-worker scenario: the second identical job's
        winning bid must exceed the first's, because the winner of job 1
        now carries committed workload (Listing 2 line 2)."""
        profile = make_profile(make_spec("w1"), make_spec("w2"))
        stream = JobStream(
            arrivals=[
                JobArrival(
                    at=float(i) * 0.1,
                    job=Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i}", size_mb=200.0),
                )
                for i in range(3)
            ]
        )
        runtime = WorkflowRuntime(
            profile=profile,
            stream=stream,
            scheduler=make_scheduler("bidding", bid_compute_s=0.0),
            config=EngineConfig(
                seed=1,
                noise_kind="none",
                noise_params={},
                topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
                trace=True,
            ),
        )
        runtime.run()
        trace = runtime.metrics.trace
        # Jobs 1 and 2 go to the two idle-at-first workers; job 3's bids
        # must both include committed workload and exceed job 1's bids.
        job0_bids = [e.detail for e in trace.of_kind("bid") if e.job_id == "j0"]
        job2_bids = [e.detail for e in trace.of_kind("bid") if e.job_id == "j2"]
        assert min(job2_bids) > min(job0_bids)
