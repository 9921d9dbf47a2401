"""Protocol tests for the Bidding Scheduler (Listings 1 and 2)."""

import pytest

from conftest import make_profile, make_spec
from repro.schedulers.bidding import make_bidding_policy
from repro.core.learning import HistoricAverageSpeedModel
from repro.faults import FaultPlan
from repro.host import EngineConfig, WorkflowRuntime
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


def arrivals(*specs):
    """specs: (job_id, repo, size, at) tuples."""
    return JobStream(
        arrivals=[
            JobArrival(
                at=at,
                job=Job(
                    job_id=job_id,
                    task=TASK_ANALYZER,
                    repo_id=repo,
                    size_mb=size,
                    base_compute_s=0.0,
                ),
            )
            for job_id, repo, size, at in specs
        ]
    )


def two_worker_runtime(stream, fast_factor=4.0, **policy_kwargs):
    policy_kwargs.setdefault("bid_compute_s", 0.0)
    profile = make_profile(
        make_spec("fast", network=10.0 * fast_factor, rw=50.0 * fast_factor,
                  cpu_factor=fast_factor),
        make_spec("slow", network=10.0, rw=50.0),
    )
    return WorkflowRuntime(
        profile=profile,
        stream=stream,
        scheduler=make_bidding_policy(**policy_kwargs),
        config=quiet_config(),
    )


class TestWinnerSelection:
    def test_fast_worker_wins_cold_job(self):
        runtime = two_worker_runtime(arrivals(("j0", "r0", 100.0, 0.0)))
        runtime.run()
        assert runtime.master.assignments["j0"] == "fast"

    def test_cached_worker_wins_despite_being_slow(self):
        stream = arrivals(("j0", "hot", 100.0, 0.0))
        runtime = two_worker_runtime(stream)
        runtime.workers["slow"].cache.insert("hot", 100.0)
        runtime.run()
        # slow: 0 transfer + 2 s processing beats fast: 2.5 + 0.5.
        assert runtime.master.assignments["j0"] == "slow"
        assert runtime.metrics.total_cache_misses == 0

    def test_busy_cached_worker_loses_when_wait_exceeds_download(self):
        stream = arrivals(
            ("blocker", "big", 4000.0, 0.0),   # occupies slow for ~480 s
            ("j1", "hot", 10.0, 1.0),
        )
        runtime = two_worker_runtime(stream)
        runtime.workers["slow"].cache.insert("hot", 10.0)
        runtime.workers["slow"].cache.insert("big", 4000.0)
        runtime.run()
        # The paper: redundancy is allowed "only to accelerate overall
        # execution" -- fast re-downloads instead of waiting for slow.
        assert runtime.master.assignments["j1"] == "fast"

    def test_committed_workload_balances_wins(self):
        # Ten identical jobs: the fast worker must not win them all once
        # its queue cost exceeds the slow worker's idle estimate.
        stream = arrivals(
            *[(f"j{i}", f"r{i}", 100.0, 0.0) for i in range(10)]
        )
        runtime = two_worker_runtime(stream, fast_factor=2.0)
        result = runtime.run()
        jobs = result.per_worker_jobs
        assert jobs["fast"] > jobs["slow"] > 0


class TestContestAccounting:
    def test_every_job_gets_exactly_one_contest(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, float(i)) for i in range(8)])
        runtime = two_worker_runtime(stream)
        runtime.run()
        assert runtime.metrics.contests_opened == 8
        closed = (
            runtime.metrics.contests_closed_full
            + runtime.metrics.contests_closed_timeout
            + runtime.metrics.contests_fallback
        )
        assert closed == 8

    def test_full_close_when_all_workers_bid_promptly(self):
        stream = arrivals(("j0", "r0", 10.0, 0.0))
        runtime = two_worker_runtime(stream)
        runtime.run()
        assert runtime.metrics.contests_closed_full == 1
        assert runtime.metrics.contests_fallback == 0

    def test_contest_closes_early_before_window(self):
        stream = arrivals(("j0", "r0", 10.0, 0.0))
        runtime = two_worker_runtime(stream, window_s=100.0)
        result = runtime.run()
        # With a 100 s window the contest still closes in milliseconds.
        assert result.contest_seconds < 1.0

    def test_slow_bidders_force_timeout_close(self):
        stream = arrivals(("j0", "r0", 10.0, 0.0))
        # Bid computation takes 2 s at CPU factor 1 -> longer than the window.
        runtime = two_worker_runtime(stream, bid_compute_s=2.0, window_s=0.5)
        runtime.run()
        assert runtime.metrics.contests_fallback == 1

    def test_fallback_assigns_arbitrarily_but_completes(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, 0.0) for i in range(5)])
        runtime = two_worker_runtime(stream, bid_compute_s=5.0, window_s=0.1)
        result = runtime.run()
        assert result.jobs_completed == 5
        assert runtime.metrics.contests_fallback == 5

    def test_bids_recorded_per_worker(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, 0.0) for i in range(4)])
        runtime = two_worker_runtime(stream)
        runtime.run()
        for name in ("fast", "slow"):
            assert runtime.metrics.workers[name].bids_submitted == 4


class TestCommitmentLifecycle:
    def test_promised_cost_committed_and_released(self):
        stream = arrivals(("j0", "r0", 100.0, 0.0))
        runtime = two_worker_runtime(stream)
        runtime.run()
        for worker in runtime.workers.values():
            assert worker.committed_cost() == 0.0
            assert worker.unfinished == {}

    def test_no_rejections_ever(self):
        stream = arrivals(*[(f"j{i}", f"r{i % 3}", 50.0, float(i)) for i in range(9)])
        runtime = two_worker_runtime(stream)
        result = runtime.run()
        # "no job needs to be rejected by all workers before being processed"
        assert result.rejections == 0


class TestConfigValidation:
    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            make_bidding_policy(window_s=0.0).make_master()

    def test_invalid_concurrency_rejected(self):
        with pytest.raises(ValueError):
            make_bidding_policy(max_concurrent_contests=0).make_master()

    def test_invalid_bid_compute_rejected(self):
        with pytest.raises(ValueError):
            make_bidding_policy(bid_compute_s=-1.0).make_worker()


class TestSpeedLearning:
    def test_historic_model_runs_and_completes(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 50.0, float(i)) for i in range(6)])
        profile = make_profile(make_spec("w1"), make_spec("w2"))
        runtime = WorkflowRuntime(
            profile=profile,
            stream=stream,
            scheduler=make_bidding_policy(
                speed_model_factory=HistoricAverageSpeedModel, bid_compute_s=0.0
            ),
            config=quiet_config(noise_kind="lognormal", noise_params={"sigma": 0.3}),
        )
        result = runtime.run()
        assert result.jobs_completed == 6
        # Learning happened: measured samples were recorded beyond the seed.
        assert any(
            len(worker.machine._network_samples) > 1
            for worker in runtime.workers.values()
        )


# -- semantics the columnar contest must keep ---------------------------------
#
# Each is pinned on both paths: a traced contest runs over the broker,
# message by message; an untraced one is computed from the cost planes.

BOTH_PATHS = pytest.mark.parametrize("trace", [True, False], ids=["messages", "computed"])


def spy_on_contests(runtime):
    """Every contest the run opens, in order (they leave the policy's
    map once their job is done)."""
    opened = []
    policy = runtime.master.policy
    real_open = policy._open

    def _open(job):
        contest = real_open(job)
        opened.append(contest)
        return contest

    policy._open = _open
    return opened


def landing_time(runtime, contest, worker):
    """When ``worker``'s bid for ``contest`` reached the master."""
    if contest.computed:
        return float(contest.arrive[contest.row_of(worker)])
    (record,) = [
        event
        for event in runtime.metrics.trace
        if event.kind == "bid"
        and event.job_id == contest.job.job_id
        and event.worker == worker
    ]
    return record.time


def bids_submitted(runtime):
    return {name: block.bids_submitted for name, block in runtime.metrics.workers.items()}


class TestHowContestsRun:
    """Computed from the cost planes unless the messages can be told
    apart (ARCHITECTURE.md section 12 has the list)."""

    def contests_of(self, policy_kwargs=None, faults=None, **config):
        runtime = WorkflowRuntime(
            profile=make_profile(make_spec("w1"), make_spec("w2")),
            stream=arrivals(("j0", "r0", 10.0, 0.0), ("j1", "r1", 10.0, 5.0)),
            scheduler=make_bidding_policy(**(policy_kwargs or {})),
            config=quiet_config(**{"trace": False, **config}),
            faults=faults,
        )
        contests = spy_on_contests(runtime)
        runtime.run()
        assert len(contests) == 2
        return [contest.computed for contest in contests]

    def test_unobserved_runs_compute_their_contests(self):
        assert self.contests_of() == [True, True]

    @pytest.mark.parametrize(
        "config", [{"trace": True}, {"check": True}, {"obs": True}, {"message_loss": 0.01}]
    )
    def test_observers_and_a_lossy_broker_get_real_messages(self, config):
        assert self.contests_of(**config) == [False, False]

    def test_instant_bids_get_real_messages(self):
        assert self.contests_of({"bid_compute_s": 0.0}) == [False, False]

    def test_a_fault_plan_that_will_cut_the_broker_does_from_the_start(self):
        from repro.faults import FaultPlan, MessageLoss, WorkerCrash

        # The loss window only starts after the last contest ...
        window = FaultPlan(message_loss=(MessageLoss(start_s=50.0, end_s=60.0, probability=0.5),))
        assert self.contests_of(faults=window) == [False, False]
        # ... while crashes alone leave the broker reliable.
        crash = FaultPlan(crashes=(WorkerCrash(worker="w2", at_s=50.0),))
        assert self.contests_of(faults=crash) == [True, True]


class TestSerialBidder:
    """The bid thread is a serial server: ``bid_compute_s / cpu_factor``
    per bid, announcements queueing behind the bid being computed."""

    @BOTH_PATHS
    def test_slow_bidder_is_permanently_one_contest_late(self, trace):
        from repro.cluster.profiles import profile_by_name

        stream = arrivals(*[(f"j{i}", f"r{i % 2}", 20.0, 0.0) for i in range(6)])
        runtime = WorkflowRuntime(
            profile=profile_by_name("fast-slow"),
            stream=stream,
            scheduler=make_bidding_policy(),
            config=quiet_config(trace=trace),
        )
        contests = spy_on_contests(runtime)
        runtime.run()
        assert len(contests) == 6
        assert all(contest.computed is not trace for contest in contests)
        for contest, following in zip(contests, contests[1:]):
            # w2 (cpu 0.25) needs 1.0 s per bid, the whole window: its bid
            # lands after the close, while the next contest is running.
            landed = landing_time(runtime, contest, "w2")
            assert contest.opened_at + 1.0 < landed
            assert following.opened_at < landed
            assert [bid.worker for bid in contest.late_bids] == ["w2"]
            assert contest.winner() != "w2"
            # ... and it only starts on the next announcement when this
            # bid is out: back-to-back contests push it further behind.
            assert landing_time(runtime, following, "w2") == pytest.approx(landed + 1.0)
            if contest.computed:
                row = contest.row_of("w2")
                assert following.dequeue[row] == contest.evaluate[row]
        # Late bids still count as submitted.
        assert bids_submitted(runtime) == {f"w{i}": 6 for i in range(1, 6)}

    @BOTH_PATHS
    def test_fallback_winner_commits_a_fresh_estimate(self, trace):
        # Both bidders need 1.0 s against a 0.5 s window: zero bids, an
        # arbitrary pick, and the pick has not evaluated its bid yet when
        # the assignment arrives -- it must price the job on the spot.
        profile = make_profile(
            make_spec("a", cpu_factor=0.25), make_spec("b", cpu_factor=0.25)
        )
        runtime = WorkflowRuntime(
            profile=profile,
            stream=arrivals(("j0", "r0", 100.0, 0.0)),
            scheduler=make_bidding_policy(window_s=0.5),
            config=quiet_config(trace=trace),
        )
        contests = spy_on_contests(runtime)
        committed = {}
        for node in runtime.workers.values():
            real = node.enqueue
            node.enqueue = lambda job, cost, node=node, real=real: (
                committed.update({node.name: cost}),
                real(job, cost),
            )
        runtime.run()
        (contest,) = contests
        assert runtime.metrics.contests_fallback == 1
        (winner,) = committed
        # 10 s download + 2 s scan at the conftest speeds, no queue.
        assert committed[winner] == pytest.approx(12.0)
        # The bids landed long after the close and were still counted.
        assert sorted(bid.worker for bid in contest.late_bids) == ["a", "b"]
        assert bids_submitted(runtime) == {"a": 1, "b": 1}


    @BOTH_PATHS
    def test_a_straggler_does_not_answer_the_rerun(self, trace):
        # Both bidders need 1.0 s against a 0.6 s window.  With recovery
        # on, the zero-bid contest is run again at 0.6 s -- and at ~1.0 s,
        # inside the rerun's window, the bids for the *first* contest
        # land.  They are late bids of the first contest, not answers to
        # the second (which they would close at once with stale prices).
        profile = make_profile(
            make_spec("a", cpu_factor=0.25), make_spec("b", cpu_factor=0.25)
        )
        runtime = WorkflowRuntime(
            profile=profile,
            stream=arrivals(("j0", "r0", 100.0, 0.0)),
            scheduler=make_bidding_policy(window_s=0.6),
            config=quiet_config(trace=trace),
            faults=FaultPlan(),
        )
        contests = spy_on_contests(runtime)
        runtime.run()
        first, rerun = contests
        assert rerun.previous is first and rerun.opened_at == pytest.approx(0.6)
        assert sorted(bid.worker for bid in first.late_bids) == ["a", "b"]
        assert rerun.n_bids == 0
        assert runtime.metrics.contests_fallback == 2
        assert runtime.metrics.contest_seconds == pytest.approx(1.2)  # two full windows
        assert bids_submitted(runtime) == {"a": 2, "b": 2}


class TestBidderLeavesMidContest:
    """A bid is committed to when the bid thread takes the announcement
    off its mailbox; what happens to the node while the bid is being
    computed only matters if the node dies."""

    def run_with(self, trace, at, action):
        profile = make_profile(make_spec("w1"), make_spec("w2"))
        runtime = WorkflowRuntime(
            profile=profile,
            stream=arrivals(("j0", "r0", 10.0, 0.0), ("j1", "r1", 10.0, 5.0)),
            scheduler=make_bidding_policy(bid_compute_s=0.25),
            config=quiet_config(trace=trace),
            faults=FaultPlan(),
        )
        contests = spy_on_contests(runtime)
        runtime.sim.call_at(at, action, runtime)
        runtime.run()
        return runtime, contests

    # The announcement reaches a worker by 0.003 s; its bid is evaluated
    # 0.25 s later.

    @BOTH_PATHS
    def test_drain_while_computing_still_bids(self, trace):
        runtime, contests = self.run_with(
            trace, 0.1, lambda rt: rt.workers["w2"].begin_drain()
        )
        assert contests[0].counted[contests[0].row_of("w2")]
        # ... but it abstains from then on.
        assert bids_submitted(runtime) == {"w1": 2, "w2": 1}

    @BOTH_PATHS
    def test_drain_before_the_announcement_abstains(self, trace):
        runtime, contests = self.run_with(
            trace, 0.0005, lambda rt: rt.workers["w2"].begin_drain()
        )
        assert not contests[0].counted[contests[0].row_of("w2")]
        assert bids_submitted(runtime).get("w2", 0) == 0

    @BOTH_PATHS
    def test_kill_while_computing_stays_silent(self, trace):
        runtime, contests = self.run_with(trace, 0.1, lambda rt: rt.workers["w2"].kill())
        assert not contests[0].counted[contests[0].row_of("w2")]
        assert contests[0].winner() == "w1"
        assert bids_submitted(runtime).get("w2", 0) == 0

    @BOTH_PATHS
    def test_hot_swap_while_computing_sends_the_bid(self, trace):
        def swap(runtime):
            runtime.workers["w2"].swap_policy(runtime.scheduler.make_worker())

        runtime, contests = self.run_with(trace, 0.1, swap)
        assert contests[0].counted[contests[0].row_of("w2")]
        # The successor was not subscribed when j0 was announced; it is
        # a bidder like any other for j1.
        assert bids_submitted(runtime) == {"w1": 2, "w2": 2}


class TestBidsSeeStateAtEvaluationTime:
    @BOTH_PATHS
    @pytest.mark.parametrize("bid_compute_s, sees_queue", [(0.2, True), (2.0, False)])
    def test_job_finishing_before_evaluation_leaves_the_bid(
        self, trace, bid_compute_s, sees_queue
    ):
        # j0 (10 MB: 1.0 s download + 0.2 s scan) runs from ~0.2 to
        # ~1.4 s.  j1 is announced at 0.5 s; w1 evaluates its bid at
        # 0.5 + bid_compute_s -- while j0 is still committed (0.7 s), or
        # after it has finished (2.5 s).
        runtime = WorkflowRuntime(
            profile=make_profile(make_spec("w1")),
            stream=arrivals(("j0", "r0", 10.0, 0.0), ("j1", "r1", 10.0, 0.5)),
            scheduler=make_bidding_policy(bid_compute_s=bid_compute_s, window_s=5.0),
            config=quiet_config(trace=trace),
        )
        contests = spy_on_contests(runtime)
        runtime.run()
        first, second = contests
        assert first.workload[0] == 0.0
        committed_j0 = float(first.cost[0])
        assert committed_j0 == pytest.approx(1.2)
        expected = committed_j0 if sees_queue else 0.0
        # Exactly j0's committed cost, or exactly nothing.
        assert second.workload[0] == expected
        assert second.cost[0] == expected + (second.transfer[0] + second.processing[0])


class TestFleetChangesMidContest:
    @BOTH_PATHS
    def test_restarted_worker_does_not_inherit_the_dead_bid(self, trace):
        profile = make_profile(make_spec("w1"), make_spec("w2"))
        runtime = WorkflowRuntime(
            profile=profile,
            stream=arrivals(("j0", "r0", 10.0, 0.0), ("j1", "r1", 10.0, 5.0)),
            scheduler=make_bidding_policy(bid_compute_s=0.25),
            config=quiet_config(trace=trace),
            faults=FaultPlan(),
        )
        contests = spy_on_contests(runtime)
        runtime.sim.call_at(0.1, lambda: runtime.workers["w2"].kill())
        # Back up (and subscribed again) before the dead incarnation's
        # bid would have been evaluated.
        runtime.sim.call_at(0.15, runtime.restart_worker, "w2")
        runtime.run()
        first, second = contests
        assert not first.counted[first.row_of("w2")]
        assert first.late_bids == []
        assert second.counted[second.row_of("w2")]
        assert bids_submitted(runtime) == {"w1": 2, "w2": 1}

    @BOTH_PATHS
    def test_worker_joining_mid_contest_is_not_invited(self, trace):
        profile = make_profile(make_spec("w1"), make_spec("w2"))
        runtime = WorkflowRuntime(
            profile=profile,
            stream=arrivals(("j0", "r0", 10.0, 0.0), ("j1", "r1", 10.0, 5.0)),
            scheduler=make_bidding_policy(bid_compute_s=0.25),
            config=quiet_config(trace=trace),
        )
        contests = spy_on_contests(runtime)

        def join():
            runtime.topology.add_node("w3", 0.001)
            node = runtime.workers["w3"] = runtime._build_node(make_spec("w3"))
            runtime.master.add_worker("w3")
            node.start()

        runtime.sim.call_at(0.1, join)
        runtime.run()
        first, second = contests
        assert first.names == ["w1", "w2"] and first.expected == {"w1", "w2"}
        assert second.names == ["w1", "w2", "w3"]
        assert bids_submitted(runtime) == {"w1": 2, "w2": 2, "w3": 1}


class TestBidsInFlightAtTheEnd:
    @BOTH_PATHS
    def test_unlanded_bids_are_not_counted(self, trace, monkeypatch):
        """The run ends while the slow bidder's last bid is still in
        flight: the columnar count stops where the reference's does."""
        from reference_bidding import make_reference_bidding_policy
        from repro.cluster.profiles import profile_by_name

        def bids(factory):
            runtime = WorkflowRuntime(
                profile=profile_by_name("fast-slow"),
                stream=arrivals(*[(f"j{i}", None, 0.0, 0.3 * i) for i in range(4)]),
                scheduler=factory(window_s=0.5),
                config=quiet_config(trace=trace),
            )
            runtime.run()
            return bids_submitted(runtime), runtime.metrics.makespan

        ours, makespan = bids(make_bidding_policy)
        assert (ours, makespan) == bids(make_reference_bidding_policy)
        # Data-free jobs finish at once, well before w2's 1.0 s bids land.
        assert ours["w2"] < ours["w1"] == 4


class TestHotSwapQuiesce:
    @pytest.mark.parametrize("successor", ["baseline", "bidding"])
    def test_a_job_arriving_on_a_poll_instant_is_handed_over(self, successor):
        """j1 is submitted at 1.5 s, the instant the quiesce polls at:
        the poll must see it waiting and export it with the rest, not
        lose it between the queue and the contest loop."""
        from repro.cluster.profiles import profile_by_name
        from repro.reconfig import ReconfigPlan, SchedulerSwap

        runtime = WorkflowRuntime(
            profile=profile_by_name("fast-slow"),
            stream=arrivals(
                ("j0", "r0", 20.0, 0.0), ("j1", "r1", 20.0, 1.5), ("j2", "r2", 20.0, 6.0)
            ),
            scheduler=make_bidding_policy(),
            config=quiet_config(trace=True, max_sim_time=500.0),
            reconfig=ReconfigPlan(
                swaps=(SchedulerSwap(at_s=0.5, scheduler=successor, poll_s=0.5),)
            ),
        )
        assert runtime.run().jobs_completed == 3
        swaps = [(e.time, e.kind) for e in runtime.metrics.trace if e.kind.startswith("swap")]
        assert swaps == [(0.5, "swap_quiesce"), (1.5, "swap_done")]


class TestClosedContestsAreFreed:
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"warm": 25, "fast_local_close": True, "max_concurrent_contests": 4}],
        ids=["paper", "fast-close"],
    )
    def test_no_reference_cycle_keeps_a_contest(self, kwargs):
        """With the cycle collector off, a finished job's contests are
        freed by reference counting alone: nothing a closed contest
        holds (a timer, a wake-up) points back at it."""
        import gc
        import weakref

        from repro.experiments.golden import scale_runtime

        runtime = scale_runtime(100, False, "bidding", **kwargs)
        policy = runtime.master.policy
        real_open, opened = policy._open, []

        def _open(job):
            contest = real_open(job)
            opened.append(weakref.ref(contest))
            return contest

        policy._open = _open
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = runtime.run()
            alive = [ref() for ref in opened if ref() is not None]
        finally:
            if enabled:
                gc.enable()
        assert result.jobs_completed == len(opened) == 300
        assert all(contest.computed for contest in alive)
        assert [contest.job.job_id for contest in alive] == []
