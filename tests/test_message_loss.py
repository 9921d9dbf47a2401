"""Message-loss robustness tests (control-plane drops, persistent data plane)."""

import numpy as np
import pytest

from conftest import make_profile, make_spec
from reference_sim import Simulator, inbox
from repro.engine.messages import (
    Assignment,
    Bid,
    Hello,
    JobAnnouncement,
    JobCompleted,
    JobOffer,
    NoWork,
    PullRequest,
    is_reliable,
)
from repro.host import EngineConfig, WorkflowRuntime
from repro.net.broker import Broker
from repro.net.topology import TopologyConfig
from repro.schedulers.registry import make_scheduler
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


def lossy_config(loss, seed=0, max_sim_time=20_000.0):
    return EngineConfig(
        seed=seed,
        noise_kind="none",
        noise_params={},
        topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
        message_loss=loss,
        max_sim_time=max_sim_time,
    )


def stream_of(n=15):
    return JobStream(
        arrivals=[
            JobArrival(
                at=float(i),
                job=Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i}", size_mb=20.0),
            )
            for i in range(n)
        ]
    )


class TestReliabilityClassification:
    def test_job_carrying_messages_are_reliable(self):
        job = Job(job_id="j", task=TASK_ANALYZER, repo_id="r", size_mb=1.0)
        assert is_reliable(Assignment(job=job))
        assert is_reliable(JobOffer(job=job))
        assert is_reliable(JobCompleted(job=job, worker="w"))
        assert is_reliable(Hello(worker="w"))

    def test_control_messages_are_lossy(self):
        job = Job(job_id="j", task=TASK_ANALYZER, repo_id="r", size_mb=1.0)
        assert not is_reliable(PullRequest(worker="w"))
        assert not is_reliable(NoWork(worker="w"))
        assert not is_reliable(Bid(job_id="j", worker="w", cost_s=1.0))
        assert not is_reliable(JobAnnouncement(job=job))


class TestBrokerDropModel:
    def test_drop_rate_approximates_probability(self):
        sim = Simulator()
        broker = Broker(sim, drop_probability=0.3, rng=np.random.default_rng(1))
        sub = broker.subscribe("t", "w")
        inbox(sim, sub)
        for index in range(2000):
            broker.publish("t", index)
        sim.run()
        delivered = sub.delivered
        assert 0.6 * 2000 < delivered < 0.8 * 2000
        assert broker.dropped == 2000 - delivered

    def test_reliable_never_dropped(self):
        sim = Simulator()
        broker = Broker(sim, drop_probability=0.9, rng=np.random.default_rng(1))
        sub = broker.subscribe("t", "w")
        inbox(sim, sub)
        for index in range(200):
            broker.publish("t", index, reliable=True)
        sim.run()
        assert sub.delivered == 200
        assert broker.dropped == 0

    def test_drop_requires_rng(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Broker(sim, drop_probability=0.5)

    def test_invalid_probability(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Broker(sim, drop_probability=1.0, rng=np.random.default_rng(0))


class TestBiddingUnderLoss:
    def test_completes_with_lost_bids_and_announcements(self):
        profile = make_profile(make_spec("w1"), make_spec("w2"), make_spec("w3"))
        runtime = WorkflowRuntime(
            profile=profile,
            stream=stream_of(),
            scheduler=make_scheduler("bidding", bid_compute_s=0.0),
            config=lossy_config(0.3),
        )
        result = runtime.run()
        assert result.jobs_completed == 15
        assert runtime.topology.broker.dropped > 0

    def test_loss_shows_up_as_incomplete_contests(self):
        profile = make_profile(*[make_spec(f"w{i}") for i in range(1, 6)])
        runtime = WorkflowRuntime(
            profile=profile,
            stream=stream_of(30),
            scheduler=make_scheduler("bidding", bid_compute_s=0.0),
            config=lossy_config(0.4),
        )
        runtime.run()
        metrics = runtime.metrics
        # With 40 % control loss, many contests cannot be 'full'.
        assert metrics.contests_closed_full < metrics.contests_opened

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError):
            lossy_config(1.0)


class TestBaselineUnderLoss:
    def test_stalls_without_response_timeout(self):
        """The paper's reliable-broker protocol deadlocks when pulls are
        lost: the worker waits forever for an answer."""
        profile = make_profile(make_spec("w1"), make_spec("w2"))
        runtime = WorkflowRuntime(
            profile=profile,
            stream=stream_of(10),
            scheduler=make_scheduler("baseline"),
            config=lossy_config(0.5, max_sim_time=500.0),
        )
        with pytest.raises(RuntimeError, match="did not complete"):
            runtime.run()

    def test_completes_with_response_timeout(self):
        profile = make_profile(make_spec("w1"), make_spec("w2"))
        runtime = WorkflowRuntime(
            profile=profile,
            stream=stream_of(10),
            scheduler=make_scheduler("baseline", response_timeout_s=2.0),
            config=lossy_config(0.5, max_sim_time=50_000.0),
        )
        result = runtime.run()
        assert result.jobs_completed == 10

    def test_timeout_validated(self):
        with pytest.raises(ValueError):
            make_scheduler("baseline", response_timeout_s=0.0).make_worker()

    def test_no_behaviour_change_without_loss(self):
        """With a reliable broker, the timeout extension never fires, so
        results are identical to the paper's protocol."""
        profile = make_profile(make_spec("w1"), make_spec("w2"))
        plain = WorkflowRuntime(
            profile=profile,
            stream=stream_of(10),
            scheduler=make_scheduler("baseline"),
            config=lossy_config(0.0),
        ).run()
        with_timeout = WorkflowRuntime(
            profile=profile,
            stream=stream_of(10),
            scheduler=make_scheduler("baseline", response_timeout_s=3.0),
            config=lossy_config(0.0),
        ).run()
        assert plain.makespan_s == with_timeout.makespan_s
        assert plain.cache_misses == with_timeout.cache_misses


class TestPullLossTimeout:
    """The worker's bounded wait for the master's answer, case by case:
    one worker on a zero-latency broker, the test playing the master."""

    TIMEOUT, HEARTBEAT = 2.0, 0.5

    @pytest.fixture(params=["baseline", "matchmaking", "delay"])
    def rig(self, request):
        from conftest import make_worker
        from repro.engine.messages import TOPIC_MASTER, worker_topic

        sim = Simulator()
        policy = make_scheduler(
            request.param, response_timeout_s=self.TIMEOUT, heartbeat_s=self.HEARTBEAT
        ).make_worker()
        worker = make_worker(sim, policy=policy)
        to_master = inbox(sim, worker.topology.broker.subscribe(TOPIC_MASTER, "master"))
        heard = []

        def listen():
            while True:
                message = yield to_master.get()
                if not isinstance(message, Hello):
                    heard.append((sim.now, type(message).__name__))

        sim.process(listen())
        worker.start()

        def answer(message):
            worker.topology.broker.publish(worker_topic(worker.name), message)

        return sim, worker, heard, answer

    @staticmethod
    def offer(compute=10.0):
        return JobOffer(job=Job(job_id="j", task=TASK_ANALYZER, base_compute_s=compute))

    def test_no_answer_means_a_pull_per_timeout(self, rig):
        sim, _worker, heard, _answer = rig
        sim.run(until=5.0)
        assert heard == [(0.0, "PullRequest"), (2.0, "PullRequest"), (4.0, "PullRequest")]

    def test_answer_in_time_disarms_the_deadline(self, rig):
        sim, worker, heard, answer = rig
        sim.call_at(1.0, answer, NoWork(worker.name))
        sim.run(until=3.0)
        # Heartbeat after the NoWork, then a fresh pull with a fresh
        # deadline (3.5): the first pull's deadline (2.0) is dead.
        assert heard == [(0.0, "PullRequest"), (1.5, "PullRequest")]

    def test_answer_just_ahead_of_the_deadline_at_the_same_instant(self, rig):
        sim, worker, heard, answer = rig
        # Armed before the run, so ahead of the deadline in the queue:
        # the offer is in the worker's inbox when the deadline fires and
        # reaches the policy before the timed-out turn is taken.  It must
        # be taken, not swallowed (the process-based loop this replaces
        # lost exactly this offer, and with it the job).
        sim.call_at(self.TIMEOUT, answer, self.offer())
        sim.run(until=5.0)
        assert heard == [(0.0, "PullRequest"), (2.0, "JobAccept")]
        assert not worker.is_idle

    def test_answer_just_behind_the_deadline_at_the_same_instant(self, rig):
        sim, worker, heard, answer = rig
        # Armed mid-run, so behind the deadline in the queue: the worker
        # has given up and pulled again by the time it sees the offer,
        # which then answers that second pull.
        sim.call_at(1.0, sim.call_at, self.TIMEOUT, answer, self.offer())
        sim.run(until=5.0)
        assert heard == [(0.0, "PullRequest"), (2.0, "PullRequest"), (2.0, "JobAccept")]
        assert not worker.is_idle

    def test_late_answer_serves_the_next_pull(self, rig):
        sim, worker, heard, answer = rig
        sim.call_at(2.5, answer, NoWork(worker.name))  # to the pull of t=0
        sim.call_at(3.2, answer, self.offer(compute=10.0))  # to the pull of t=2
        sim.run(until=12.0)
        assert heard == [
            (0.0, "PullRequest"),
            (2.0, "PullRequest"),  # first pull timed out
            (3.0, "PullRequest"),  # late NoWork + one heartbeat
            (3.2, "JobAccept"),  # late offer answers the third pull
        ]
        # ... and neither stale deadline (4.0, 5.0) disturbed the job.
        sim.run(until=14.0)
        assert heard[4:] == [(13.2, "JobCompleted"), (13.2, "PullRequest")]
