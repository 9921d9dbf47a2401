"""Protocol tests for Crossflow's Baseline scheduler (Section 4)."""

import dataclasses

import pytest

from conftest import make_profile, make_spec
from repro.engine.messages import Assignment, JobOffer, NoWork
from repro.host import EngineConfig, WorkflowRuntime
from repro.net.topology import TopologyConfig
from repro.schedulers.baseline import BaselineMasterPolicy, make_baseline_policy
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


def quiet_config(seed=0):
    return EngineConfig(
        seed=seed,
        noise_kind="none",
        noise_params={},
        topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
    )


def arrivals(*specs):
    return JobStream(
        arrivals=[
            JobArrival(
                at=at,
                job=Job(
                    job_id=job_id,
                    task=TASK_ANALYZER,
                    repo_id=repo,
                    size_mb=size,
                ),
            )
            for job_id, repo, size, at in specs
        ]
    )


def runtime_for(stream, n_workers=3, requeue="front", initial_caches=None):
    profile = make_profile(*[make_spec(f"w{i + 1}") for i in range(n_workers)])
    return WorkflowRuntime(
        profile=profile,
        stream=stream,
        scheduler=make_baseline_policy(requeue=requeue),
        config=quiet_config(),
        initial_caches=initial_caches,
    )


class TestColdCacheBehaviour:
    def test_cold_job_rejected_before_acceptance(self):
        """First-time jobs are declined: "when executing the pipeline for
        the first time, all worker nodes will end up rejecting
        repository-related jobs"."""
        runtime = runtime_for(arrivals(("j0", "r0", 10.0, 0.0)))
        result = runtime.run()
        assert result.rejections >= 1
        assert result.jobs_completed == 1

    def test_every_job_completes_despite_rejections(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, float(i)) for i in range(12)])
        runtime = runtime_for(stream)
        result = runtime.run()
        assert result.jobs_completed == 12
        assert result.cache_misses == 12  # all distinct, all cold

    def test_worker_declines_each_job_at_most_once(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, 0.0) for i in range(6)])
        runtime = runtime_for(stream)
        runtime.metrics.trace.enabled = True
        runtime.run()
        seen = set()
        for event in runtime.metrics.trace.of_kind("rejected"):
            key = (event.job_id, event.worker)
            assert key not in seen, f"{key} declined twice"
            seen.add(key)

    def test_data_free_jobs_accepted_first_time(self):
        stream = JobStream(
            arrivals=[
                JobArrival(at=0.0, job=Job(job_id="s", task=TASK_ANALYZER, base_compute_s=1.0))
            ]
        )
        runtime = runtime_for(stream)
        result = runtime.run()
        assert result.rejections == 0


class TestLocalityAcceptance:
    def test_cached_worker_accepts_without_rejection(self):
        stream = arrivals(("j0", "hot", 10.0, 0.0))
        runtime = runtime_for(
            stream, initial_caches={"w1": {"hot": 10.0}}
        )
        result = runtime.run()
        assert runtime.master.assignments["j0"] == "w1"
        assert result.cache_misses == 0

    def test_busy_holder_forces_redundant_clone(self):
        """The paper's stated weakness: a busy holder means some other
        node is eventually forced to clone the repository again."""
        stream = arrivals(
            ("blocker", "big", 2000.0, 0.0),  # w1 busy for ~200 s
            ("j1", "hot", 10.0, 5.0),
        )
        runtime = runtime_for(
            stream,
            n_workers=2,
            initial_caches={"w1": {"hot": 10.0, "big": 2000.0}},
        )
        result = runtime.run()
        # w1 is stuck on the blocker, so w2 must take j1 on second offer.
        assert runtime.master.assignments["j1"] == "w2"
        assert result.cache_misses >= 1


class TestRequeueVariants:
    @pytest.mark.parametrize("requeue", ["front", "back"])
    def test_both_variants_complete(self, requeue):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, 0.0) for i in range(8)])
        result = runtime_for(stream, requeue=requeue).run()
        assert result.jobs_completed == 8

    def test_invalid_requeue_rejected(self):
        with pytest.raises(ValueError):
            BaselineMasterPolicy(requeue="sideways")

    def test_invalid_heartbeat_rejected(self):
        with pytest.raises(ValueError):
            make_baseline_policy(heartbeat_s=0.0).make_worker()


class TestPullDiscipline:
    def test_worker_executes_one_job_at_a_time(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 100.0, 0.0) for i in range(6)])
        runtime = runtime_for(stream, n_workers=2)
        runtime.metrics.trace.enabled = True
        runtime.run()
        # Reconstruct per-worker concurrency from the trace.
        running = {name: 0 for name in runtime.workers}
        peak = 0
        for event in runtime.metrics.trace:
            if event.kind == "started":
                running[event.worker] += 1
                peak = max(peak, max(running.values()))
            elif event.kind == "completed" and event.worker is not None:
                running[event.worker] -= 1
        assert peak == 1

    def test_offers_only_go_to_pulling_workers(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 20.0, 0.0) for i in range(4)])
        runtime = runtime_for(stream, n_workers=2)
        runtime.metrics.trace.enabled = True
        runtime.run()
        offers = runtime.metrics.trace.of_kind("offered")
        assert offers, "expected offers to be traced"
        # An offer must never target a worker that is mid-execution.
        for offer in offers:
            starts = [
                e
                for e in runtime.metrics.trace
                if e.kind == "started" and e.worker == offer.worker and e.time <= offer.time
            ]
            ends = [
                e
                for e in runtime.metrics.trace
                if e.kind == "completed" and e.worker == offer.worker and e.time <= offer.time
            ]
            assert len(starts) == len(ends), (
                f"offer to {offer.worker} at {offer.time} while executing"
            )


# What can happen to a node while an offer settled as a decline is still
# on its way there (TestHowDeclinesRun).


def kill(runtime, node, job):
    node.kill()  # ... and reports it: one WorkerFailure


def drain(runtime, node, job):
    runtime.master.retire_worker(node.name)
    node.begin_drain()


def prewarm(runtime, node, job):
    # What the migration controller does to a rebind target.
    node.cache.insert(job.repo_id, job.size_mb)
    node.policy.on_state_changed((job.repo_id,))


def rebind(runtime, node, job):
    # Some other job's Assignment reaches the node ahead of the offer.
    other = Job(job_id="migrated", task=TASK_ANALYZER, base_compute_s=30.0)
    node.inbox.owner.deliver(Assignment(job=other))


def stale_answer(runtime, node, job):
    # A hot-swapped-out master's NoWork, still on the wire: it answers
    # the pull, so the offer finds the node idling out a heartbeat.
    node.inbox.owner.deliver(NoWork(node.name))


class TestHowDeclinesRun:
    """A certain decline is settled at the master -- no ``JobOffer``, no
    ``JobReject``, no ``PullRequest`` -- unless the messages can be told
    apart or its outcome is open after all (ARCHITECTURE.md section 12
    has the list).  ``Broker.published`` counts the real ones."""

    STREAM = (("j0", "r0", 10.0, 0.0), ("j1", "r1", 10.0, 5.0))

    def build(self, policy_kwargs=None, faults=None, **config):
        return WorkflowRuntime(
            profile=make_profile(*[make_spec(f"w{i + 1}") for i in range(3)]),
            stream=arrivals(*self.STREAM),
            scheduler=make_baseline_policy(**(policy_kwargs or {})),
            config=dataclasses.replace(quiet_config(), **{"trace": False, **config}),
            faults=faults,
        )

    def messages(self, **kwargs):
        runtime = self.build(**kwargs)
        result = runtime.run()
        assert result.jobs_completed == 2
        return runtime.topology.broker.published, result.rejections

    def test_an_unobserved_certain_decline_publishes_nothing(self):
        sent, declines = self.messages()
        real, same = self.messages(trace=True)
        # Both jobs arrive cold at three parked workers: every decline is
        # foregone, and each one is three messages.
        assert declines == same == 6
        assert sent == real - 3 * declines

    @pytest.mark.parametrize(
        "config", [{"check": True}, {"obs": True}, {"message_loss": 0.01}]
    )
    def test_observers_and_a_lossy_broker_get_real_messages(self, config):
        assert self.messages(**config) == self.messages(trace=True)

    def test_a_leg_that_takes_no_time_gets_real_messages(self):
        here = TopologyConfig(min_latency=0.0, max_latency=0.0, broker_processing=0.0)
        assert self.messages(topology=here) == self.messages(topology=here, trace=True)

    def test_a_loss_deadline_gets_real_messages(self):
        bounded = {"response_timeout_s": 5.0}
        assert self.messages(policy_kwargs=bounded) == self.messages(
            policy_kwargs=bounded, trace=True
        )

    def test_a_fault_plan_that_will_cut_the_broker_does_from_the_start(self):
        from repro.faults import FaultPlan, MessageLoss, WorkerCrash

        # The loss window only starts after the last decline ...
        window = FaultPlan(message_loss=(MessageLoss(start_s=50.0, end_s=60.0, probability=0.5),))
        assert self.messages(faults=window) == self.messages(faults=window, trace=True)
        # ... while crashes alone leave the broker reliable.
        crash = FaultPlan(crashes=(WorkerCrash(worker="w2", at_s=50.0),))
        real, declines = self.messages(faults=crash, trace=True)
        assert self.messages(faults=crash) == (real - 3 * declines, declines)

    # -- un-settling --------------------------------------------------------

    def until_settled(self):
        """Run to the master's first settlement; returns the runtime, the
        offeree's node, the job, and every ``JobOffer`` a node takes off
        its inbox from here on as ``(instant, worker, job_id)``."""
        runtime = self.build()
        runtime.master.start()
        offers = []
        for node in runtime.workers.values():
            node.start()
            mailbox = node.inbox.owner

            def handler(message, node=node, handle=mailbox.handler):
                if isinstance(message, JobOffer):
                    offers.append((runtime.sim.now, node.name, message.job.job_id))
                return handle(message)

            mailbox.handler = handler
        policy = runtime.master.policy
        settle, settled = policy._settle, []

        def spy(worker, job, prior_offers):
            done = settle(worker, job, prior_offers)
            if done:
                settled.append((runtime.workers[worker], job))
            return done

        policy._settle = spy
        while not settled:
            runtime.sim.step()
        return (runtime, *settled[0], offers)

    @pytest.mark.parametrize(
        "change, says",
        [
            # The kill's own report, then the dead node bounces the offer.
            (kill, ["WorkerFailure", "WorkerFailure"]),
            # Returned, and no further pull.
            (drain, ["JobReject"]),
            (prewarm, ["JobAccept"]),
            # Declined, and no pull while the node is busy.
            (rebind, ["JobReject"]),
            # Kept for the pull that follows the heartbeat.
            (stale_answer, []),
        ],
        ids=["kill", "drain", "prewarm", "rebind", "stale-answer"],
    )
    def test_a_change_before_the_offer_lands_puts_it_back(self, change, says):
        runtime, node, job, offers = self.until_settled()
        broker = runtime.topology.broker
        landing, timer, *_ = node.policy.settled
        assert runtime.sim.now < landing < timer.when and timer.active
        said, send = [], node.send_to_master
        node.send_to_master = lambda message: (said.append(type(message).__name__), send(message))
        sent = broker.published
        change(runtime, node, job)
        runtime.sim.run(until=landing)
        # The master's timer is off, and exactly one real JobOffer took
        # the place of the settled one: same job, same node, same instant.
        assert not timer.active
        assert [offer for offer in offers if offer[1] == node.name] == [
            (landing, node.name, job.job_id)
        ]
        assert said == says
        assert broker.published == sent + 1 + len(said)

    def test_a_change_once_the_offer_has_landed_puts_nothing_back(self):
        runtime, node, job, offers = self.until_settled()
        landing, timer, *_ = node.policy.settled
        runtime.sim.run(until=landing)
        sent = runtime.topology.broker.published
        drain(runtime, node, job)
        assert timer.active and runtime.topology.broker.published == sent
        # The worker has answered by now -- as far as anyone can tell.
        runtime.sim.run()  # until the master, done, stops it
        assert all(instant > timer.when for instant, _worker, _job in offers)
        assert runtime.metrics.jobs_completed == 2
