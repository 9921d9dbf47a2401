"""Admission-control tests: token bucket, bounded queue, fairness,
backpressure plumbing."""

import pytest

from repro.serve.admission import (
    ADMIT,
    DELAY,
    SHED,
    AdmissionConfig,
    AdmissionController,
    TokenBucket,
)
from repro.sim import Simulator
from repro.workload.job import Job
from repro.workload.msr import TASK_ANALYZER


def make_job(index: int, tenant: str = "default") -> Job:
    return Job(job_id=f"j{index}", task=TASK_ANALYZER, payload=(tenant,))


def make_controller(sim=None, **kwargs) -> AdmissionController:
    return AdmissionController(sim or Simulator(), AdmissionConfig(**kwargs))


class TestTokenBucket:
    def test_burst_then_rate_paced(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        assert [bucket.try_take(0.0) for _ in range(4)] == [True, True, True, False]
        assert bucket.try_take(0.5) is False
        assert bucket.try_take(1.0) is True

    def test_time_until_token(self):
        bucket = TokenBucket(rate=2.0, burst=1.0)
        assert bucket.time_until_token(0.0) == 0.0
        assert bucket.try_take(0.0)
        assert bucket.time_until_token(0.0) == pytest.approx(0.5)

    def test_a_retry_after_the_hint_is_a_later_instant(self):
        # 1.4 - 0.4 refills 0.9999999999999999 tokens: a deficit far
        # below the clock's step at 1.4.  A retry landing back on 1.4
        # would find the same deficit, forever.
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_take(0.4) and not bucket.try_take(1.4)
        later = 1.4 + bucket.time_until_token(1.4)
        assert later > 1.4
        assert bucket.try_take(later)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.try_take(0.0) and bucket.try_take(0.0)
        # A long idle period refills to the cap, not beyond.
        results = [bucket.try_take(100.0) for _ in range(3)]
        assert results == [True, True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestBoundedQueue:
    def test_admits_until_cap_then_sheds(self):
        controller = make_controller(queue_cap=3)
        decisions = [controller.offer(make_job(i), "default") for i in range(5)]
        assert [d.action for d in decisions] == [ADMIT, ADMIT, ADMIT, SHED, SHED]
        assert decisions[3].reason == "queue_full"
        assert controller.depth == 3
        assert controller.shed_queue_full == 2
        assert controller.depth_peak == 3

    def test_depth_never_exceeds_cap(self):
        controller = make_controller(queue_cap=4)
        for i in range(50):
            controller.offer(make_job(i), "default")
            if i % 3 == 0:
                controller.next_job()
            assert controller.depth <= 4
        assert controller.depth_peak <= 4

    def test_dequeue_reopens_the_door(self):
        controller = make_controller(queue_cap=1)
        assert controller.offer(make_job(0), "default").action == ADMIT
        assert controller.offer(make_job(1), "default").action == SHED
        controller.next_job()
        assert controller.offer(make_job(2), "default").action == ADMIT

    def test_delay_policy_asks_caller_to_wait(self):
        controller = make_controller(queue_cap=1, policy="delay")
        controller.offer(make_job(0), "default")
        decision = controller.offer(make_job(1), "default")
        assert decision.action == DELAY
        assert decision.reason == "queue_full"
        assert decision.retry_after_s == 0.0
        assert controller.shed == 0  # delay never counts as shed


class TestRateLimit:
    def test_bucket_sheds_over_rate(self):
        controller = make_controller(queue_cap=100, rate_limit=1.0, rate_burst=2.0)
        decisions = [controller.offer(make_job(i), "default") for i in range(4)]
        assert [d.action for d in decisions] == [ADMIT, ADMIT, SHED, SHED]
        assert controller.shed_rate_limited == 2
        assert all(d.reason == "rate_limited" for d in decisions[2:])

    def test_delay_policy_returns_retry_hint(self):
        controller = make_controller(
            queue_cap=100, policy="delay", rate_limit=2.0, rate_burst=1.0
        )
        assert controller.offer(make_job(0), "default").action == ADMIT
        decision = controller.offer(make_job(1), "default")
        assert decision.action == DELAY
        assert decision.reason == "rate_limited"
        assert decision.retry_after_s == pytest.approx(0.5)


class TestTenantFairness:
    def test_weighted_dequeue_shares(self):
        controller = make_controller(
            queue_cap=100, tenant_weights={"a": 2.0, "b": 1.0}
        )
        for i in range(30):
            controller.offer(make_job(i, "a"), "a")
            controller.offer(make_job(100 + i, "b"), "b")
        drained = [controller.next_job()[1] for _ in range(30)]
        # SFQ with weight 2:1 interleaves roughly two a's per b.
        assert drained.count("a") == 20
        assert drained.count("b") == 10

    def test_fifo_within_a_tenant(self):
        controller = make_controller(queue_cap=100)
        for i in range(5):
            controller.offer(make_job(i), "default")
        order = [controller.next_job()[0].job_id for _ in range(5)]
        assert order == [f"j{i}" for i in range(5)]

    def test_idle_tenant_banks_no_credit(self):
        controller = make_controller(queue_cap=100)
        # Tenant a runs alone for a while...
        for i in range(10):
            controller.offer(make_job(i, "a"), "a")
        for _ in range(10):
            controller.next_job()
        # ...then b arrives.  b must not monopolise the queue to "catch
        # up" on service it never requested: the drain alternates.
        for i in range(4):
            controller.offer(make_job(100 + i, "a"), "a")
            controller.offer(make_job(200 + i, "b"), "b")
        drained = [controller.next_job()[1] for _ in range(8)]
        assert drained.count("b") == 4
        assert sorted(set(drained[:2])) == ["a", "b"]

    def test_unlisted_tenant_defaults_to_weight_one(self):
        controller = make_controller(queue_cap=100, tenant_weights={"vip": 3.0})
        for i in range(8):
            controller.offer(make_job(i, "vip"), "vip")
            controller.offer(make_job(100 + i, "anon"), "anon")
        drained = [controller.next_job()[1] for _ in range(8)]
        assert drained.count("vip") == 6
        assert drained.count("anon") == 2

    def test_per_tenant_counters(self):
        controller = make_controller(queue_cap=2)
        controller.offer(make_job(0, "a"), "a")
        controller.offer(make_job(1, "b"), "b")
        controller.offer(make_job(2, "b"), "b")  # shed: queue full
        assert controller.per_tenant_admitted == {"a": 1, "b": 1}
        assert controller.per_tenant_shed == {"b": 1}


class TestBackpressurePlumbing:
    def test_wait_for_space_fires_on_dequeue(self):
        sim = Simulator()
        controller = make_controller(sim, queue_cap=1)
        controller.offer(make_job(0), "default")
        woken = []
        controller.wait_for_space(woken.append, "space")
        sim.run()
        assert woken == []
        controller.next_job()
        sim.run()
        assert woken == ["space"]

    def test_wait_for_space_immediate_below_cap(self):
        sim = Simulator()
        controller = make_controller(sim, queue_cap=2)
        controller.offer(make_job(0), "default")
        woken = []
        controller.wait_for_space(woken.append, "space")
        sim.run()
        assert woken == ["space"]


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AdmissionConfig(queue_cap=0)
        with pytest.raises(ValueError):
            AdmissionConfig(policy="drop")
        with pytest.raises(ValueError):
            AdmissionConfig(rate_limit=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(rate_burst=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(tenant_weights={"a": 0.0})
