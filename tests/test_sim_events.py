"""Unit tests for the event primitives of ``tests/reference_sim.py``."""

import pytest

from reference_sim import AnyOf, EventFailed, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestEventLifecycle:
    def test_fresh_event_is_untriggered(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_marks_triggered(self, sim):
        event = sim.event().succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_returns_self(self, sim):
        event = sim.event()
        assert event.succeed() is event

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(RuntimeError):
            _ = sim.event().value

    def test_ok_before_trigger_raises(self, sim):
        with pytest.raises(RuntimeError):
            _ = sim.event().ok

    def test_double_succeed_raises(self, sim):
        event = sim.event().succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_then_succeed_raises(self, sim):
        event = sim.event().fail(ValueError("boom")).defuse()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_failed_value_raises_eventfailed(self, sim):
        event = sim.event().fail(ValueError("boom")).defuse()
        with pytest.raises(EventFailed):
            _ = event.value

    def test_exception_property(self, sim):
        cause = ValueError("boom")
        event = sim.event().fail(cause).defuse()
        assert event.exception is cause

    def test_exception_is_none_on_success(self, sim):
        assert sim.event().succeed().exception is None

    def test_processed_after_step(self, sim):
        event = sim.event().succeed()
        sim.run()
        assert event.processed

    def test_callback_runs_on_processing(self, sim):
        seen = []
        event = sim.event()
        event.add_callback(seen.append)
        event.succeed("x")
        sim.run()
        assert seen == [event]

    def test_callback_on_processed_event_runs_immediately(self, sim):
        event = sim.event().succeed()
        sim.run()
        seen = []
        event.add_callback(seen.append)
        assert seen == [event]

    def test_unhandled_failure_propagates_from_run(self, sim):
        sim.event().fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_defused_failure_does_not_propagate(self, sim):
        sim.event().fail(ValueError("boom")).defuse()
        sim.run()  # no raise

    def test_trigger_mirrors_success(self, sim):
        source = sim.event().succeed("payload")
        mirror = sim.event()
        mirror.trigger(source)
        assert mirror.value == "payload"

    def test_trigger_mirrors_failure(self, sim):
        cause = RuntimeError("x")
        source = sim.event().fail(cause).defuse()
        mirror = sim.event().defuse()
        mirror.trigger(source)
        assert mirror.exception is cause


class TestTimeout:
    def test_fires_at_delay(self, sim):
        timeout = sim.timeout(5.0)
        sim.run()
        assert timeout.processed
        assert sim.now == 5.0

    def test_carries_value(self, sim):
        timeout = sim.timeout(1.0, value="done")
        sim.run()
        assert timeout.value == "done"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_zero_delay_fires_at_now(self, sim):
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.processed
        assert sim.now == 0.0

    def test_cannot_be_succeeded_manually(self, sim):
        timeout = sim.timeout(1.0)
        with pytest.raises(RuntimeError):
            timeout.succeed()
        with pytest.raises(RuntimeError):
            timeout.fail(ValueError())
        sim.run()

    def test_ordering_of_two_timeouts(self, sim):
        order = []
        sim.timeout(2.0).add_callback(lambda e: order.append("late"))
        sim.timeout(1.0).add_callback(lambda e: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_equal_time_fifo_by_creation(self, sim):
        order = []
        sim.timeout(1.0).add_callback(lambda e: order.append("first"))
        sim.timeout(1.0).add_callback(lambda e: order.append("second"))
        sim.run()
        assert order == ["first", "second"]


class TestConditions:
    def test_anyof_fires_on_first(self, sim):
        t1, t2 = sim.timeout(1.0, "fast"), sim.timeout(5.0, "slow")

        def check(sim, condition):
            value = yield condition
            return (sim.now, list(value.values()))

        proc = sim.process(check(sim, AnyOf(sim, [t1, t2])))
        assert sim.run(proc) == (1.0, ["fast"])

    def test_anyof_with_already_triggered_event(self, sim):
        done = sim.event().succeed("now")
        sim.run()
        condition = AnyOf(sim, [done, sim.timeout(10.0)])
        assert condition.triggered

    def test_condition_rejects_foreign_events(self, sim):
        other = Simulator()
        with pytest.raises(ValueError):
            AnyOf(sim, [sim.timeout(1.0), other.timeout(1.0)])
