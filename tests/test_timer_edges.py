"""Edge cases of the direct-callback timer API and the fluid pipe.

These pin down the corner semantics the kernel hot-path overhaul must
preserve: lazy cancellation via generation tokens, timeout pooling,
deadline-exact ``run(until=...)``, and the fair-share pipe's behaviour
at zero size, simultaneous completion and sub-float-resolution
residuals.
"""

import weakref

import pytest

from repro.net.bandwidth import FairSharePipe
from repro.sim import Simulator, TimerHandle


# -- TimerHandle / call_at / call_later --------------------------------------


class TestTimerHandle:
    def test_fires_at_scheduled_time_with_args(self, sim):
        fired = []
        sim.call_later(2.5, lambda a, b: fired.append((sim.now, a, b)), "x", 7)
        sim.run()
        assert fired == [(2.5, "x", 7)]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        handle = sim.call_later(1.0, fired.append, "nope")
        assert handle.active
        handle.cancel()
        assert not handle.active
        sim.run()
        assert fired == []
        # The stale heap entry still advanced the clock to its slot.
        assert sim.now == 1.0

    def test_cancel_after_fire_is_noop_and_handle_is_reusable(self, sim):
        fired = []
        handle = sim.call_later(1.0, fired.append, "first")
        sim.run()
        assert fired == ["first"]
        assert not handle.active
        handle.cancel()  # must not raise or corrupt the generation
        sim.call_later(1.0, fired.append, "second", handle=handle)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0

    def test_rearm_supersedes_pending_occurrence(self, sim):
        fired = []
        handle = sim.call_later(1.0, lambda: fired.append(sim.now))
        # Re-arming bumps the generation: the t=1 entry goes stale.
        sim.call_at(3.0, lambda: fired.append(sim.now), handle=handle)
        sim.run()
        assert fired == [3.0]

    def test_rearm_after_cancel_fires_once(self, sim):
        fired = []
        handle = sim.call_later(1.0, lambda: fired.append(sim.now))
        handle.cancel()
        sim.call_later(2.0, lambda: fired.append(sim.now), handle=handle)
        sim.run()
        assert fired == [2.0]

    def test_callback_may_rearm_its_own_handle(self, sim):
        ticks = []
        handle = TimerHandle()

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 3:
                sim.call_later(1.0, tick, handle=handle)

        sim.call_later(1.0, tick, handle=handle)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_call_at_in_the_past_raises(self, sim):
        sim.call_later(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(0.5, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(ValueError):
            sim.call_later(-0.1, lambda: None)

    def test_timers_interleave_with_events_in_schedule_order(self, sim):
        order = []
        sim.call_later(1.0, lambda: order.append("timer"))

        def proc():
            yield sim.timeout(1.0)
            order.append("process")

        sim.process(proc())
        sim.run()
        # Timer was armed before the process's timeout was scheduled, so
        # at the shared timestamp it keeps FIFO arming order.
        assert order == ["timer", "process"]


class _Owner:
    """What a timer's callback is usually bound to."""

    def tick(self, _payload=None) -> None:
        pass


class TestAHandleHoldsNothingAtRest:
    """A handle keeps its callback and arguments only while armed, so an
    owner whose own timer calls back into it is no reference cycle."""

    def test_a_fired_handle_lets_go(self, sim):
        owner, payload = _Owner(), _Owner()
        handle = sim.call_later(1.0, owner.tick, payload)
        refs = weakref.ref(owner), weakref.ref(payload)
        del owner, payload
        assert all(ref() is not None for ref in refs)
        sim.run()
        assert [ref() for ref in refs] == [None, None]
        assert not handle.active

    def test_a_cancelled_handle_lets_go_before_its_entry_pops(self, sim):
        owner = _Owner()
        handle = sim.call_later(1.0, owner.tick, "x")
        ref = weakref.ref(owner)
        del owner
        handle.cancel()
        assert ref() is None and sim.peek() == 1.0

    def test_a_fired_handle_can_be_armed_again(self, sim):
        fired = []
        handle = sim.call_later(1.0, fired.append, "first")
        sim.run()
        assert sim.call_later(1.0, fired.append, "second", handle=handle) is handle
        assert handle.active
        sim.run()
        assert fired == ["first", "second"] and sim.now == 2.0


class TestClose:
    def test_close_leaves_the_heap_empty_and_every_timer_disarmed(self, sim):
        fired = []
        owner = _Owner()
        timer = sim.call_later(5.0, owner.tick)
        stale = sim.call_later(4.0, fired.append, "stale")
        stale.cancel()
        sim.timeout(3.0)

        def sleeper():
            yield sim.sleep(1.0)

        sim.process(sleeper())
        sim.run(until=2.0)
        ref = weakref.ref(owner)
        del owner
        sim.close()
        assert sim.peek() == float("inf") and not timer.active and ref() is None
        sim.run()
        assert fired == [] and sim.now == 2.0
        # The kernel still works: a fresh arm fires.
        sim.call_later(1.0, fired.append, "after")
        sim.run()
        assert fired == ["after"] and sim.now == 3.0


class TestRunUntilDeadline:
    def test_entry_exactly_on_deadline_is_processed(self, sim):
        fired = []
        sim.call_later(5.0, lambda: fired.append(sim.now))
        sim.run(until=5.0)
        assert fired == [5.0]
        assert sim.now == 5.0

    def test_clock_lands_exactly_on_deadline_with_no_entries(self, sim):
        sim.call_later(1.0, lambda: None)
        sim.run(until=7.25)
        assert sim.now == 7.25

    def test_entries_after_deadline_stay_scheduled(self, sim):
        fired = []
        sim.call_later(10.0, lambda: fired.append(sim.now))
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0
        sim.run()
        assert fired == [10.0]


class TestSleepPooling:
    def test_sleep_instances_are_recycled(self, sim):
        seen = []

        def proc():
            for _ in range(6):
                event = sim.sleep(0.5)
                seen.append(id(event))
                yield event

        sim.process(proc())
        sim.run()
        assert sim.now == 3.0
        # The pool recycles processed instances, so fewer distinct
        # objects than sleeps (exact count depends on recycle timing).
        assert len(set(seen)) < len(seen)

    def test_sleep_value_round_trips(self, sim):
        got = []

        def proc():
            got.append((yield sim.sleep(1.0, value="payload")))

        sim.process(proc())
        sim.run()
        assert got == ["payload"]

    def test_negative_sleep_raises_with_and_without_pool(self, sim):
        with pytest.raises(ValueError):
            sim.sleep(-1.0)  # pool empty: plain construction path

        def proc():
            yield sim.sleep(0.1)

        sim.process(proc())
        sim.run()  # a processed sleep now sits in the pool
        with pytest.raises(ValueError):
            sim.sleep(-1.0)  # pooled path


# -- FairSharePipe edges -----------------------------------------------------


class TestPipeEdges:
    def test_zero_size_transfer_completes_immediately(self, sim):
        pipe = FairSharePipe(sim, capacity_mbps=10.0)
        done = pipe.transfer(0.0)
        assert done.triggered
        sim.run()
        assert done.processed
        assert done.value == 0.0
        assert pipe.active_count == 0

    def test_simultaneous_completions_fire_in_start_order(self, sim):
        pipe = FairSharePipe(sim, capacity_mbps=100.0)
        order = []
        first = pipe.transfer(10.0)
        second = pipe.transfer(10.0)
        first.add_callback(lambda e: order.append(("first", sim.now)))
        second.add_callback(lambda e: order.append(("second", sim.now)))
        sim.run()
        # Equal sizes at equal share: both finish at 2*size/capacity.
        assert order == [("first", 0.2), ("second", 0.2)]
        assert first.value == second.value == 0.2

    def test_sub_resolution_residual_does_not_spin(self, sim):
        # At now=1e9 the clock's ulp (~1.2e-7 s) exceeds this transfer's
        # duration (1e-8 s): the completion time rounds to *now*, which
        # the residual-zeroing path must finish without a timer that can
        # never advance the clock.
        big = Simulator(start_time=1e9)
        pipe = FairSharePipe(big, capacity_mbps=100.0)
        done = pipe.transfer(1e-6)
        big.run()
        assert done.processed
        assert done.value == 0.0
        assert pipe.active_count == 0

    def test_sub_resolution_residual_between_peers(self, sim):
        # Two nearly-identical residuals: when the first completes, the
        # second's leftover is below the 1e-9 relative threshold and
        # must be swept up in the same settle instead of re-arming a
        # zero-advance timer.
        pipe = FairSharePipe(sim, capacity_mbps=100.0)
        first = pipe.transfer(10.0)
        second = pipe.transfer(10.0 * (1.0 + 1e-12))
        sim.run()
        assert first.processed and second.processed
        assert pipe.active_count == 0
        assert not pipe._timer.active

    def test_staggered_transfers_share_capacity(self, sim):
        pipe = FairSharePipe(sim, capacity_mbps=100.0)
        times = {}
        first = pipe.transfer(10.0)
        first.add_callback(lambda e: times.__setitem__("first", sim.now))

        def late():
            yield sim.sleep(0.05)
            done = pipe.transfer(10.0)
            done.add_callback(lambda e: times.__setitem__("second", sim.now))

        sim.process(late())
        sim.run()
        # First: 5 MB alone (0.05s) + 5 MB at half rate (0.1s) = 0.15s.
        assert times["first"] == pytest.approx(0.15)
        # Second: 5 MB at half rate + 5 MB alone = 0.1 + 0.05 after start.
        assert times["second"] == pytest.approx(0.2)
