"""Edge cases of the direct-callback timer API and the fluid pipe.

These pin down the corner semantics the kernel hot-path overhaul must
preserve: lazy cancellation via generation tokens, deadline-exact
``run(until=...)``, one heap-entry shape, and the fair-share pipe's
behaviour at zero size, simultaneous completion and
sub-float-resolution residuals.
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

    def test_call_soon_urgent_goes_first_normal_goes_last(self):
        sim = Simulator()
        order = []
        sim.call_at(0.0, order.append, "armed")
        sim.call_soon(order.append, "normal", urgent=False)
        sim.call_soon(order.append, "urgent")
        sim.run()
        assert order == ["urgent", "armed", "normal"]

    def test_every_heap_entry_has_one_shape(self):
        sim = Simulator()
        sim.call_soon(lambda: None)
        sim.call_soon(lambda: None, urgent=False)
        sim.call_at(1.0, lambda: None)
        sim.call_later(2.0, lambda: None)
        assert [(len(entry), type(entry[3])) for entry in sim._heap] == [(4, TimerHandle)] * 4

    def test_stop_ends_run_and_keeps_the_rest_scheduled(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, fired.append, "before")
        sim.call_at(1.0, sim.stop)
        sim.call_at(1.0, fired.append, "after")
        sim.run(until=5.0)
        assert fired == ["before"] and sim.now == 1.0
        sim.run()
        assert fired == ["before", "after"]


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
            yield sim.timeout(1.0)

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


# -- FairSharePipe edges -----------------------------------------------------


class TestPipeEdges:
    def test_zero_size_transfer_completes_immediately(self, sim):
        pipe = FairSharePipe(sim, capacity_mbps=10.0)
        done = []
        pipe.transfer(0.0, done.append)
        assert sim.peek() == 0.0 and done == []  # its turn is pushed
        sim.run()
        assert done == [0.0]
        assert pipe.active_count == 0

    def test_simultaneous_completions_fire_in_start_order(self, sim):
        pipe = FairSharePipe(sim, capacity_mbps=100.0)
        order = []
        pipe.transfer(10.0, lambda elapsed: order.append(("first", sim.now, elapsed)))
        pipe.transfer(10.0, lambda elapsed: order.append(("second", sim.now, elapsed)))
        sim.run()
        # Equal sizes at equal share: both finish at 2*size/capacity.
        assert order == [("first", 0.2, 0.2), ("second", 0.2, 0.2)]

    def test_sub_resolution_residual_does_not_spin(self, sim):
        # At now=1e9 the clock's ulp (~1.2e-7 s) exceeds this transfer's
        # duration (1e-8 s): the completion time rounds to *now*, which
        # the residual-zeroing path must finish without a timer that can
        # never advance the clock.
        big = Simulator(start_time=1e9)
        pipe = FairSharePipe(big, capacity_mbps=100.0)
        done = []
        pipe.transfer(1e-6, done.append)
        big.run()
        assert done == [0.0]
        assert pipe.active_count == 0

    def test_sub_resolution_residual_between_peers(self, sim):
        # Two nearly-identical residuals: when the first completes, the
        # second's leftover is below the 1e-9 relative threshold and
        # must be swept up in the same settle instead of re-arming a
        # zero-advance timer.
        pipe = FairSharePipe(sim, capacity_mbps=100.0)
        done = []
        pipe.transfer(10.0, done.append)
        pipe.transfer(10.0 * (1.0 + 1e-12), done.append)
        sim.run()
        assert len(done) == 2
        assert pipe.active_count == 0
        assert not pipe._timer.active

    def test_staggered_transfers_share_capacity(self, sim):
        pipe = FairSharePipe(sim, capacity_mbps=100.0)
        times = {}
        pipe.transfer(10.0, lambda _elapsed: times.__setitem__("first", sim.now))
        sim.call_later(
            0.05, pipe.transfer, 10.0, lambda _elapsed: times.__setitem__("second", sim.now)
        )
        sim.run()
        # First: 5 MB alone (0.05s) + 5 MB at half rate (0.1s) = 0.15s.
        assert times["first"] == pytest.approx(0.15)
        # Second: 5 MB at half rate + 5 MB alone = 0.1 + 0.05 after start.
        assert times["second"] == pytest.approx(0.2)
