"""Unit tests for the simulation event loop, driven through the
generator layer of ``tests/reference_sim.py``."""

import pytest

from reference_sim import Simulator
from repro.sim.kernel import EmptySchedule


@pytest.fixture
def sim():
    return Simulator()


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=100.0).now == 100.0

    def test_clock_advances_to_event_time(self, sim):
        sim.timeout(3.5)
        sim.run()
        assert sim.now == 3.5

    def test_clock_never_goes_backwards(self, sim):
        times = []
        for delay in (5.0, 1.0, 3.0, 1.0, 4.0):
            sim.timeout(delay).add_callback(lambda e: times.append(sim.now))
        sim.run()
        assert times == sorted(times)


class TestStep:
    def test_step_processes_one_event(self, sim):
        seen = []
        sim.timeout(1.0).add_callback(lambda e: seen.append(1))
        sim.timeout(2.0).add_callback(lambda e: seen.append(2))
        sim.step()
        assert seen == [1]

    def test_step_on_empty_schedule_raises(self, sim):
        with pytest.raises(EmptySchedule):
            sim.step()

    def test_peek_returns_next_time(self, sim):
        sim.timeout(7.0)
        assert sim.peek() == 7.0

    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == float("inf")


class TestRun:
    def test_run_exhausts_schedule(self, sim):
        count = []
        for i in range(10):
            sim.timeout(float(i)).add_callback(lambda e: count.append(1))
        sim.run()
        assert len(count) == 10

    def test_run_until_time_stops_early(self, sim):
        seen = []
        sim.timeout(1.0).add_callback(lambda e: seen.append("early"))
        sim.timeout(10.0).add_callback(lambda e: seen.append("late"))
        sim.run(until=5.0)
        assert seen == ["early"]
        assert sim.now == 5.0

    def test_run_until_time_in_past_raises(self, sim):
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=0.5)

    def test_run_until_event_returns_its_value(self, sim):
        target = sim.timeout(3.0, value="reached")
        sim.timeout(10.0)
        assert sim.run(until=target) == "reached"
        assert sim.now == 3.0

    def test_run_until_processed_event_is_noop(self, sim):
        target = sim.timeout(1.0, value="v")
        sim.run()
        assert sim.run(until=target) == "v"

    def test_run_until_unreachable_event_raises(self, sim):
        orphan = sim.event()  # never triggered
        sim.timeout(1.0)
        with pytest.raises(RuntimeError, match="ran out of events"):
            sim.run(until=orphan)

    def test_run_can_resume_after_deadline(self, sim):
        seen = []
        sim.timeout(10.0).add_callback(lambda e: seen.append("late"))
        sim.run(until=5.0)
        assert seen == []
        sim.run()
        assert seen == ["late"]
        assert sim.now == 10.0

    def test_deterministic_ordering_repeatable(self):
        def trace_run():
            sim = Simulator()
            order = []
            for index, delay in enumerate([2.0, 1.0, 2.0, 1.0]):
                sim.timeout(delay).add_callback(
                    lambda e, index=index: order.append(index)
                )
            sim.run()
            return order

        assert trace_run() == trace_run() == [1, 3, 0, 2]


class TestProcessFactory:
    def test_process_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_active_process_visible_during_resume(self, sim):
        observed = []

        def proc(sim):
            observed.append(sim.active_process)
            yield sim.timeout(1.0)

        process = sim.process(proc(sim))
        sim.run()
        assert observed == [process]
        assert sim.active_process is None
