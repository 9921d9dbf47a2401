"""Unit tests for generator-based processes, and for the interrupts of
the processes the generator reference implementations run as."""

import pytest

from reference_sim import Interrupt, Process, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestProcessBasics:
    def test_return_value_becomes_event_value(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            return "result"

        assert sim.run(sim.process(proc(sim))) == "result"

    def test_yield_receives_event_value(self, sim):
        def proc(sim):
            value = yield sim.timeout(2.0, value="payload")
            return value

        assert sim.run(sim.process(proc(sim))) == "payload"

    def test_process_without_yield_still_runs(self, sim):
        def proc(sim):
            return "instant"
            yield  # pragma: no cover - makes it a generator

        assert sim.run(sim.process(proc(sim))) == "instant"

    def test_process_is_alive_until_finished(self, sim):
        def proc(sim):
            yield sim.timeout(5.0)

        process = sim.process(proc(sim))
        assert process.is_alive
        sim.run()
        assert not process.is_alive

    def test_processes_wait_on_each_other(self, sim):
        def child(sim):
            yield sim.timeout(3.0)
            return "child-result"

        def parent(sim):
            result = yield sim.process(child(sim))
            return (sim.now, result)

        assert sim.run(sim.process(parent(sim))) == (3.0, "child-result")

    def test_waiting_on_finished_process_returns_immediately(self, sim):
        def child(sim):
            yield sim.timeout(1.0)
            return 7

        child_proc = sim.process(child(sim))
        sim.run()

        def parent(sim):
            value = yield child_proc
            return value

        assert sim.run(sim.process(parent(sim))) == 7

    def test_exception_in_process_propagates(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("inside")

        sim.process(proc(sim))
        with pytest.raises(RuntimeError, match="inside"):
            sim.run()

    def test_waiter_can_catch_child_failure(self, sim):
        def child(sim):
            yield sim.timeout(1.0)
            raise ValueError("child failed")

        def parent(sim):
            try:
                yield sim.process(child(sim))
            except ValueError as exc:
                return f"caught: {exc}"

        assert sim.run(sim.process(parent(sim))) == "caught: child failed"

    def test_yielding_non_event_fails_process(self, sim):
        def proc(sim):
            yield 42

        sim.process(proc(sim))
        with pytest.raises(RuntimeError, match="non-event"):
            sim.run()

    def test_named_process_repr(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)

        process = sim.process(proc(sim), name="my-proc")
        assert "my-proc" in repr(process)
        sim.run()


class TestInterrupt:
    def test_interrupt_aborts_wait(self, sim):
        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
                return "overslept"
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, sim.now)

        def waker(sim, target):
            yield sim.timeout(5.0)
            target.interrupt("cause-object")

        sleeper_proc = Process(sim, sleeper(sim))
        sim.process(waker(sim, sleeper_proc))
        assert sim.run(sleeper_proc) == ("interrupted", "cause-object", 5.0)

    def test_interrupted_process_can_continue(self, sim):
        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                pass
            yield sim.timeout(2.0)
            return sim.now

        def waker(sim, target):
            yield sim.timeout(1.0)
            target.interrupt()

        sleeper_proc = Process(sim, sleeper(sim))
        sim.process(waker(sim, sleeper_proc))
        assert sim.run(sleeper_proc) == 3.0

    def test_stale_target_does_not_resume_after_interrupt(self, sim):
        resumed_values = []

        def sleeper(sim):
            try:
                yield sim.timeout(10.0)
                resumed_values.append("timeout")
            except Interrupt:
                resumed_values.append("interrupt")
            yield sim.timeout(20.0)
            resumed_values.append("second-wait")

        def waker(sim, target):
            yield sim.timeout(1.0)
            target.interrupt()

        proc = Process(sim, sleeper(sim))
        sim.process(waker(sim, proc))
        sim.run()
        # The original 10s timeout must NOT wake the process a second time.
        assert resumed_values == ["interrupt", "second-wait"]

    def test_uncaught_interrupt_fails_process(self, sim):
        def sleeper(sim):
            yield sim.timeout(100.0)

        def waker(sim, target):
            yield sim.timeout(1.0)
            target.interrupt()

        sleeper_proc = Process(sim, sleeper(sim))
        sim.process(waker(sim, sleeper_proc))
        with pytest.raises(Interrupt):
            sim.run()

    def test_interrupting_finished_process_raises(self, sim):
        def quick(sim):
            yield sim.timeout(1.0)

        process = Process(sim, quick(sim))
        sim.run()
        with pytest.raises(RuntimeError):
            process.interrupt()

    def test_self_interrupt_rejected(self, sim):
        def proc(sim):
            this = sim.active_process
            with pytest.raises(RuntimeError):
                this.interrupt()
            yield sim.timeout(1.0)

        sim.run(Process(sim, proc(sim)))

    def test_interrupt_cause_accessible(self):
        interrupt = Interrupt({"reason": "test"})
        assert interrupt.cause == {"reason": "test"}

    def test_interrupt_beats_simultaneous_event(self, sim):
        """An interrupt scheduled at the same instant as the waited event
        is delivered first (URGENT priority)."""

        def sleeper(sim):
            try:
                yield sim.timeout(5.0)
                return "event"
            except Interrupt:
                return "interrupt"

        def waker(sim, target):
            yield sim.timeout(5.0)
            target.interrupt()

        sleeper_proc = Process(sim, sleeper(sim))

        def late_waker(sim, target):
            # Fires at t=5 before the timeout is processed in step order?
            # The timeout was scheduled first, so it processes first; the
            # sleeper is already finished by the time the waker acts.
            yield sim.timeout(4.0)
            yield sim.timeout(1.0)
            if target.is_alive:
                target.interrupt()

        sim.process(late_waker(sim, sleeper_proc))
        assert sim.run(sleeper_proc) in ("event", "interrupt")
