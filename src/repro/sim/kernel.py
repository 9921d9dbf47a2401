"""The discrete-event simulation event loop.

:class:`Simulator` owns the simulation clock and a binary heap of
scheduled entries.  :meth:`Simulator.step` pops the earliest entry,
advances the clock and runs it; :meth:`Simulator.run` steps until the
heap is empty, a deadline is reached, or a given event has been
processed.

Two kinds of entry share the heap:

* ``(time, key, event)`` -- a triggered :class:`~repro.sim.events.Event`
  whose callbacks run when the entry is popped.
* ``(time, key, generation, handle)`` -- a direct-callback timer armed
  through :meth:`Simulator.call_at` / :meth:`Simulator.call_later`.
  Timers bypass the Event/Process machinery entirely: popping the entry
  invokes a plain callable, so high-frequency internal timers (fluid
  bandwidth models, broker deliveries, control-loop ticks) cost one
  heap entry and one call instead of an Event, a generator resume and a
  heap round-trip each.

``key`` packs the scheduling priority above a monotonically increasing
sequence number (see :mod:`repro.sim.events`), which makes the ordering
of simultaneous entries deterministic (FIFO in scheduling order) -- this
is what makes every experiment in this repository reproducible
bit-for-bit under a fixed seed.

Timer cancellation is *lazy*: cancelling (or re-arming) a
:class:`TimerHandle` bumps its generation token and leaves the stale
heap entry in place; the run loop discards entries whose recorded
generation no longer matches the handle's.  This is O(1) per cancel --
no heap surgery -- at the cost of dead entries riding along until their
scheduled time, exactly the right trade for timers that are re-armed
far more often than they fire (the fair-share pipe re-settles on every
transfer start/finish).
"""

from __future__ import annotations

import heapq
from heapq import heappush
from itertools import count
from typing import Any, Callable, Generator, Optional

from repro.sim.events import (
    _KEY_SHIFT,
    _NORMAL_KEY,
    NORMAL,
    URGENT,
    Event,
    Timeout,
    _PooledTimeout,
)
from repro.sim.process import Process

#: Upper bound on the recycled-Timeout free pool (see
#: :meth:`Simulator.sleep`); beyond this, extra instances are simply
#: left to the garbage collector.
_TIMEOUT_POOL_MAX = 128


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` at a target event."""

    def __init__(self, event: Event) -> None:
        super().__init__(event)
        self.event = event


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


class TimerHandle:
    """A cancellable, re-armable direct-callback timer.

    Returned by :meth:`Simulator.call_at` / :meth:`Simulator.call_later`.
    While :attr:`active`, the simulator will invoke the stored callback
    at :attr:`when`.  :meth:`cancel` is O(1) and idempotent (cancelling
    after the timer fired is a no-op); re-arming a handle -- passing it
    back to ``call_at``/``call_later`` -- implicitly cancels the pending
    occurrence, so one handle can drive an arbitrarily long sequence of
    schedule/reschedule cycles without allocating.
    """

    __slots__ = ("when", "_callback", "_args", "_gen", "_armed")

    def __init__(self) -> None:
        self.when = 0.0
        self._callback: Optional[Callable[..., None]] = None
        self._args: tuple = ()
        self._gen = 0
        self._armed = False

    @property
    def active(self) -> bool:
        """``True`` while the timer is armed and has not fired."""
        return self._armed

    def cancel(self) -> None:
        """Disarm the timer (no-op if it already fired or was cancelled)."""
        if self._armed:
            self._armed = False
            # Invalidate the pending heap entry (lazy deletion): the run
            # loop compares the entry's recorded generation against this.
            self._gen += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"armed for {self.when}" if self._armed else "idle"
        return f"<TimerHandle {state}>"


class Simulator:
    """Discrete-event simulation kernel.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).  Defaults to 0.

    Notes
    -----
    All time values are plain floats in *simulated seconds*.  The kernel
    never consults the wall clock.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple] = []
        self._seq = count()
        self._active_process: Optional[Process] = None
        self._timeout_pool: list[_PooledTimeout] = []

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered :class:`~repro.sim.events.Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float, value: Any = None) -> Timeout:
        """A pooled :meth:`timeout` for the sole-waiter fast path.

        Semantically identical to :meth:`timeout`, but the returned
        event may be a recycled instance and will be returned to the
        simulator's free pool as soon as it has been processed.  Use it
        only for the ubiquitous ``yield sim.sleep(d)`` pattern where the
        event is yielded immediately and never referenced afterwards; in
        particular, never store it or pass it to ``AnyOf``/``AllOf``.
        """
        pool = self._timeout_pool
        if not pool:
            return _PooledTimeout(self, delay, value)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        timeout = pool.pop()
        timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._defused = False
        timeout.delay = delay
        heappush(self._heap, (self._now + delay, _NORMAL_KEY | next(self._seq), timeout))
        return timeout

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new cooperative process running ``generator``."""
        return Process(self, generator, name=name)

    # -- direct-callback timers -------------------------------------------

    def call_at(
        self,
        when: float,
        callback: Callable[..., None],
        *args: Any,
        handle: Optional[TimerHandle] = None,
    ) -> TimerHandle:
        """Arm a timer invoking ``callback(*args)`` at simulated ``when``.

        Passing an existing ``handle`` re-arms it (implicitly cancelling
        any pending occurrence) instead of allocating a new one -- the
        allocation-free idiom for periodic or frequently re-settled
        timers.  Timers fire at NORMAL priority in arming order relative
        to events scheduled at the same timestamp.
        """
        if when < self._now:
            raise ValueError(f"call_at({when}) is in the past (now={self._now})")
        if handle is None:
            handle = TimerHandle()
        elif handle._armed:
            handle._gen += 1  # lazy-delete the superseded heap entry
        handle.when = when
        handle._callback = callback
        handle._args = args
        handle._armed = True
        heappush(
            self._heap, (when, _NORMAL_KEY | next(self._seq), handle._gen, handle)
        )
        return handle

    def call_later(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        handle: Optional[TimerHandle] = None,
    ) -> TimerHandle:
        """Arm a timer ``delay`` seconds from now (see :meth:`call_at`,
        whose body is repeated here: one call per timer, not two)."""
        if delay < 0:
            raise ValueError(f"negative timer delay: {delay!r}")
        if handle is None:
            handle = TimerHandle()
        elif handle._armed:
            handle._gen += 1  # lazy-delete the superseded heap entry
        handle.when = when = self._now + delay
        handle._callback = callback
        handle._args = args
        handle._armed = True
        heappush(
            self._heap, (when, _NORMAL_KEY | next(self._seq), handle._gen, handle)
        )
        return handle

    def call_soon(self, callback: Callable[..., None], *args: Any) -> TimerHandle:
        """Arm a timer for this instant at URGENT priority: it fires
        before every NORMAL entry of the instant, in arming order among
        URGENT ones -- where the first turn of a freshly started
        :class:`~repro.sim.process.Process` stands, for consumers that
        are callbacks rather than processes."""
        handle = TimerHandle()
        handle.when = self._now
        handle._callback = callback
        handle._args = args
        handle._armed = True
        heappush(
            self._heap,
            (self._now, (URGENT << _KEY_SHIFT) | next(self._seq), handle._gen, handle),
        )
        return handle

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Push a triggered event onto the heap ``delay`` seconds from now."""
        heappush(
            self._heap,
            (self._now + delay, (priority << _KEY_SHIFT) | next(self._seq), event),
        )

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``float('inf')`` if none."""
        if not self._heap:
            return float("inf")
        return self._heap[0][0]

    def step(self) -> None:
        """Process the next scheduled heap entry.

        Advances the clock to that entry's time and runs it (event
        callbacks, or the timer callback for a live timer entry; stale
        timer entries advance the clock but do nothing else).  Unhandled
        event failures propagate out of this method.
        """
        try:
            entry = heapq.heappop(self._heap)
        except IndexError:
            raise EmptySchedule() from None
        self._now = entry[0]
        if len(entry) == 3:
            event = entry[2]
            callbacks, event.callbacks = event.callbacks, None
            assert callbacks is not None, "event processed twice"
            for callback in callbacks:
                callback(event)
            if event._ok is False and not event._defused:
                # Nobody handled the failure: surface it to the caller.
                raise event._value
            if type(event) is _PooledTimeout:
                pool = self._timeout_pool
                if len(pool) < _TIMEOUT_POOL_MAX:
                    pool.append(event)
        else:
            handle = entry[3]
            if entry[2] == handle._gen:
                handle._armed = False
                handle._callback(*handle._args)

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` -- run until no events remain.
            * a number -- run until the clock reaches that time (the clock
              is set to exactly ``until`` on return).
            * an :class:`~repro.sim.events.Event` -- run until that event
              has been processed and return its value.

        Returns
        -------
        The value of ``until`` when it is an event, otherwise ``None``.
        """
        target_event: Optional[Event] = None
        deadline = float("inf")
        has_deadline = False
        if until is not None:
            if isinstance(until, Event):
                if until.processed:
                    return until.value
                target_event = until
                until.add_callback(self._stop_callback)
            else:
                deadline = float(until)
                has_deadline = True
                if deadline < self._now:
                    raise ValueError(
                        f"until ({deadline}) must not be in the past (now={self._now})"
                    )
        # The loop body below duplicates step() with everything bound to
        # locals: this is the innermost loop of every experiment, and a
        # method call plus attribute traffic per event costs ~25% of the
        # whole simulation.
        heap = self._heap
        pop = heapq.heappop
        pool = self._timeout_pool
        pooled = _PooledTimeout
        try:
            while heap:
                when = heap[0][0]
                if when > deadline:
                    break
                entry = pop(heap)
                self._now = when
                if len(entry) == 3:
                    event = entry[2]
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if event._ok is False and not event._defused:
                        # Nobody handled the failure: surface it.
                        raise event._value
                    if type(event) is pooled and len(pool) < _TIMEOUT_POOL_MAX:
                        pool.append(event)
                else:
                    handle = entry[3]
                    if entry[2] == handle._gen:
                        handle._armed = False
                        handle._callback(*handle._args)
        except StopSimulation as stop:
            return stop.event.value
        if has_deadline:
            self._now = deadline
        if target_event is not None:
            raise RuntimeError(
                "simulation ran out of events before the target event triggered"
            )
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation(event)
