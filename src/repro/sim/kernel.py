"""The discrete-event simulation event loop.

:class:`Simulator` owns the simulation clock and a binary heap of
timers.  :meth:`Simulator.step` pops the earliest entry, advances the
clock and runs it; :meth:`Simulator.run` steps until the heap is empty,
a deadline is reached, or a callback calls :meth:`Simulator.stop`.

Every heap entry has one shape, ``(time, key, generation, handle)``: a
direct-callback timer armed through :meth:`Simulator.call_soon` /
:meth:`Simulator.call_at` / :meth:`Simulator.call_later`.  Popping a
live entry invokes the plain callable its :class:`TimerHandle` holds, so
a wake-up, a delay or a delivery costs one heap entry and one call.
This module is the only one that pushes onto the heap.

``key`` packs the scheduling priority above a monotonically increasing
sequence number, which makes the ordering of simultaneous entries
deterministic (FIFO in scheduling order, URGENT before NORMAL) -- this
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
from typing import Any, Callable, Optional

#: Scheduling priorities -- lower sorts earlier at equal timestamps.
URGENT = 0
NORMAL = 1

#: Heap entries order by ``(time, key)`` where ``key`` packs the priority
#: above the sequence counter: ``key = (priority << _KEY_SHIFT) | seq``.
#: Because ``seq`` never reaches 2**62, this orders identically to the
#: lexicographic ``(priority, seq)`` pair while saving one tuple slot on
#: every heap entry -- the single hottest allocation in the kernel.
_KEY_SHIFT = 62
_NORMAL_KEY = NORMAL << _KEY_SHIFT


class StopSimulation(Exception):
    """Raised by :meth:`Simulator.stop` to end :meth:`Simulator.run`."""


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

    The handle holds its callback and arguments only while armed:
    firing and :meth:`cancel` drop both (every arm passes them again),
    so an idle handle keeps nothing alive -- a component's own timer
    whose callback is one of its methods is no reference cycle.
    """

    __slots__ = ("when", "_callback", "_args", "_gen", "_armed")

    def __init__(self) -> None:
        self.when = 0.0
        self._callback: Optional[Callable[..., None]] = None
        self._args: Optional[tuple] = None
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
            self._callback = self._args = None
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

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

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
        to the other entries scheduled at the same timestamp.
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

    def call_soon(
        self, callback: Callable[..., None], *args: Any, urgent: bool = True
    ) -> TimerHandle:
        """Arm a turn for this instant.  URGENT (the default), it fires
        before every NORMAL entry of the instant, in arming order among
        URGENT ones: a first turn.  With ``urgent=False`` it fires behind
        every entry already due: a wake-up, not a delay."""
        handle = TimerHandle()
        handle.when = self._now
        handle._callback = callback
        handle._args = args
        handle._armed = True
        priority = URGENT if urgent else NORMAL
        heappush(
            self._heap,
            (self._now, (priority << _KEY_SHIFT) | next(self._seq), handle._gen, handle),
        )
        return handle

    def stop(self) -> None:
        """End :meth:`run` now, from inside a callback it is running;
        whatever else is scheduled stays scheduled."""
        raise StopSimulation()

    # -- the run loop ------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``float('inf')`` if none."""
        if not self._heap:
            return float("inf")
        return self._heap[0][0]

    def step(self) -> None:
        """Process the next scheduled heap entry.

        Advances the clock to that entry's time and runs its timer's
        callback; a stale entry advances the clock but does nothing else.
        """
        try:
            when, _key, gen, handle = heapq.heappop(self._heap)
        except IndexError:
            raise EmptySchedule() from None
        self._now = when
        if gen == handle._gen:
            callback, args = handle._callback, handle._args
            handle._armed = False
            handle._callback = handle._args = None
            callback(*args)

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation until no entries remain, a callback calls
        :meth:`stop`, or -- with ``until`` -- the clock would pass
        ``until``; the clock is then set to exactly ``until``."""
        deadline = float("inf")
        if until is not None:
            deadline = float(until)
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
        try:
            while heap:
                when = heap[0][0]
                if when > deadline:
                    break
                _when, _key, gen, handle = pop(heap)
                self._now = when
                if gen == handle._gen:
                    # Unhooked before the call, which may re-arm it.
                    callback = handle._callback
                    args = handle._args
                    handle._armed = False
                    handle._callback = handle._args = None
                    callback(*args)
        except StopSimulation:
            return
        if until is not None:
            self._now = deadline

    def close(self) -> None:
        """End the run: disarm every pending timer and drop every
        scheduled entry.

        A pending entry holds what its owner armed it with -- a
        callback bound to that owner -- so after :meth:`close` the
        kernel points at nothing of the model, and a finished run's
        objects are freed by reference counting alone.  The clock keeps
        its value.
        """
        for _when, _key, gen, handle in self._heap:
            if gen == handle._gen:
                handle.cancel()
        self._heap.clear()
