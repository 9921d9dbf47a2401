"""The kernel primitives only the reference oracles still use.

``tests/reference_executor.py`` and ``tests/reference_bidding.py`` are
the generator implementations the callback state machines replaced;
they keep running, as written, on these copies of what ``repro.sim``
used to provide:

* :class:`Process` -- a :class:`repro.sim.process.Process` that can be
  interrupted: :meth:`Process.interrupt` throws :class:`Interrupt` into
  it ahead of the event it waits on, which then no longer resumes it;
* :class:`AnyOf` -- an event that succeeds once any of its events has,
  with a dict of the ones processed by then and their values;
* :class:`PriorityResource` -- a counted resource whose waiters are
  granted lowest priority value first, FIFO within a level.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable

from repro.sim import process
from repro.sim.events import URGENT, Event


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class Process(process.Process):
    """A generator process that can be interrupted."""

    __slots__ = ()

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into this process as soon as possible."""
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has already terminated")
        if self is self.sim.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        failure = Event(self.sim)
        failure._ok = False
        failure._value = Interrupt(cause)
        failure._defused = True
        failure.callbacks.append(self._resume)
        self.sim._schedule(failure, URGENT, 0.0)

    def _resume(self, event: Event) -> None:
        if not self.is_alive:
            # Finished before the interrupt landed: a stale wakeup.
            return
        target = self._target
        if target is not None and target is not event:
            # Interrupted: the event it waited on must not resume it too.
            try:
                target.callbacks.remove(self._resume)
            except (ValueError, AttributeError):
                pass
        super()._resume(event)


class AnyOf(Event):
    """Triggers once *any* constituent event has succeeded; fails with
    the first constituent that fails."""

    __slots__ = ("events",)

    def __init__(self, sim, events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: tuple[Event, ...] = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("all events must belong to the same simulator")
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self.succeed(
            {each: each._value for each in self.events if each.processed and each._ok}
        )


class PriorityResource:
    """A counted resource whose waiters are granted lowest-priority-value
    first (FIFO within a priority level); non-preemptive."""

    def __init__(self, sim, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.users: list[Event] = []
        self._queue: list[tuple[int, int, Event]] = []  # heap
        self._seq = 0

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self.users)

    @property
    def waiting(self) -> int:
        """Number of queued (not yet granted) requests."""
        return len(self._queue)

    def request(self, priority: int = 0) -> Event:
        """Request one unit at ``priority`` (lower = more urgent)."""
        event = Event(self.sim)
        heapq.heappush(self._queue, (priority, self._seq, event))
        self._seq += 1
        self._trigger()
        return event

    def release(self, request: Event) -> None:
        """Release a previously granted ``request``."""
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError("release of a request that does not hold the resource")
        self._trigger()

    def _trigger(self) -> None:
        while self._queue and len(self.users) < self.capacity:
            _priority, _seq, event = heapq.heappop(self._queue)
            if event.triggered:
                continue
            self.users.append(event)
            event.succeed()
