"""The generator layer the reference oracles and the kernel tests run on.

The model is callbacks on the kernel's timers (``call_soon`` /
``call_at`` / ``call_later``) and ``repro.sim`` has nothing else.  The
generator implementations the callback state machines replaced
(``tests/reference_executor.py``, ``tests/reference_bidding.py``) and
the tests that drive a model piece from a small script keep running,
as written, on this SimPy-style layer, built on the kernel's public
timer API alone -- no heap access:

* :class:`Event` -- a one-shot occurrence with callbacks; triggering it
  pushes one NORMAL ``call_soon`` turn that runs them;
* :class:`Timeout` -- an event triggered by a ``call_later`` timer;
* :class:`Process` -- a generator that ``yield`` s events to wait on
  them, started on an URGENT ``call_soon`` turn, and interruptible:
  :meth:`Process.interrupt` throws :class:`Interrupt` into it ahead of
  the event it waits on, which then no longer resumes it;
* :class:`Store` -- a FIFO buffer whose puts and gets are events, and
  :func:`inbox`, which makes one the owner of a broker subscription;
* :class:`AnyOf` -- an event that succeeds once any of its events has;
* :class:`PriorityResource` -- a counted resource whose waiters are
  granted lowest priority value first, FIFO within a level;
* :class:`Simulator` -- the kernel plus the ``event`` / ``timeout`` /
  ``process`` factories and ``run(until=event)``.

Each push stands where the generator layer that used to live in
``repro.sim`` pushed its own heap entry -- same instant, same priority,
same order -- so a script's same-instant order is what it was.  The
primitives work on any :class:`repro.sim.Simulator`, a runtime's too.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim import kernel

#: Sentinel for "no value assigned yet".
PENDING = object()

#: The process whose generator is running, if any.
_active: Optional["Process"] = None


class EventFailed(RuntimeError):
    """Raised when the value of a failed event is accessed.

    The original exception is available as ``__cause__``.
    """


class Event:
    """A one-shot occurrence that processes can wait on.

    ``callbacks`` is a list of single-argument callables invoked (with
    the event itself) on the event's turn.  After that turn,
    ``callbacks`` is ``None``.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: kernel.Simulator) -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        if not self._ok:
            raise EventFailed(f"{self!r} failed") from self._value
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._value if self._ok is False else None

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim.call_soon(self._run_callbacks, urgent=False)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger as failed: ``exception`` is thrown into every waiting
        process, and raised out of ``run`` if nothing handles it."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() expects an exception, got {exception!r}")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim.call_soon(self._run_callbacks, urgent=False)
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror another event's outcome onto this one."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def defuse(self) -> "Event":
        """Mark a failure as handled so ``run`` will not re-raise it."""
        self._defused = True
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(self)`` on the event's turn, or now if that
        turn has passed."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(self)
        if self._ok is False and not self._defused:
            # Nobody handled the failure: surface it to the caller.
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers itself ``delay`` simulated seconds from now."""

    __slots__ = ("delay",)

    def __init__(self, sim: kernel.Simulator, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self._ok = True
        self._value = value
        self.delay = delay
        sim.call_later(delay, self._run_callbacks)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout events trigger themselves")


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class Process(Event):
    """A running generator process (also the event of its completion).

    Each ``yield`` must produce an :class:`Event`; the generator resumes
    with its value (or its exception thrown in) on its turn.
    """

    __slots__ = ("generator", "name", "_target")

    def __init__(
        self, sim: kernel.Simulator, generator: Generator, name: Optional[str] = None
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"expected a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", type(generator).__name__)
        #: The event this process waits on (None when running or finished).
        self._target: Optional[Event] = None
        start = Event(sim)
        start._ok = True
        start._value = None
        sim.call_soon(self._resume, start)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into this process on an URGENT turn."""
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has already terminated")
        if self is _active:
            raise RuntimeError("a process cannot interrupt itself")
        failure = Event(self.sim)
        failure._ok = False
        failure._value = Interrupt(cause)
        failure._defused = True
        failure.callbacks.append(self._resume)
        self.sim.call_soon(failure._run_callbacks)

    def _resume(self, event: Event) -> None:
        global _active
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
        self._target = None
        _active = self
        try:
            if event._ok:
                next_event = self.generator.send(event._value)
            else:
                event._defused = True
                next_event = self.generator.throw(event._value)
        except StopIteration as stop:
            _active = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            _active = None
            self.fail(exc)
            return
        _active = None
        if not isinstance(next_event, Event):
            self.generator.close()
            self.fail(RuntimeError(f"process {self.name!r} yielded a non-event: {next_event!r}"))
            return
        self._target = next_event
        next_event.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'finished'}>"


class StorePut(Event):
    """Pending put request against a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.sim)
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    """Pending get request against a :class:`Store`."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.sim)
        store._get_queue.append(self)
        store._trigger()


class Store:
    """FIFO buffer of items with blocking put/get (``capacity`` items,
    unbounded by default)."""

    def __init__(self, sim: kernel.Simulator, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._put_queue: deque[StorePut] = deque()
        self._get_queue: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def deliver(self, message: Any) -> None:
        """A broker delivery, when this store owns a subscription."""
        self.put(message)

    def _trigger(self) -> None:
        """Match queued puts and gets until no further progress is possible."""
        progress = True
        while progress:
            progress = False
            while self._put_queue and len(self.items) < self.capacity:
                put_event = self._put_queue.popleft()
                self.items.append(put_event.item)
                put_event.succeed()
                progress = True
            while self._get_queue and self.items:
                self._get_queue.popleft().succeed(self.items.popleft())
                progress = True


def inbox(sim: kernel.Simulator, subscription) -> Store:
    """Own a broker subscription with a :class:`Store` of its messages;
    a process reads them with ``message = yield store.get()``."""
    store = subscription.owner = Store(sim)
    return store


def transfer(pipe, size_mb: float) -> Event:
    """``pipe.transfer(size_mb, done)`` as an event, processed on the
    transfer's own ``done`` turn."""
    event = Event(pipe.sim)

    def done(elapsed: float) -> None:
        event._ok = True
        event._value = elapsed
        event._run_callbacks()

    pipe.transfer(size_mb, done)
    return event


class AnyOf(Event):
    """Triggers once *any* constituent event has succeeded; fails with
    the first constituent that fails."""

    __slots__ = ("events",)

    def __init__(self, sim: kernel.Simulator, events: Iterable[Event]) -> None:
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

    def __init__(self, sim: kernel.Simulator, capacity: int = 1) -> None:
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


class Simulator(kernel.Simulator):
    """The kernel with the generator layer's factories, and a ``run``
    that can stop on an event."""

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return _active if _active is not None and _active.sim is self else None

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        return Process(self, generator, name=name)

    def run(self, until: Any = None) -> Any:
        """As the kernel's ``run``; ``until`` may also be an event: run
        until it has been processed and return its value."""
        if not isinstance(until, Event):
            return super().run(until)
        if not until.processed:
            until.add_callback(self._stop_on)
            super().run()
            if not until.processed:
                raise RuntimeError(
                    "simulation ran out of events before the target event triggered"
                )
        return until.value

    def _stop_on(self, _event: Event) -> None:
        self.stop()
