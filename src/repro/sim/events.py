"""Event primitives for the discrete-event simulation kernel.

Events are the unit of synchronisation: a process waits on an event by
``yield``-ing it, and the kernel resumes the process once the event has
been *processed* (popped from the event heap and had its callbacks run).

Lifecycle::

    created --(succeed/fail)--> triggered --(kernel pops it)--> processed

An event may only be triggered once; triggering schedules it on the
simulator's heap at the current simulation time (or at ``now + delay``
for :class:`Timeout`).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.kernel import Simulator

#: Sentinel for "no value assigned yet".
PENDING = object()

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


class EventFailed(RuntimeError):
    """Raised when the value of a failed event is accessed.

    The original exception is available as ``__cause__``.
    """


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.kernel.Simulator`.

    Notes
    -----
    ``callbacks`` is a list of single-argument callables invoked (with the
    event itself) when the kernel processes the event.  After processing,
    ``callbacks`` is set to ``None`` and further additions are an error.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """``True`` once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the kernel has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded.

        Only meaningful once :attr:`triggered` is ``True``.
        """
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or raise :class:`EventFailed` if it failed)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        if not self._ok:
            raise EventFailed(f"{self!r} failed") from self._value
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure cause, or ``None`` if the event did not fail."""
        if self._ok is False:
            return self._value
        return None

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Returns ``self`` so that ``sim.event().succeed(x)`` reads naturally.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        heappush(sim._heap, (sim._now, _NORMAL_KEY | next(sim._seq), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        A failed event re-raises ``exception`` inside every process waiting
        on it.  If no process (or callback) handles the failure, the
        simulator raises it at :meth:`~repro.sim.kernel.Simulator.run` time
        -- unless :meth:`defuse` was called.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() expects an exception, got {exception!r}")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        sim = self.sim
        heappush(sim._heap, (sim._now, _NORMAL_KEY | next(sim._seq), self))
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror another event's outcome onto this one (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def defuse(self) -> "Event":
        """Mark a failure as handled so the simulator will not re-raise it."""
        self._defused = True
        return self

    # -- callbacks -----------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed.

        If the event was already processed the callback runs immediately --
        this makes waiting on an already-completed event well defined.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after a simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Field assignments are inlined (instead of super().__init__) and
        # the heap push bypasses Simulator._schedule: Timeout creation is
        # on the critical path of every waiting process.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        heappush(sim._heap, (sim._now + delay, _NORMAL_KEY | next(sim._seq), self))

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout events trigger themselves")


class _PooledTimeout(Timeout):
    """A :class:`Timeout` the kernel may recycle after processing.

    Created through :meth:`~repro.sim.kernel.Simulator.sleep`.  The
    contract: the sole consumer yields it immediately and drops every
    reference once resumed, so the kernel run loop can return the
    instance to the simulator's free pool the moment its callbacks have
    run.  Never store one.
    """

    __slots__ = ()
