"""Generator-based cooperative processes.

A :class:`Process` wraps a Python generator.  Each ``yield`` must produce
an :class:`~repro.sim.events.Event`; the process is suspended until the
kernel processes that event, at which point the generator is resumed with
the event's value (or the event's exception is thrown into it).

A :class:`Process` is itself an :class:`~repro.sim.events.Event` that
succeeds with the generator's return value, so processes can wait on each
other simply by yielding them.

The model itself starts no process: every path of it is a callback
state machine on :meth:`~repro.sim.kernel.Simulator.call_soon` /
:meth:`~repro.sim.kernel.Simulator.call_later` timers.  Processes serve
the kernel micro-benchmarks and the generator reference
implementations the tests compare the state machines against.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.events import _NORMAL_KEY, PENDING, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class _Initialize(Event):
    """Internal event used to kick off a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        super().__init__(sim)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        sim._schedule(self, URGENT, 0.0)


class Process(Event):
    """A running cooperative process (also the event of its completion)."""

    __slots__ = ("generator", "name", "_target")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"expected a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", type(generator).__name__)
        #: The event this process is currently waiting on (None when running
        #: or finished).
        self._target: Optional[Event] = None
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """``True`` while the generator has not finished."""
        return self._value is PENDING

    # -- kernel interface ------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Resume the generator with ``event``'s outcome (kernel callback)."""
        self.sim._active_process = self
        self._target = None
        sim = self.sim
        try:
            if event._ok:
                next_event = self.generator.send(event._value)
            else:
                # Event failed: throw into the generator.
                event._defused = True
                next_event = self.generator.throw(event._value)
        except StopIteration as stop:
            sim._active_process = None
            self._ok = True
            self._value = stop.value
            heappush(sim._heap, (sim._now, _NORMAL_KEY | next(sim._seq), self))
            return
        except BaseException as exc:
            sim._active_process = None
            self._ok = False
            self._value = exc
            heappush(sim._heap, (sim._now, _NORMAL_KEY | next(sim._seq), self))
            return
        sim._active_process = None
        if not isinstance(next_event, Event):
            error = RuntimeError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            )
            self.generator.close()
            self._ok = False
            self._value = error
            heappush(sim._heap, (sim._now, _NORMAL_KEY | next(sim._seq), self))
            return
        self._target = next_event
        next_event.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"
