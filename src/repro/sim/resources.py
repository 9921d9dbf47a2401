"""A queueing primitive built on the event kernel.

:class:`Store` is an unbounded-or-bounded FIFO buffer of Python objects:
the queue of a broker subscription that no node owns (test tools and
reference implementations read it) and of the kernel micro-benchmarks.
Its operations return events; processes ``yield`` them.  Get-events
succeed with the retrieved item; put-events succeed with ``None``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


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
    """FIFO buffer of items with blocking put/get.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Maximum number of buffered items; ``float('inf')`` (default) for
        an unbounded mailbox.
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf")) -> None:
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
        """Request to append ``item``; succeeds when space is available."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Request the oldest item; succeeds when one is available."""
        return StoreGet(self)

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
