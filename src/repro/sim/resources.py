"""Queueing primitives built on the event kernel.

* :class:`Store` -- an unbounded-or-bounded FIFO buffer of Python objects
  (the bidding contest runner's pending jobs, a broker subscription's
  queue).
* :class:`PriorityResource` -- a counted resource with ``request`` /
  ``release`` whose waiters are granted lowest-priority-value first.

All operations return events; processes ``yield`` them.  Get-events
succeed with the retrieved item; put-events succeed with ``None``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

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

    __slots__ = ("filter",)

    def __init__(self, store: "Store", filter: Optional[Callable[[Any], bool]] = None) -> None:
        super().__init__(store.sim)
        self.filter = filter
        store._get_queue.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw an unfulfilled get request (e.g. on timeout races)."""
        # The store lazily skips triggered/cancelled entries, so flagging is
        # enough; we mark by failing silently via a defused tombstone.
        if not self.triggered:
            self._ok = True
            self._value = _CANCELLED
            # Intentionally NOT scheduled: a cancelled get never resumes its
            # waiter.  Callers must only cancel events nothing waits on.


#: Sentinel marking a cancelled StoreGet.
_CANCELLED = object()


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

    # -- internal matching ----------------------------------------------

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self._store_item(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self._take_item(event))
            return True
        return False

    def _store_item(self, item: Any) -> None:
        self.items.append(item)

    def _take_item(self, event: StoreGet) -> Any:
        return self.items.popleft()

    def _trigger(self) -> None:
        """Match queued puts and gets until no further progress is possible."""
        progress = True
        while progress:
            progress = False
            while self._put_queue:
                put_event = self._put_queue[0]
                if put_event.triggered:
                    self._put_queue.popleft()
                    continue
                if self._do_put(put_event):
                    self._put_queue.popleft()
                    progress = True
                else:
                    break
            while self._get_queue:
                get_event = self._get_queue[0]
                if get_event.triggered:
                    self._get_queue.popleft()
                    continue
                if self._do_get(get_event):
                    self._get_queue.popleft()
                    progress = True
                else:
                    break


class PriorityResource:
    """A counted resource whose waiters are granted lowest-priority-value
    first (FIFO within a priority level).

    Used for links where foreground transfers (a job's own download)
    must outrank background ones (prefetch) -- non-preemptive: a holder
    finishes its transfer before the grant order is reconsidered.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
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
