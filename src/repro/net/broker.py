"""Simulated publish/subscribe messaging broker.

The paper's deployment dedicates one AWS instance to messaging
infrastructure (Crossflow uses a JMS broker).  :class:`Broker` stands in
for it: nodes subscribe to named topics and receive published messages
into private mailboxes after a delivery latency.

Latency is ``base_latency`` plus the subscriber's topology distance (set
per subscription), so geo-distributed workers hear about new jobs at
slightly different times -- which matters for the 1-second bidding
window of the Bidding Scheduler.

Delivery is reliable and per-subscriber FIFO (equal per-pair latency +
deterministic event ordering); the paper explicitly assumes no message
loss and no fault tolerance.

The robustness extension adds two degradation models on top:

* ``drop_probability`` -- each non-reliable delivery is lost with this
  probability (reliable deliveries model persistent JMS messages).
* **Partitions** -- :meth:`add_partition` splits the fleet into a named
  group and the rest.  While a partition is up, non-reliable messages
  crossing the cut are dropped; reliable ones are *held* and delivered
  when :meth:`remove_partition` heals the cut, preserving message
  conservation.  Senders identify themselves via the ``sender=``
  argument to :meth:`publish`; messages without a sender are treated
  as partition-exempt (back-compat for tests and tools).

Every publish and every delivery is emitted on the run's ``publish``
and ``deliver`` seams (:mod:`repro.hooks`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.hooks import Hooks
from repro.sim.kernel import TimerHandle

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Mailbox:
    """The owner of a subscription that handles one message per turn.

    The broker hands each delivery to :meth:`deliver`; ``handler`` is
    called with the oldest waiting message on the consumer's next turn,
    and the turn after it is taken as soon as the handler returns --
    unless it returns true, which means it is still busy with the
    message and calls :meth:`next` itself when done.

    A turn is a heap entry, pushed exactly where a generator process
    parked on a FIFO store of the messages would have had its wake-up
    pushed: at delivery when the consumer is parked on an empty mailbox,
    at the end of the previous turn when a message is already waiting,
    and -- for a consumer that :meth:`start` s rather than being born
    parked -- an URGENT entry at start, where a fresh process takes its
    first turn.
    """

    __slots__ = ("sim", "handler", "messages", "parked", "_turn")

    def __init__(
        self, sim: "Simulator", handler: Callable[[Any], Any], parked: bool = False
    ) -> None:
        self.sim = sim
        self.handler = handler
        self.messages: deque = deque()
        #: Waiting on an empty mailbox (a delivery wakes the consumer).
        #: False before :meth:`start`: messages only collect.
        self.parked = parked
        self._turn = TimerHandle()

    def start(self) -> None:
        """The consumer starts: its first turn comes before anything
        else scheduled for this instant."""
        self.sim.call_soon(self.next)

    def deliver(self, message: Any) -> None:
        self.messages.append(message)
        if self.parked:
            self.parked = False
            sim = self.sim
            sim.call_at(sim.now, self._take, handle=self._turn)

    def _take(self) -> None:
        if not self.handler(self.messages.popleft()):
            self.next()

    def next(self) -> None:
        """The consumer is ready for its next message."""
        if self.messages:
            sim = self.sim
            sim.call_at(sim.now, self._take, handle=self._turn)
        else:
            self.parked = True


class Subscription:
    """A subscriber's place on one topic.

    Whoever subscribes sets :attr:`owner` (every node of the engine: a
    :class:`Mailbox`); the broker hands it each message as it arrives.
    """

    def __init__(self, topic: str, name: str, latency: float) -> None:
        self.topic = topic
        self.name = name
        self.latency = latency
        #: Number of messages delivered into this mailbox.
        self.delivered = 0
        #: Whoever consumes this subscription: handed each message as it
        #: arrives (``owner.deliver(message)``).
        self.owner: Any = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Subscription {self.name!r} on {self.topic!r}>"


class Broker:
    """Topic-based pub/sub with per-subscriber delivery latency.

    Parameters
    ----------
    sim:
        Owning simulator.
    base_latency:
        Latency applied to every delivery in addition to the
        subscription-specific latency (models broker processing time).
    drop_probability:
        Robustness-extension knob: each *non-reliable* delivery is lost
        with this probability.  Reliable deliveries (persistent JMS
        semantics -- job-carrying and completion messages) are never
        dropped.  The paper assumes a fully reliable broker
        (``drop_probability=0``).
    rng:
        Random stream deciding drops (required when dropping).
    hooks:
        The run's observer seams (see :mod:`repro.hooks`).
    """

    def __init__(
        self,
        sim: "Simulator",
        base_latency: float = 0.0,
        drop_probability: float = 0.0,
        rng: Optional[object] = None,
        hooks: Optional[Hooks] = None,
    ) -> None:
        if base_latency < 0:
            raise ValueError("base_latency must be non-negative")
        if not 0 <= drop_probability < 1:
            raise ValueError("drop_probability must be in [0, 1)")
        if drop_probability > 0 and rng is None:
            raise ValueError("drop_probability > 0 requires an rng")
        self.sim = sim
        self.base_latency = float(base_latency)
        self.drop_probability = float(drop_probability)
        #: Set before the run by whoever will degrade this broker while it
        #: runs (the fault injector, for a plan with partitions or loss
        #: windows); see :attr:`reliable`.
        self.will_degrade = False
        self.rng = rng
        self._topics: dict[str, list[Subscription]] = {}
        #: Unsubscribed, but a delivery already on its way still reaches
        #: the owner (a dead node's mailbox bounces it).
        self._departed: list[Subscription] = []
        #: Total messages published (all topics).
        self.published = 0
        #: Deliveries lost to the drop model.
        self.dropped = 0
        #: Non-reliable deliveries lost to an active partition.
        self.partition_dropped = 0
        self._partitions: dict[int, frozenset[str]] = {}
        self._next_partition_id = 0
        #: Reliable deliveries held back by a partition, flushed on heal.
        self._held: list[tuple[Subscription, Any, Optional[str]]] = []
        self.hooks = hooks if hooks is not None else Hooks()

    @property
    def reliable(self) -> bool:
        """No delivery can be lost or held, now or later in this run --
        what a publisher needs to know before it works out a whole
        exchange ahead of time instead of sending each message."""
        return not (self.will_degrade or self._partitions or self.drop_probability > 0)

    def subscribe(self, topic: str, name: str, latency: float = 0.0) -> Subscription:
        """Register a subscriber mailbox on ``topic``.

        ``latency`` is the subscriber's distance from the broker; each
        delivery to this mailbox takes ``base_latency + latency``.
        """
        if latency < 0:
            raise ValueError("latency must be non-negative")
        subscription = Subscription(topic, name, latency)
        self._topics.setdefault(topic, []).append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Remove a mailbox; future publishes no longer reach it."""
        subscribers = self._topics.get(subscription.topic, [])
        try:
            subscribers.remove(subscription)
        except ValueError:
            return
        self._departed.append(subscription)

    def close(self) -> None:
        """End of the run: every subscription this broker handed out
        loses its owner -- whose handler belongs to the node that holds
        the subscription -- and held messages are dropped.  Counters,
        the subscriptions' own included, stay readable."""
        for subscriptions in (*self._topics.values(), self._departed):
            for subscription in subscriptions:
                subscription.owner = None
        self._held.clear()

    def subscribers(self, topic: str) -> list[Subscription]:
        """Current subscriptions on ``topic`` (empty list if none)."""
        return list(self._topics.get(topic, ()))

    def add_partition(self, group: frozenset[str]) -> int:
        """Split ``group`` from the rest of the fleet; returns a handle.

        While active, a message whose sender and receiver fall on
        opposite sides of the cut cannot be delivered: non-reliable
        messages are counted in :attr:`partition_dropped` and lost,
        reliable ones are held and re-delivered when
        :meth:`remove_partition` is called with the returned handle.
        """
        if not group:
            raise ValueError("partition group must not be empty")
        pid = self._next_partition_id
        self._next_partition_id += 1
        self._partitions[pid] = frozenset(group)
        return pid

    def remove_partition(self, pid: int) -> None:
        """Heal a partition and flush any reliable messages it held."""
        self._partitions.pop(pid)
        held, self._held = self._held, []
        for subscription, message, sender in held:
            self._deliver(subscription, message, reliable=True, sender=sender)

    def _partitioned(self, sender: Optional[str], receiver: str) -> bool:
        if sender is None or not self._partitions:
            return False
        return any(
            (sender in group) != (receiver in group)
            for group in self._partitions.values()
        )

    def publish(
        self,
        topic: str,
        message: Any,
        exclude: Optional[Subscription] = None,
        reliable: bool = False,
        sender: Optional[str] = None,
    ) -> int:
        """Deliver ``message`` to every subscriber of ``topic``.

        Returns the number of subscribers the message was sent to.
        Delivery happens after each subscriber's latency; a copy of the
        *reference* is delivered (messages are treated as immutable).
        ``reliable`` deliveries bypass the drop model.  ``sender`` names
        the publishing node for partition filtering.

        Fan-out is batched: when neither partitions nor the drop model
        can intercept deliveries, subscribers sharing the same total
        latency are served by a single timer (one heap entry per
        distinct delay instead of one per subscriber), and zero-latency
        deliveries skip the timer entirely.
        """
        self.published += 1
        for hook in self.hooks.publish:
            hook(topic, message, sender, self.sim.now)
        subscriptions = self._topics.get(topic, ())
        if not subscriptions:
            return 0
        if self._partitions or (not reliable and self.drop_probability > 0):
            # Degraded-broker path: per-delivery filtering required.
            delivered = 0
            for subscription in subscriptions:
                if subscription is exclude:
                    continue
                self._deliver(subscription, message, reliable=reliable, sender=sender)
                delivered += 1
            return delivered
        if len(subscriptions) == 1:
            subscription = subscriptions[0]
            if subscription is exclude:
                return 0
            self._dispatch(subscription, message)
            return 1
        base = self.base_latency
        batches: dict[float, list[Subscription]] = {}
        delivered = 0
        for subscription in subscriptions:
            if subscription is exclude:
                continue
            delivered += 1
            delay = base + subscription.latency
            group = batches.get(delay)
            if group is None:
                batches[delay] = [subscription]
            else:
                group.append(subscription)
        for delay, group in batches.items():
            if delay == 0.0:
                for subscription in group:
                    self._deliver_now(subscription, message)
            elif len(group) == 1:
                self.sim.call_later(delay, self._deliver_now, group[0], message)
            else:
                self.sim.call_later(delay, self._deliver_batch, group, message)
        return delivered

    def resume(self, subscription: Subscription, message: Any, when: float) -> None:
        """Let ``message`` land in ``subscription`` at ``when``: part of an
        exchange worked out ahead of time (see :attr:`reliable`) that
        has to happen after all."""
        self.published += 1
        self.sim.call_at(when, self._deliver_now, subscription, message)

    def _deliver(
        self,
        subscription: Subscription,
        message: Any,
        reliable: bool = False,
        sender: Optional[str] = None,
    ) -> None:
        if self._partitioned(sender, subscription.name):
            if reliable:
                self._held.append((subscription, message, sender))
            else:
                self.partition_dropped += 1
            return
        if (
            not reliable
            and self.drop_probability > 0
            and self.rng.random() < self.drop_probability
        ):
            self.dropped += 1
            return
        self._dispatch(subscription, message)

    def _dispatch(self, subscription: Subscription, message: Any) -> None:
        """Schedule (or, at zero latency, perform) one delivery."""
        delay = self.base_latency + subscription.latency
        if delay == 0.0:
            self._deliver_now(subscription, message)
        else:
            self.sim.call_later(delay, self._deliver_now, subscription, message)

    def _deliver_now(self, subscription: Subscription, message: Any) -> None:
        for hook in self.hooks.deliver:
            hook(subscription.topic, subscription.name, message, self.sim.now)
        subscription.owner.deliver(message)
        subscription.delivered += 1

    def _deliver_batch(self, group: list[Subscription], message: Any) -> None:
        for subscription in group:
            for hook in self.hooks.deliver:
                hook(subscription.topic, subscription.name, message, self.sim.now)
            subscription.owner.deliver(message)
            subscription.delivered += 1
