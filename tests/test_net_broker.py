"""Unit tests for the pub/sub broker and topology."""

import numpy as np
import pytest

from repro.net.broker import Broker, Mailbox
from repro.net.topology import Topology, TopologyConfig
from reference_sim import Simulator, inbox


@pytest.fixture
def sim():
    return Simulator()


class TestBroker:
    def test_publish_reaches_all_subscribers(self, sim):
        broker = Broker(sim)
        boxes = [inbox(sim, broker.subscribe("jobs", f"w{i}")) for i in range(3)]
        count = broker.publish("jobs", {"id": 1})
        sim.run()
        assert count == 3
        assert all(len(box) == 1 for box in boxes)

    def test_publish_to_empty_topic(self, sim):
        broker = Broker(sim)
        assert broker.publish("nobody", "msg") == 0

    def test_delivery_latency(self, sim):
        broker = Broker(sim, base_latency=0.1)
        sub = broker.subscribe("t", "w", latency=0.4)
        arrival = []

        def consumer(sim, box):
            msg = yield box.get()
            arrival.append((sim.now, msg))

        sim.process(consumer(sim, inbox(sim, sub)))
        broker.publish("t", "hello")
        sim.run()
        assert arrival == [(pytest.approx(0.5), "hello")]

    def test_per_subscriber_latency_differs(self, sim):
        broker = Broker(sim)
        near = broker.subscribe("t", "near", latency=0.01)
        far = broker.subscribe("t", "far", latency=0.30)
        arrivals = {}

        def consumer(sim, box, name):
            yield box.get()
            arrivals[name] = sim.now

        sim.process(consumer(sim, inbox(sim, near), "near"))
        sim.process(consumer(sim, inbox(sim, far), "far"))
        broker.publish("t", "x")
        sim.run()
        assert arrivals["near"] < arrivals["far"]

    def test_fifo_per_subscriber(self, sim):
        broker = Broker(sim)
        sub = broker.subscribe("t", "w", latency=0.05)
        received = []

        def consumer(sim, box):
            for _ in range(5):
                msg = yield box.get()
                received.append(msg)

        sim.process(consumer(sim, inbox(sim, sub)))
        for index in range(5):
            broker.publish("t", index)
        sim.run()
        assert received == [0, 1, 2, 3, 4]

    def test_exclude_subscriber(self, sim):
        broker = Broker(sim)
        a = broker.subscribe("t", "a")
        b = broker.subscribe("t", "b")
        box_a, box_b = inbox(sim, a), inbox(sim, b)
        broker.publish("t", "msg", exclude=a)
        sim.run()
        assert len(box_a) == 0
        assert len(box_b) == 1

    def test_unsubscribe_stops_delivery(self, sim):
        broker = Broker(sim)
        sub = broker.subscribe("t", "w")
        box = inbox(sim, sub)
        broker.unsubscribe(sub)
        broker.publish("t", "msg")
        sim.run()
        assert len(box) == 0

    def test_delivered_counter(self, sim):
        broker = Broker(sim)
        sub = broker.subscribe("t", "w")
        inbox(sim, sub)
        broker.publish("t", 1)
        broker.publish("t", 2)
        sim.run()
        assert sub.delivered == 2
        assert broker.published == 2

    def test_owner_is_handed_each_delivery_at_its_arrival_time(self, sim):
        class Owner:
            def __init__(self):
                self.got = []

            def deliver(self, message):
                self.got.append((sim.now, message))

        broker = Broker(sim, base_latency=0.1)
        owned = [broker.subscribe("t", f"w{i}", latency=0.2) for i in range(2)]
        plain = inbox(sim, broker.subscribe("t", "w2", latency=0.2))  # same delay: one batch
        far = broker.subscribe("t", "w3", latency=0.5)
        for sub in (*owned, far):
            sub.owner = Owner()
        broker.publish("t", "hello")
        sim.run()
        assert [sub.owner.got for sub in owned] == [[(pytest.approx(0.3), "hello")]] * 2
        assert far.owner.got == [(pytest.approx(0.6), "hello")]
        assert all(sub.delivered == 1 for sub in (*owned, far))
        assert len(plain) == 1

    def test_reliable_means_nothing_can_be_lost_now_or_later(self, sim):
        assert Broker(sim).reliable
        assert not Broker(sim, drop_probability=0.1, rng=np.random.default_rng(0)).reliable
        broker = Broker(sim)
        pid = broker.add_partition(frozenset({"w1"}))
        assert not broker.reliable
        broker.remove_partition(pid)
        assert broker.reliable
        broker.will_degrade = True  # a fault plan will cut it mid-run
        assert not broker.reliable

    def test_negative_latency_rejected(self, sim):
        broker = Broker(sim)
        with pytest.raises(ValueError):
            broker.subscribe("t", "w", latency=-0.1)
        with pytest.raises(ValueError):
            Broker(sim, base_latency=-1.0)


class TestMailboxOrdering:
    """An owner-delivered consumer (:class:`Mailbox`) takes its turns
    exactly where a process parked on a store of the messages is resumed:
    the same script, driven through both, must log the same handling
    order and instants -- including against same-instant timers."""

    @staticmethod
    def as_process(sim, broker, sub, log):
        box = inbox(sim, sub)

        def loop():
            while True:
                message = yield box.get()
                log.append((sim.now, "handle", message))
                if message == "a":
                    # A message arriving mid-handler, and a timer armed
                    # by the handler for this very instant.
                    broker.publish("t", "c")
                    sim.call_at(sim.now, log.append, (sim.now, "armed by handler"))
                if message == "d":
                    # Busy for a while: "e" arrives meanwhile.
                    yield sim.timeout(0.25)
                    log.append((sim.now, "done", message))

        sim.process(loop())

    @staticmethod
    def as_mailbox(sim, broker, sub, log):
        def handler(message):
            log.append((sim.now, "handle", message))
            if message == "a":
                broker.publish("t", "c")
                sim.call_at(sim.now, log.append, (sim.now, "armed by handler"))
            if message == "d":
                sim.call_later(0.25, done, message)
                return True

        def done(message):
            log.append((sim.now, "done", message))
            sub.owner.next()

        sub.owner = Mailbox(sim, handler)
        sub.owner.start()

    def script(self, consumer):
        sim = Simulator()
        broker = Broker(sim)
        sub = broker.subscribe("t", "consumer")  # zero latency: delivered in publish
        log = []

        def note(label):
            log.append((sim.now, label))

        def burst():
            # Two deliveries at one instant, interleaved with timers of
            # that same instant armed before, between and after them.
            note("burst")
            sim.call_at(sim.now, note, "timer before a")
            broker.publish("t", "a")
            sim.call_at(sim.now, note, "timer between a and b")
            broker.publish("t", "b")
            sim.call_at(sim.now, note, "timer after b")

        sim.call_at(0.0, note, "timer armed before the consumer")
        consumer(sim, broker, sub, log)
        broker.publish("t", "early")  # before the consumer's first turn
        sim.call_at(0.0, note, "timer armed after the consumer")
        sim.call_at(1.0, burst)
        sim.call_at(2.0, broker.publish, "t", "d")
        sim.call_at(2.1, broker.publish, "t", "e")
        sim.call_at(2.25, note, "timer at the instant d is done")
        sim.run()
        return log

    def test_same_handling_order_and_instants_as_a_parked_process(self):
        as_process = self.script(self.as_process)
        assert self.script(self.as_mailbox) == as_process
        # And that order is the one the comments above describe.
        assert as_process == [
            # "early" is found on the consumer's first turn (URGENT, so
            # armed after both timers' entries were): handled after both.
            (0.0, "timer armed before the consumer"),
            (0.0, "timer armed after the consumer"),
            (0.0, "handle", "early"),
            (1.0, "burst"),
            (1.0, "timer before a"),
            (1.0, "handle", "a"),
            (1.0, "timer between a and b"),
            (1.0, "timer after b"),
            (1.0, "armed by handler"),
            (1.0, "handle", "b"),
            (1.0, "handle", "c"),
            (2.0, "handle", "d"),
            (2.25, "timer at the instant d is done"),
            (2.25, "done", "d"),
            (2.25, "handle", "e"),
        ]

    def test_messages_before_start_wait_for_it(self):
        sim = Simulator()
        broker = Broker(sim)
        sub = broker.subscribe("t", "consumer")
        got = []
        sub.owner = Mailbox(sim, lambda message: got.append((sim.now, message)))
        broker.publish("t", "x")
        sim.run(until=1.0)
        assert got == [] and len(sub.owner.messages) == 1 and sub.delivered == 1
        sub.owner.start()
        sim.run()
        assert got == [(1.0, "x")]


class TestTopology:
    def test_build_places_all_nodes(self, sim):
        topology = Topology.build(
            sim, ["a", "b", "c"], TopologyConfig(), rng=np.random.default_rng(0)
        )
        for name in ("a", "b", "c"):
            latency = topology.latency_of(name)
            assert 0.005 <= latency <= 0.060

    def test_unknown_node_raises(self, sim):
        topology = Topology.build(sim, ["a"], rng=np.random.default_rng(0))
        with pytest.raises(KeyError):
            topology.latency_of("ghost")

    def test_subscribe_uses_placed_latency(self, sim):
        topology = Topology.build(sim, [], TopologyConfig(broker_processing=0.0))
        topology.add_node("w", 0.25)
        sub = topology.subscribe("jobs", "w")
        assert sub.latency == 0.25

    def test_add_node_validates(self, sim):
        topology = Topology.build(sim, [])
        with pytest.raises(ValueError):
            topology.add_node("w", -0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TopologyConfig(min_latency=0.5, max_latency=0.1)
        with pytest.raises(ValueError):
            TopologyConfig(broker_processing=-0.1)

    def test_placement_deterministic_per_rng(self, sim):
        a = Topology.build(sim, ["x", "y"], rng=np.random.default_rng(5))
        b = Topology.build(sim, ["x", "y"], rng=np.random.default_rng(5))
        assert a.node_latency == b.node_latency
