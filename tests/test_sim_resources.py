"""Unit tests for the Store of ``tests/reference_sim.py``."""

import pytest

from reference_sim import Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestStore:
    def test_put_then_get_fifo(self, sim):
        store = Store(sim)
        received = []

        def consumer(sim, store):
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        for value in ("a", "b", "c"):
            store.put(value)
        sim.process(consumer(sim, store))
        sim.run()
        assert received == ["a", "b", "c"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def consumer(sim, store):
            item = yield store.get()
            return (sim.now, item)

        def producer(sim, store):
            yield sim.timeout(4.0)
            yield store.put("late")

        consumer_proc = sim.process(consumer(sim, store))
        sim.process(producer(sim, store))
        assert sim.run(consumer_proc) == (4.0, "late")

    def test_capacity_blocks_put(self, sim):
        store = Store(sim, capacity=1)

        def producer(sim, store):
            yield store.put("one")
            yield store.put("two")
            return sim.now

        def consumer(sim, store):
            yield sim.timeout(3.0)
            yield store.get()

        producer_proc = sim.process(producer(sim, store))
        sim.process(consumer(sim, store))
        assert sim.run(producer_proc) == 3.0

    def test_multiple_getters_fifo(self, sim):
        store = Store(sim)
        winners = []

        def getter(sim, store, name):
            yield store.get()
            winners.append(name)

        sim.process(getter(sim, store, "first"))
        sim.process(getter(sim, store, "second"))

        def producer(sim, store):
            yield sim.timeout(1.0)
            yield store.put(1)
            yield sim.timeout(1.0)
            yield store.put(2)

        sim.process(producer(sim, store))
        sim.run()
        assert winners == ["first", "second"]

    def test_len_reflects_buffer(self, sim):
        store = Store(sim)
        store.put("x")
        store.put("y")
        sim.run()
        assert len(store) == 2

    def test_invalid_capacity_rejected(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)
