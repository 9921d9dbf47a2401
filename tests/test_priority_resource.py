"""Unit tests for PriorityResource (foreground/background link sharing),
which the generator reference executor's link still runs on."""

import pytest

from reference_sim import PriorityResource, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestPriorityOrdering:
    def test_lower_priority_value_granted_first(self, sim):
        resource = PriorityResource(sim, capacity=1)
        grants = []

        def holder(sim, resource):
            request = resource.request(priority=0)
            yield request
            yield sim.timeout(1.0)
            resource.release(request)

        def waiter(sim, resource, priority, name):
            yield sim.timeout(0.1)  # request while the holder is busy
            request = resource.request(priority=priority)
            yield request
            grants.append(name)
            yield sim.timeout(0.5)
            resource.release(request)

        sim.process(holder(sim, resource))
        sim.process(waiter(sim, resource, 1, "background"))
        sim.process(waiter(sim, resource, 0, "foreground"))
        sim.run()
        assert grants == ["foreground", "background"]

    def test_fifo_within_priority_level(self, sim):
        resource = PriorityResource(sim, capacity=1)
        grants = []

        def holder(sim, resource):
            request = resource.request()
            yield request
            yield sim.timeout(1.0)
            resource.release(request)

        def waiter(sim, resource, name):
            yield sim.timeout(0.1)
            request = resource.request(priority=1)
            yield request
            grants.append(name)
            resource.release(request)

        sim.process(holder(sim, resource))
        for name in ("first", "second", "third"):
            sim.process(waiter(sim, resource, name))
        sim.run()
        assert grants == ["first", "second", "third"]

    def test_non_preemptive(self, sim):
        """A background holder is never interrupted by a foreground request."""
        resource = PriorityResource(sim, capacity=1)
        timeline = []

        def background(sim, resource):
            request = resource.request(priority=1)
            yield request
            timeline.append(("bg-start", sim.now))
            yield sim.timeout(5.0)
            resource.release(request)
            timeline.append(("bg-end", sim.now))

        def foreground(sim, resource):
            yield sim.timeout(1.0)
            request = resource.request(priority=0)
            yield request
            timeline.append(("fg-start", sim.now))
            resource.release(request)

        sim.process(background(sim, resource))
        sim.process(foreground(sim, resource))
        sim.run()
        assert timeline == [("bg-start", 0.0), ("bg-end", 5.0), ("fg-start", 5.0)]

    def test_capacity_respected(self, sim):
        resource = PriorityResource(sim, capacity=2)
        concurrency = []

        def user(sim, resource, priority):
            request = resource.request(priority)
            yield request
            concurrency.append(resource.count)
            yield sim.timeout(1.0)
            resource.release(request)

        for index in range(6):
            sim.process(user(sim, resource, index % 2))
        sim.run()
        assert max(concurrency) <= 2

    def test_release_validation(self, sim):
        resource = PriorityResource(sim, capacity=1)
        with pytest.raises(RuntimeError):
            resource.release(sim.event())

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            PriorityResource(sim, capacity=0)
