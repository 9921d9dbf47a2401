"""Unit tests for the fair-share (processor-sharing) pipe."""

import pytest

from reference_sim import Simulator, transfer
from repro.net.bandwidth import FairSharePipe


@pytest.fixture
def sim():
    return Simulator()


class TestSingleTransfer:
    def test_duration_is_size_over_capacity(self, sim):
        pipe = FairSharePipe(sim, capacity_mbps=10.0)
        done = transfer(pipe, 100.0)
        sim.run()
        assert done.value == pytest.approx(10.0)
        assert sim.now == pytest.approx(10.0)

    def test_zero_size_completes_immediately(self, sim):
        pipe = FairSharePipe(sim, capacity_mbps=10.0)
        done = transfer(pipe, 0.0)
        sim.run()
        assert done.value == 0.0
        assert sim.now == 0.0

    def test_negative_size_rejected(self, sim):
        pipe = FairSharePipe(sim, capacity_mbps=10.0)
        with pytest.raises(ValueError):
            transfer(pipe, -1.0)

    def test_invalid_capacity_rejected(self, sim):
        with pytest.raises(ValueError):
            FairSharePipe(sim, capacity_mbps=0.0)


class TestSharing:
    def test_two_equal_transfers_halve_the_rate(self, sim):
        pipe = FairSharePipe(sim, capacity_mbps=10.0)
        a = transfer(pipe, 100.0)
        b = transfer(pipe, 100.0)
        sim.run()
        # Both share 10 MB/s: each effectively gets 5 -> 20 s.
        assert a.value == pytest.approx(20.0)
        assert b.value == pytest.approx(20.0)

    def test_short_transfer_finishes_then_long_speeds_up(self, sim):
        pipe = FairSharePipe(sim, capacity_mbps=10.0)
        long = transfer(pipe, 100.0)
        short = transfer(pipe, 10.0)
        sim.run()
        # Shared phase: short needs 10/(10/2) = 2 s.  Long then has
        # 100 - 5*2 = 90 MB at full rate -> total 2 + 9 = 11 s.
        assert short.value == pytest.approx(2.0)
        assert long.value == pytest.approx(11.0)

    def test_staggered_arrival(self, sim):
        pipe = FairSharePipe(sim, capacity_mbps=10.0)
        results = {}

        def first(sim, pipe):
            done = transfer(pipe, 100.0)
            elapsed = yield done
            results["first"] = (sim.now, elapsed)

        def second(sim, pipe):
            yield sim.timeout(5.0)
            done = transfer(pipe, 25.0)
            elapsed = yield done
            results["second"] = (sim.now, elapsed)

        sim.process(first(sim, pipe))
        sim.process(second(sim, pipe))
        sim.run()
        # t<5: first alone at 10 MB/s, drains 50 MB.  t>=5 shared at 5:
        # second needs 5 s (finishes t=10, 25 MB), first drains 25 more
        # (25 left at t=10), then full rate: finishes t=12.5.
        assert results["second"][0] == pytest.approx(10.0)
        assert results["first"][0] == pytest.approx(12.5)

    def test_work_conservation(self, sim):
        """Total bytes moved equals capacity * busy time for a saturated pipe."""
        pipe = FairSharePipe(sim, capacity_mbps=8.0)
        sizes = [30.0, 50.0, 20.0, 100.0]
        for size in sizes:
            transfer(pipe, size)
        sim.run()
        assert sim.now == pytest.approx(sum(sizes) / 8.0)

    def test_active_count_tracks_transfers(self, sim):
        pipe = FairSharePipe(sim, capacity_mbps=10.0)
        transfer(pipe, 100.0)
        transfer(pipe, 100.0)
        assert pipe.active_count == 2
        sim.run()
        assert pipe.active_count == 0

    def test_many_overlapping_transfers_all_complete(self, sim):
        pipe = FairSharePipe(sim, capacity_mbps=10.0)
        events = []

        def spawner(sim, pipe):
            for index in range(20):
                events.append(transfer(pipe, float(index + 1)))
                yield sim.timeout(0.5)

        sim.process(spawner(sim, pipe))
        sim.run()
        assert all(event.processed for event in events)
        total = sum(range(1, 21))
        assert sim.now >= total / 10.0 - 1e-9
