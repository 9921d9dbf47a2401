"""Unit tests for dedicated download links."""

import numpy as np
import pytest

from repro.net.bandwidth import FairSharePipe
from repro.net.link import Link
from repro.net.noise import NoNoise, UniformNoise
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def run_transfer(sim, link, size_mb):
    elapsed = []
    link.start(size_mb, 0, elapsed.append)
    sim.run()
    (only,) = elapsed
    return only


class TestBasics:
    def test_transfer_time_includes_latency(self, sim):
        link = Link(sim, bandwidth_mbps=10.0, latency=0.5)
        elapsed = run_transfer(sim, link, 100.0)
        assert elapsed == pytest.approx(10.5)

    def test_zero_size_costs_only_latency(self, sim):
        link = Link(sim, bandwidth_mbps=10.0, latency=0.5)
        assert run_transfer(sim, link, 0.0) == pytest.approx(0.5)

    def test_nominal_transfer_time(self, sim):
        link = Link(sim, bandwidth_mbps=20.0, latency=1.0)
        assert link.nominal_transfer_time(100.0) == pytest.approx(6.0)

    def test_counters_accumulate(self, sim):
        link = Link(sim, bandwidth_mbps=10.0)
        link.start(30.0, 0, lambda _elapsed: link.start(20.0, 0, None))
        sim.run()
        assert link.total_mb == pytest.approx(50.0)
        assert link.transfer_count == 2

    def test_negative_size_rejected(self, sim):
        link = Link(sim, bandwidth_mbps=10.0)
        with pytest.raises(ValueError):
            link.start(-5.0, 0, None)

    def test_invalid_construction(self, sim):
        with pytest.raises(ValueError):
            Link(sim, bandwidth_mbps=0.0)
        with pytest.raises(ValueError):
            Link(sim, bandwidth_mbps=1.0, latency=-1.0)


class TestSerialisation:
    def test_transfers_are_fifo_serialised(self, sim):
        link = Link(sim, bandwidth_mbps=10.0)
        finishes = []
        link.start(100.0, 0, lambda _elapsed: finishes.append(sim.now))
        link.start(100.0, 0, lambda _elapsed: finishes.append(sim.now))
        sim.run()
        # Serialised: 10 s then 20 s, not both at 20 s.
        assert finishes == [pytest.approx(10.0), pytest.approx(20.0)]

    def test_foreground_overtakes_waiting_background(self, sim):
        link = Link(sim, bandwidth_mbps=10.0)
        order = []
        link.start(10.0, 1, lambda _elapsed: order.append("holder"))
        link.start(10.0, 1, lambda _elapsed: order.append("prefetch-1"))
        link.start(10.0, 1, lambda _elapsed: order.append("prefetch-2"))
        link.start(10.0, 0, lambda _elapsed: order.append("job"))
        sim.run()
        # Non-preemptive: the holder finishes; then the job's own
        # download, then the prefetches in the order they asked.
        assert order == ["holder", "job", "prefetch-1", "prefetch-2"]

    def test_elapsed_counts_the_wait_for_the_link(self, sim):
        link = Link(sim, bandwidth_mbps=10.0, latency=0.5)
        elapsed = []
        link.start(100.0, 0, elapsed.append)
        link.start(50.0, 0, elapsed.append)
        sim.run()
        assert elapsed == [pytest.approx(10.5), pytest.approx(10.5 + 5.5)]

    def test_busy_and_observer_span_waiting_transfers(self, sim):
        link = Link(sim, bandwidth_mbps=10.0)
        flips = []
        link.observer = lambda busy: flips.append((sim.now, busy))
        assert not link.busy
        link.start(100.0, 0, None)
        link.start(100.0, 1, None)
        assert link.busy
        sim.run()
        assert not link.busy
        assert flips == [(0.0, True), (pytest.approx(20.0), False)]


class TestAbandonedTransfer:
    """A transfer belongs to the link.  Whoever asked for it may stop
    waiting (a killed or checkpointed executor does); the transfer runs
    to its end all the same: it keeps the link, draws its noise factor,
    counts into the totals, and the next transfer queues behind it."""

    def make_link(self, sim):
        return Link(
            sim,
            bandwidth_mbps=10.0,
            latency=0.5,
            noise=UniformNoise(0.5),
            rng=np.random.default_rng(7),
        )

    def run_pair(self, sim, abandon_at):
        link = self.make_link(sim)
        log = []
        first = link.start(100.0, 0, lambda elapsed: log.append(("first", sim.now)))
        if abandon_at is not None:
            sim.call_at(abandon_at, first.abandon)
        # The next job's miss, asked for while the first transfer moves.
        sim.call_at(3.0, link.start, 50.0, 0, lambda elapsed: log.append(("second", sim.now)))
        sim.run()
        return link, log

    @pytest.mark.parametrize("abandon_at", [0.0, 0.25, 2.0], ids=["granted", "latency", "flow"])
    def test_runs_to_its_end_with_nobody_waiting(self, sim, abandon_at):
        kept_link, kept = self.run_pair(Simulator(), None)
        link, log = self.run_pair(sim, abandon_at)
        # Nobody hears of the first transfer ...
        assert [who for who, _when in log] == ["second"]
        # ... but the second one finishes exactly when it would have:
        # same wait for the link, same second draw from the rng.
        assert log == kept[1:]
        assert link.transfer_count == kept_link.transfer_count == 2
        assert link.total_mb == kept_link.total_mb == 150.0
        assert link.rng.random() == kept_link.rng.random()

    def test_link_stays_busy_until_the_abandoned_transfer_ends(self, sim):
        link = Link(sim, bandwidth_mbps=10.0)
        flips = []
        link.observer = lambda busy: flips.append((sim.now, busy))
        link.start(100.0, 0, None).abandon()
        sim.run(until=5.0)
        assert link.busy
        sim.run()
        assert flips == [(0.0, True), (pytest.approx(10.0), False)]

    def test_abandoned_on_the_instant_it_ends(self, sim):
        link = Link(sim, bandwidth_mbps=10.0)
        heard = []
        transfer = link.start(100.0, 0, heard.append)
        # Armed first, so it runs between the release and ``done``'s turn.
        sim.call_at(10.0, lambda: sim.call_at(10.0, transfer.abandon))
        sim.run()
        assert heard == []
        assert link.transfer_count == 1


class TestNoise:
    def test_noise_perturbs_duration(self, sim):
        rng = np.random.default_rng(7)
        link = Link(sim, bandwidth_mbps=10.0, noise=UniformNoise(0.5), rng=rng)
        elapsed = run_transfer(sim, link, 100.0)
        assert elapsed != pytest.approx(10.0)
        assert 100.0 / 15.0 <= elapsed <= 100.0 / 5.0

    def test_realised_speed_recorded(self, sim):
        link = Link(sim, bandwidth_mbps=10.0, latency=0.0, noise=NoNoise())
        run_transfer(sim, link, 50.0)
        assert link.last_realised_mbps == pytest.approx(10.0)

    def test_realised_speed_includes_latency_drag(self, sim):
        link = Link(sim, bandwidth_mbps=10.0, latency=5.0)
        run_transfer(sim, link, 50.0)
        # 50 MB in 10 s -> 5 MB/s effective.
        assert link.last_realised_mbps == pytest.approx(5.0)


class TestUpstream:
    def test_shared_origin_throttles(self, sim):
        origin = FairSharePipe(sim, capacity_mbps=10.0)
        link_a = Link(sim, bandwidth_mbps=100.0, upstream=origin)
        link_b = Link(sim, bandwidth_mbps=100.0, upstream=origin)
        finishes = []
        link_a.start(100.0, 0, lambda _elapsed: finishes.append(sim.now))
        link_b.start(100.0, 0, lambda _elapsed: finishes.append(sim.now))
        sim.run()
        assert len(finishes) == 2
        # Local pipes allow 1 s each, but the shared 10 MB/s origin
        # forces both to ~20 s.
        assert all(f == pytest.approx(20.0, rel=0.05) for f in finishes)

    def test_fast_origin_does_not_slow_link(self, sim):
        origin = FairSharePipe(sim, capacity_mbps=1000.0)
        link = Link(sim, bandwidth_mbps=10.0, upstream=origin)
        elapsed = run_transfer(sim, link, 100.0)
        assert elapsed == pytest.approx(10.0, rel=0.01)
