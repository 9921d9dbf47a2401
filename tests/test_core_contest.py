"""Unit tests for the master-side bidding contest (Listing 1)."""

import pytest

from repro.schedulers.contest import Contest, ContestStatus
from repro.engine.messages import Bid
from repro.sim import Simulator
from repro.workload.job import Job


@pytest.fixture
def sim():
    return Simulator()


def make_job():
    return Job(job_id="j1", task="t", repo_id="r1", size_mb=10.0)


def make_bid(worker, cost, job_id="j1"):
    return Bid(job_id=job_id, worker=worker, cost_s=cost)


class TestContestLifecycle:
    def test_opens_open(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2"])
        assert contest.status is ContestStatus.OPEN
        assert contest.opened_at == 0.0

    def test_needs_workers(self, sim):
        with pytest.raises(ValueError):
            Contest(sim, make_job(), [])

    def test_all_bids_event_fires_when_complete(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2"])
        contest.add_bid(make_bid("w1", 5.0))
        assert not contest.all_bids
        contest.add_bid(make_bid("w2", 3.0))
        assert contest.all_bids

    def test_close_classifies_full(self, sim):
        contest = Contest(sim, make_job(), ["w1"])
        contest.add_bid(make_bid("w1", 1.0))
        assert contest.close() == "full"
        assert contest.status is ContestStatus.CLOSED

    def test_close_classifies_timeout(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2"])
        contest.add_bid(make_bid("w1", 1.0))
        assert contest.close() == "timeout"

    def test_close_classifies_fallback(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2"])
        assert contest.close() == "fallback"

    def test_double_close_rejected(self, sim):
        contest = Contest(sim, make_job(), ["w1"])
        contest.close()
        with pytest.raises(RuntimeError):
            contest.close()

    def test_duration_tracks_clock(self, sim):
        contest = Contest(sim, make_job(), ["w1"])
        sim.run(until=2.5)
        assert contest.duration == pytest.approx(2.5)


class TestBidHandling:
    def test_winner_is_lowest_cost(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2", "w3"])
        contest.add_bid(make_bid("w1", 5.0))
        contest.add_bid(make_bid("w2", 2.0))
        contest.add_bid(make_bid("w3", 9.0))
        assert contest.winner() == "w2"

    def test_tie_breaks_by_name(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2"])
        contest.add_bid(make_bid("w2", 5.0))
        contest.add_bid(make_bid("w1", 5.0))
        assert contest.winner() == "w1"

    def test_no_bids_no_winner(self, sim):
        contest = Contest(sim, make_job(), ["w1"])
        assert contest.winner() is None

    def test_late_bid_recorded_not_counted(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2"])
        contest.add_bid(make_bid("w1", 5.0))
        contest.close()
        assert contest.add_bid(make_bid("w2", 1.0)) is False
        assert contest.winner() == "w1"
        assert len(contest.late_bids) == 1

    def test_uninvited_worker_rejected(self, sim):
        contest = Contest(sim, make_job(), ["w1"])
        with pytest.raises(ValueError, match="uninvited"):
            contest.add_bid(make_bid("intruder", 1.0))

    def test_duplicate_bid_rejected(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2"])
        contest.add_bid(make_bid("w1", 1.0))
        with pytest.raises(ValueError, match="duplicate"):
            contest.add_bid(make_bid("w1", 2.0))

    def test_misrouted_bid_rejected(self, sim):
        contest = Contest(sim, make_job(), ["w1"])
        with pytest.raises(ValueError, match="routed"):
            contest.add_bid(make_bid("w1", 1.0, job_id="other-job"))

    def test_negative_bid_cost_rejected(self):
        with pytest.raises(ValueError):
            Bid(job_id="j", worker="w", cost_s=-1.0)
