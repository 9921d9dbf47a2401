"""Master-side bidding contests (Listing 1).

A :class:`Contest` is the master's record for one job's bidding round:
which workers were invited, which bids arrived, and whether the contest
is still open.  It directly mirrors Listing 1's data structures
(``bidsMap`` keyed by job id, a per-job ``open``/``closed`` status) and
its closing rule (line 30)::

    biddingFinished(job_id) =
        len(bids[job_id]) == len(activeWorkers)  OR  bidding_lasted_for > 1s

The early-close condition is a flag (:attr:`all_bids`) that wakes the
owning policy, which closes the contest on it or the window's timer.

The record is *columnar*: one row per worker that hears the
announcement, the bids as float planes (``cost`` and its Listing-2
breakdown) under a ``counted`` mask.  A bid can be written one at a
time (:meth:`add_bid`, for every :class:`~repro.engine.messages.Bid`
that crosses the broker) or for all rows at once from their scheduled
arrival times (:meth:`collect`, what
:class:`~repro.schedulers.bidding.BiddingMasterPolicy` does when it computes
the bids itself); :meth:`winner` is one masked argmin over the cost
plane either way.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Collection, Optional

import numpy as np

from repro.engine.messages import Bid

if TYPE_CHECKING:  # pragma: no cover
    from repro.schedulers.bidding import BiddingMasterPolicy
    from repro.sim.kernel import Simulator
    from repro.workload.job import Job


class ContestStatus(enum.Enum):
    """Listing 1's per-job bidding status."""

    OPEN = "open"
    CLOSED = "closed"


class Contest:
    """One job's bidding round.

    ``names`` lists the workers that will hear the announcement, one row
    each (default: exactly the invited ``expected_workers``); the two
    differ when a draining worker is still subscribed or an invited one
    already died.

    A contest whose bids :class:`~repro.schedulers.bidding.BiddingMasterPolicy`
    computes itself (``names`` given) also carries, filled in by the
    policy, the bid planes and the timetable, one entry per row:
    ``own`` (the bid minus the committed workload -- what a win
    commits), ``dequeue`` / ``evaluate`` / ``arrive`` (when the bid
    thread takes the announcement up, when the bid is priced, when it
    reaches the master), ``valid`` (the bidder still bids), ``rows`` /
    ``lookup`` (cost-plane rows <-> contest rows), ``rank`` (name ranks,
    for ties), ``quiet_after`` (when the last bid lands) and ``full``
    (every row is invited and valid: counted without masks).

    ``owner.wake(contest)``, if given, runs one NORMAL turn after the
    last invited bid is counted, where a triggered event's callbacks ran.
    """

    def __init__(
        self,
        sim: "Simulator",
        job: "Job",
        expected_workers: Collection[str],
        names: Optional[list[str]] = None,
        owner: Optional["BiddingMasterPolicy"] = None,
    ) -> None:
        if not expected_workers:
            raise ValueError("a contest needs at least one invited worker")
        self.sim = sim
        self.job = job
        self.owner = owner
        self.expected: frozenset[str] = frozenset(expected_workers)
        self.status = ContestStatus.OPEN
        self.opened_at = sim.now
        #: row -> worker name.
        self.names: list[str] = list(expected_workers) if names is None else names
        rows = len(self.names)
        #: The bids: total estimate and its Listing-2 breakdown, per row
        #: (whoever passes ``names`` also supplies these planes).
        if names is None:
            self.cost = np.zeros(rows)
            self.workload = np.zeros(rows)
            self.transfer = np.zeros(rows)
            self.processing = np.zeros(rows)
            #: Rows whose worker is (still) invited.
            self.invited = np.ones(rows, dtype=bool)
        #: Whether the policy computes the bids itself (see above), and
        #: then whether a bid or the winner's ``Assignment`` is still on
        #: its way (the policy keeps the record until then); whether the
        #: job has finished meanwhile; the job's earlier contest, if any.
        self.computed = names is not None
        self.live = self.computed
        self.job_done = False
        self.previous: Optional[Contest] = None
        #: How many contests the job had before this one.
        self.attempt = 0
        #: Rows whose bid counted.
        self.counted = np.zeros(rows, dtype=bool)
        self.n_bids = 0
        #: Every invited worker has bid (the early-close trigger).
        self.all_bids = False
        #: The policy short-circuited the contest (the fast-local-close
        #: future-work extension); never set under the paper's rules.
        self.fast_close = False
        #: The owner has begun closing the contest (a trigger came up).
        self.closing = self.full = False
        self.rank: Optional[np.ndarray] = None
        #: Workers dropped from the contest after dying mid-window.
        self.excluded: set[str] = set()
        #: Bids that arrived too late to count (the paper drops them):
        #: :meth:`add_bid` remembers them here; the rows of
        #: :meth:`collect`'s last ``arrived`` that did not count are too.
        self._late: list[Bid] = []
        self.arrived: Optional[np.ndarray] = None
        self._index: Optional[dict[str, int]] = None

    @property
    def duration(self) -> float:
        """Seconds the contest has been (or was) open."""
        return self.sim.now - self.opened_at

    @property
    def late_bids(self) -> list[Bid]:
        """Bids that arrived after closing or from an excluded worker."""
        if self.arrived is None:
            return list(self._late)
        late = np.flatnonzero(self.arrived & ~self.counted)
        return self._late + [self.bid_of(row) for row in late]

    def row_of(self, worker: str) -> int:
        """The row of ``worker`` (-1 if it never heard the announcement)."""
        if self._index is None:
            self._index = {name: row for row, name in enumerate(self.names)}
        return self._index.get(worker, -1)

    def bid_of(self, row: int) -> Bid:
        """The bid in ``row`` as the message that would have carried it."""
        return Bid(
            job_id=self.job.job_id,
            worker=self.names[row],
            cost_s=float(self.cost[row]),
            attempt=self.attempt,
            breakdown=(
                float(self.workload[row]),
                float(self.transfer[row]),
                float(self.processing[row]),
            ),
        )

    def add_bid(self, bid: Bid) -> bool:
        """Record a bid; returns ``True`` if it counted.

        Bids are dropped (but remembered in :attr:`late_bids`) when the
        contest is already closed; bids from uninvited workers or
        duplicate bids from the same worker are errors -- the protocol
        never produces them, so surfacing loudly catches engine bugs.
        """
        if bid.job_id != self.job.job_id:
            raise ValueError(
                f"bid for job {bid.job_id!r} routed to contest {self.job.job_id!r}"
            )
        if self.status is ContestStatus.CLOSED or bid.worker in self.excluded:
            # A bid from a worker excluded after dying can legitimately
            # be in flight; it is dropped, not a protocol error.
            self._late.append(bid)
            return False
        row = self.row_of(bid.worker)
        if row < 0 or not self.invited[row]:
            raise ValueError(f"bid from uninvited worker {bid.worker!r}")
        if self.counted[row]:
            raise ValueError(f"duplicate bid from {bid.worker!r}")
        self.cost[row] = bid.cost_s
        self.workload[row], self.transfer[row], self.processing[row] = bid.breakdown
        self.counted[row] = True
        self.n_bids += 1
        self._check_all_bids()
        return True

    def collect(self, arrived: Optional[np.ndarray] = None) -> None:
        """Count every bid whose row is in ``arrived`` at once: the
        columnar equivalent of one :meth:`add_bid` per arrival, for bids
        whose values already sit in the planes.  ``None``: every row, of
        a :attr:`full` contest."""
        every = arrived is None
        if every:
            arrived = self.invited  # all ones, and never written in place
        self.arrived = arrived
        if self.status is ContestStatus.CLOSED:
            return
        if every:
            self.counted, self.n_bids = arrived.copy(), arrived.size
        else:
            if (arrived & ~self.invited).any():
                for row in np.flatnonzero(arrived & ~self.invited):
                    if self.names[row] not in self.excluded:
                        raise ValueError(f"bid from uninvited worker {self.names[row]!r}")
            self.counted = arrived & self.invited
            self.n_bids = int(np.count_nonzero(self.counted))
        self._check_all_bids()

    def _check_all_bids(self) -> None:
        if self.expected and self.n_bids == len(self.expected) and not self.all_bids:
            self.all_bids = True
            if self.owner is not None:
                self.sim.call_soon(self.owner.wake, self, urgent=False)

    def exclude(self, worker: str) -> None:
        """Remove an invited worker that died mid-contest.

        Robustness extension: the contest no longer waits for (or
        counts) the dead worker's bid, so :attr:`all_bids` can fire off
        the survivors instead of stalling the window.  No-op when the
        contest is closed or the worker was not invited.
        """
        if self.status is ContestStatus.CLOSED or worker not in self.expected:
            return
        self.expected = self.expected - {worker}
        self.excluded.add(worker)
        self.full, self.counted_at = False, None  # the owner counts again
        row = self.row_of(worker)
        if row >= 0:
            self.invited = self.invited.copy()  # may be shared between contests
            self.invited[row] = False
            if self.counted[row]:
                self.counted[row] = False
                self.n_bids -= 1
        self._check_all_bids()

    def winner(self) -> Optional[str]:
        """``getPreferredWorker`` (Listing 1 lines 17-21): lowest estimate.

        Ties break deterministically by worker name (the Listing's sort
        is stable, ours is total).  ``None`` when no bids arrived.
        """
        if not self.n_bids:
            return None
        costs = self.cost
        if self.n_bids < len(self.names):
            costs = np.where(self.counted, costs, np.inf)
        best = int(costs.argmin())
        ties = (costs == costs[best]).nonzero()[0]
        if ties.size == 1:
            return self.names[best]
        if self.rank is not None:
            return self.names[ties[self.rank[ties].argmin()]]
        return min([self.names[row] for row in ties])

    def ranked(self) -> list[int]:
        """Rows of the counted bids, best ``(cost, name)`` first."""
        cost = self.cost.tolist()
        return sorted(
            np.flatnonzero(self.counted).tolist(),
            key=lambda row: (cost[row], self.names[row]),
        )

    def close(self) -> str:
        """Close the contest and classify the outcome.

        Returns ``"full"`` (every worker bid), ``"fast"`` (short-circuited
        by the fast-local-close extension before all bids arrived),
        ``"timeout"`` (window expired with some bids) or ``"fallback"``
        (window expired with none -- the master must pick an arbitrary
        worker).
        """
        if self.status is ContestStatus.CLOSED:
            raise RuntimeError("contest already closed")
        self.status = ContestStatus.CLOSED
        if not self.n_bids:
            # Covers the degenerate every-invitee-excluded case too,
            # where expected and bids are both empty.
            return "fallback"
        if self.n_bids == len(self.expected):
            return "full"
        return "fast" if self.fast_close else "timeout"
