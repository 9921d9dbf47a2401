"""The Bidding Scheduler: full master/worker protocol (Section 5).

Master side (Listing 1): each incoming job is published for bidding;
the master collects bids and closes the contest when every active
worker has answered or the 1-second window expires, then assigns the
job to the lowest estimate.  If *no* bids arrived, the job goes to an
arbitrary worker.

Worker side (Listing 2): on every announcement the worker submits
``committed workload + transfer estimate + processing estimate``
(computed by :class:`~repro.core.estimator.CostEstimator`).  Winning a
bid commits the job's own estimated cost to the worker's workload so
subsequent bids reflect it; the commitment is released when the job
finishes.

Configurable knobs (all ablatable, defaults = the paper):

* ``window_s`` -- the bidding window (paper: 1 second),
* ``max_concurrent_contests`` -- how many contests the master runs at
  once (paper's Listing 1 admits overlap; we default to 1, which makes
  every bid reflect fully settled workloads, and ablate larger values),
* ``speed_model`` -- nominal (Section 6.3) vs. historic-average
  (Section 6.4) vs. EWMA (future work),
* ``count_pending_downloads`` -- see
  :class:`~repro.core.estimator.CostEstimator`.

Contests are computed when nobody is looking
--------------------------------------------
The protocol is per worker and per message: broadcast, per-node
latency, a serial bid thread on every worker, one bid message each, the
window, dead-bidder exclusion.  A contest is *run* that way -- the
announcement goes through the broker, every bidder's thread takes it
off its mailbox, prices it and sends a
:class:`~repro.engine.messages.Bid` -- whenever the individual messages
can be told apart: something records or checks them (trace, invariant
monitors, the ``obs`` recorder), the broker can lose them, or bids take
no time to compute, so that a bid and whatever else reaches its node at
the same instant are ordered by the simulator's event queue alone.

Otherwise nothing depends on the messages but their outcome, and the
master-side policy *computes* it: when the contest opens, one pass over
:class:`~repro.fleet.BidPlanes` yields, for every listening bidder at
once, when its bid thread takes the announcement up, when the bid is
priced, when it reaches the master and what it says.  Each worker's
scalar code writes its own row whenever its state changes and re-prices
its bids not yet evaluated, so a bid always reflects the state at its
own evaluation instant; one timer fires at the instant the contest can
close.  ARCHITECTURE.md section 12 has the full account.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.adaptive import BidCorrector
from repro.core.contest import Contest, ContestStatus
from repro.core.estimator import CostEstimator
from repro.core.learning import NominalSpeedModel, SpeedModel
from repro.engine.messages import (
    TOPIC_ANNOUNCE,
    Assignment,
    Bid,
    JobAnnouncement,
)
from repro.fleet import BidPlanes
from repro.net.broker import Mailbox
from repro.schedulers.base import MasterPolicy, SchedulerPolicy, WorkerPolicy
from repro.sim.events import AnyOf
from repro.sim.resources import Store
from repro.workload.job import Job

#: The paper's bidding window: "The master waits for workers to make
#: submissions within one second".
DEFAULT_WINDOW_S = 1.0

#: Worker-side cost of computing one bid at a 1.0-CPU-factor machine:
#: scanning the local clone store and estimating costs is real work on a
#: t3.micro.  Scaled by each worker's CPU factor, so a 4x-slow worker
#: takes ~1 s -- which is exactly when the paper's 1-second window and
#: timeout-close path start to matter.  This constant realises the
#: contest overhead the paper reports ("for small resources or short
#: workflows, competing for jobs unnecessarily prolongs the execution");
#: ablation A1 sweeps it together with the window.
DEFAULT_BID_COMPUTE_S = 0.25


class BiddingMasterPolicy(MasterPolicy):
    """Listing 1: contest orchestration on the master.

    ``fast_local_close`` enables the future-work optimisation of
    "minimizing the bidding overhead for highly local jobs": the contest
    short-circuits as soon as an *idle holder* bids -- a worker whose
    bid shows zero transfer cost and zero committed workload.  Such a
    bid is unbeatable on data movement, so waiting out the window only
    adds latency.  Off by default (the paper's protocol).
    """

    name = "bidding"
    stale_inbound = (Bid,)

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        max_concurrent_contests: int = 1,
        fast_local_close: bool = False,
    ) -> None:
        super().__init__()
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if max_concurrent_contests < 1:
            raise ValueError("max_concurrent_contests must be >= 1")
        self.window_s = window_s
        self.max_concurrent_contests = max_concurrent_contests
        self.fast_local_close = fast_local_close
        #: Count of contests resolved through the fast-close path.
        self.fast_closes = 0
        self._pending: Optional[Store] = None
        #: job_id -> its latest Contest (Listing 1's ``Bids``/``bidsMap``),
        #: kept while the job can still be (re)assigned or a bid for it
        #: can still land.
        self.contests: dict[str, Contest] = {}
        #: Jobs whose contest ran over the broker and was forgotten when
        #: they finished: a straggler's bid for one is still a (late) bid.
        self._finished: set[str] = set()
        #: Contests currently open (the ``contests.open`` probe).
        self.open_contests = 0
        #: job_ids already granted one fallback re-contest (recovery mode).
        self._rebids: set[str] = set()
        #: Hot-swap quiesce: runners stop opening contests and park
        #: pending jobs here for :meth:`export_state` instead.
        self._quiescing = False
        self._parked_for_export: list[Job] = []
        #: Runners currently holding a job (between take and settle);
        #: the quiescent test must see through the window where a job is
        #: in a runner's hand but no contest is open yet.
        self._busy_runners = 0
        #: What every bidder would bid with (see the module docstring),
        #: and the announce subscriptions the row cache was built for.
        self.planes = BidPlanes()
        self._subs: list = []
        self._rows = slice(0, 0)
        self._lookup: Optional[np.ndarray] = None
        self._names: list[str] = []
        self._name_set: frozenset = frozenset()
        self._everyone = np.ones(0, dtype=bool)
        #: Computed contests with a bid or an ``Assignment`` on its way.
        self._live: list[Contest] = []
        #: Plane rows of bidders that have no metrics block yet.
        self._fresh: set[int] = set()
        #: Some bidder prices its bids in no time (``bid_compute_s=0``).
        self._instant = False
        self._retired = False

    def start(self) -> None:
        master = self.master
        self._pending = Store(master.sim)
        for index in range(self.max_concurrent_contests):
            master.sim.process(self._contest_runner(), name=f"contest-runner-{index}")
        self._reply_delay = master.topology.broker.base_latency + master.inbox.latency

    # -- MasterPolicy hooks -----------------------------------------------

    def on_job(self, job: Job) -> None:
        """``sendJob`` entry: queue the job for a bidding contest."""
        assert self._pending is not None, "policy not started"
        self._pending.put(job)

    def on_message(self, message: object) -> bool:
        """``receiveBid``: record the bid against its contest."""
        if not isinstance(message, Bid):
            return False
        contest = self.contests.get(message.job_id)
        if contest is None and message.job_id not in self._finished:
            # Not a job we announced.  After a bidding -> bidding hot-swap
            # this is the predecessor's residue, which the master drops;
            # anywhere else the master reports it as unhandled.
            return False
        self.master.metrics.bid_received(
            self.master.sim.now, message.job_id, message.worker, message.cost_s
        )
        if contest is None:
            return True
        while contest.attempt != message.attempt and contest.previous is not None:
            contest = contest.previous  # a straggler from the job's earlier contest
        counted = contest.add_bid(message)
        if (
            counted
            and self.fast_local_close
            and not contest.fast_close.triggered
            and message.breakdown[0] == 0.0  # no committed workload
            and message.breakdown[1] == 0.0  # data already local
        ):
            self.fast_closes += 1
            contest.fast_close.succeed(message.worker)
        return True

    def on_worker_failed(self, worker: str, orphaned: list[Job]) -> None:
        """Exclude the dead worker from every open contest, so surviving
        bidders can close early instead of waiting out the window for a
        bid that will never come."""
        for contest in list(self.contests.values()):
            if contest.status is ContestStatus.OPEN and worker in contest.expected:
                if contest.computed:
                    self._collect(contest)  # who has bid so far
                contest.exclude(worker)
                if contest.computed:
                    self._arm(contest)

    def on_job_completed(self, job: Job, worker: str) -> None:
        """The job can no longer be reassigned: its contest record goes
        as soon as no bid for it can still land."""
        contest = self.contests.get(job.job_id)
        if contest is None:
            return
        if contest.live:
            contest.job_done = True  # _settle does the rest
            return
        if contest.status is ContestStatus.OPEN:
            return
        del self.contests[job.job_id]
        self._rebids.discard(job.job_id)
        if not contest.computed:
            self._finished.add(job.job_id)

    def on_run_finished(self) -> None:
        self.flush()

    def decision_snapshot(self, job: Job, worker: str) -> object:
        """The job's contest, by reference: once closed nothing writes its
        planes again (late bids go to ``late_bids``; ARCHITECTURE.md
        section 12).  An open one -- a migration rebinding the job while
        its re-contest collects bids -- is explained on the spot."""
        contest = self.contests.get(job.job_id)
        if contest is not None and contest.status is ContestStatus.OPEN:
            return self.decision_context(job, worker, contest)
        return contest

    def decision_context(self, job: Job, worker: str, contest: object) -> tuple:
        """Ledger: the closed contest's bids are the candidate scores."""
        from repro.obs.ledger import CandidateScore

        if isinstance(contest, tuple):
            return contest
        if contest is None:
            return ("fallback", (), None, "no usable bids; arbitrary pick")
        ranked, row = contest.ranked(), contest.row_of(worker)
        names, cost = contest.names, contest.cost.tolist()
        workload, transfer = contest.workload.tolist(), contest.transfer.tolist()
        processing = contest.processing.tolist()
        if row not in ranked:
            # Zero-bid window: the master picked an arbitrary worker.
            candidates = tuple(
                CandidateScore(worker=names[i], score=cost[i]) for i in ranked
            )
            return ("fallback", candidates, None, "no usable bids; arbitrary pick")
        candidates = tuple(
            CandidateScore(
                worker=names[i],
                score=cost[i],
                local=transfer[i] == 0.0,
                detail=(
                    f"workload={workload[i]:.3f}s "
                    f"transfer={transfer[i]:.3f}s "
                    f"processing={processing[i]:.3f}s"
                ),
            )
            for i in ranked
        )
        runner_up = names[ranked[1]] if len(ranked) > 1 else None
        reason = f"lowest bid of {len(ranked)} ({cost[row]:.3f} s)"
        if runner_up is not None:
            saved = transfer[ranked[1]] - transfer[row]
            if transfer[row] == 0.0 and saved > 0 and job.repo_id:
                reason += (
                    f"; cache hit on repo {job.repo_id} saved "
                    f"est. {saved:.1f} s transfer vs {runner_up}"
                )
        return ("contest", candidates, runner_up, reason)

    # -- hot-swap seam ------------------------------------------------------

    def begin_quiesce(self) -> None:
        """Runners stop opening contests (pending jobs are parked for
        export); already-open contests run to their normal close, whose
        assignment survives the swap at the engine level."""
        self._quiescing = True

    def quiescent(self) -> bool:
        return self._busy_runners == 0 and not self._pending.items

    def end_quiesce(self) -> None:
        """Quiesce timed out: re-enter the parked jobs for contests."""
        self._quiescing = False
        parked = list(self._parked_for_export)
        self._parked_for_export.clear()
        for job in parked:
            self._pending.put(job)

    def export_state(self) -> list[Job]:
        # The successor drops whatever bids are still in flight, so the
        # counters close on what has landed by now.
        self.flush()
        self._retired = True
        jobs = list(self._parked_for_export)
        self._parked_for_export.clear()
        jobs.extend(item for item in self._pending.items if isinstance(item, Job))
        self._pending.items.clear()
        return jobs

    # -- the contest loop ------------------------------------------------------

    def _contest_runner(self):
        """Take pending jobs one at a time and run their contests."""
        master = self.master
        while True:
            job = yield self._pending.get()
            if self._quiescing:
                # Hot-swap quiesce: park for export instead of contesting.
                self._parked_for_export.append(job)
                continue
            self._busy_runners += 1
            if not master.active_workers:
                # Robustness: the whole fleet is momentarily down (crash
                # storm before restarts land).  Park the job and retry.
                yield master.sim.sleep(self.window_s)
                self._pending.put(job)
                self._busy_runners -= 1
                continue
            contest = self._open(job)
            window = master.sim.timeout(self.window_s)
            yield AnyOf(master.sim, [window, contest.all_bids, contest.fast_close])
            if contest.computed:
                # A bid landing at the very instant the window expires is
                # late: the window's timer was armed before it was sent.
                expired = not (contest.all_bids.triggered or contest.fast_close.triggered)
                self._collect(contest, before_now=expired)
                if contest.timer is not None:
                    contest.timer.cancel()
            outcome = contest.close()
            self.open_contests -= 1
            winner = contest.winner()
            if (
                winner is None
                and master.recovery is not None
                and job.job_id not in self._rebids
            ):
                # Recovery extension: a zero-bid window usually means the
                # invitees died or were partitioned mid-contest.  Re-run
                # the contest once against the *current* fleet instead of
                # assigning blindly.  (The old contest stays in the map
                # until the rerun opens, absorbing stray late bids.)
                self._rebids.add(job.job_id)
                master.metrics.contest_closed(
                    master.sim.now, job, None, contest.duration, outcome
                )
                self._pending.put(job)
                self._busy_runners -= 1
                continue
            if winner is None:
                # "assigns the job to an arbitrary node in case none of
                # the workers submitted their estimates".
                winner = master.arbitrary_worker()
            master.metrics.contest_closed(
                master.sim.now, job, winner, contest.duration, outcome
            )
            master.assign(job, winner)
            if contest.computed:
                # The record must outlive the Assignment's flight: the
                # winner looks up what it promised when the message lands.
                topology = master.topology
                contest.quiet_after = max(
                    contest.quiet_after,
                    master.sim.now + topology.broker.base_latency + topology.latency_of(winner),
                )
            self._busy_runners -= 1
            self._settle()

    def _open(self, job: Job) -> Contest:
        """Open ``job``'s contest: announce it over the broker if the
        individual messages matter (see the module docstring), else
        compute every bid and its timetable in one pass."""
        master = self.master
        metrics, broker = master.metrics, master.topology.broker
        computed = not (self._instant or self.messages_witnessed())
        if computed:
            subs = broker.subscribers(TOPIC_ANNOUNCE)
            if subs != self._subs:
                computed = self._enlist(subs)
        invited = list(master.active_workers)
        contest = Contest(master.sim, job, invited, names=self._names if computed else None)
        # The job's previous contest (a re-contest after a zero-bid
        # window or a re-dispatch): promises made there still stand for
        # bidders this one does not reach.
        contest.previous = self.contests.get(job.job_id)
        if contest.previous is not None:
            contest.attempt = contest.previous.attempt + 1
        self.contests[job.job_id] = contest
        self.open_contests += 1
        metrics.contest_opened(master.sim.now, job)
        if computed:
            self._compute(contest)
        else:
            master.broadcast(JobAnnouncement(job=job, attempt=contest.attempt))
        return contest

    # -- computed contests: one timer, the rest read off the planes -----------

    def _enlist(self, subs: list) -> bool:
        """Rebuild the row cache for a changed set of announce
        subscribers, giving first-time bidders their plane row.
        ``False`` if their bids take no time (nothing is enlisted then:
        such contests always run over the broker)."""
        bidders = [sub.owner for sub in subs]
        if any(bidder.bid_compute_s <= 0 for bidder in bidders):
            self._instant = True
            return False
        planes, known = self.planes, self.master.metrics.workers
        for bidder in bidders:
            if bidder.row < 0:
                bidder.enlist(self, planes.add(bidder))
                if bidder.worker.name not in known:
                    self._fresh.add(bidder.row)
        rows = [bidder.row for bidder in bidders]
        self._subs = subs
        self._names = [sub.name for sub in subs]
        self._name_set = frozenset(self._names)
        self._everyone = np.ones(len(subs), dtype=bool)
        if rows == list(range(len(rows))):
            self._rows, self._lookup = slice(0, len(rows)), None
        else:
            self._rows = np.array(rows, dtype=np.intp)
            self._lookup = np.full(len(planes), -1, dtype=np.intp)
            self._lookup[self._rows] = np.arange(len(rows))
        return True

    @staticmethod
    def _row(contest: Contest, bidder_row: int) -> int:
        """The contest row of plane row ``bidder_row`` (-1 if absent)."""
        if contest.lookup is None:
            return bidder_row if bidder_row < contest.rows.stop else -1
        return int(contest.lookup[bidder_row]) if bidder_row < len(contest.lookup) else -1

    def _compute(self, contest: Contest) -> None:
        """Every enlisted bidder's bid for ``contest.job`` and when it is
        taken up, priced and delivered, from the planes as they stand."""
        sim = self.master.sim
        planes, rows = self.planes, self._rows
        contest.invited = self._everyone
        if contest.expected != self._name_set:
            contest.invited = np.fromiter(
                (name in contest.expected for name in self._names),
                dtype=bool,
                count=len(self._names),
            )
        contest.rows, contest.lookup = rows, self._lookup
        (
            contest.workload,
            contest.transfer,
            contest.processing,
            contest.own,
            contest.cost,
        ) = planes.estimate(rows, contest.job)
        contest.dequeue, contest.evaluate, contest.arrive, contest.valid = planes.schedule(
            rows, sim.now, self._reply_delay
        )
        # (An upper bound: it only says when the contest can be forgotten.)
        contest.quiet_after = float(contest.arrive.max(initial=-np.inf))
        contest.timer = None
        for bidder_row in sorted(self._fresh):
            # Per-worker sums run in metrics-block creation order, and a
            # bidder's block is created by its first bid: that one bid
            # gets a wake-up of its own.
            row = self._row(contest, bidder_row)
            if row >= 0 and contest.valid[row]:
                sim.call_at(float(contest.arrive[row]), self._first_bid, contest, row, bidder_row)
        self._live.append(contest)
        self._arm(contest)

    def _first_bid(self, contest: Contest, row: int, bidder_row: int) -> None:
        if contest.valid[row] and not self._retired:
            self._fresh.discard(bidder_row)
            self.master.metrics.worker(contest.names[row])

    def _arm(self, contest: Contest) -> None:
        """(Re)arm the contest's timer for the instant it can close early:
        when the last invited bid lands, or the first unbeatable one."""
        if contest.status is ContestStatus.CLOSED or contest.all_bids.triggered:
            return
        sim = self.master.sim
        pool = contest.valid & contest.invited
        bidders = int(np.count_nonzero(pool))
        when = np.inf
        if bidders and bidders == len(contest.expected):
            when = contest.arrive[pool].max()
        if self.fast_local_close:
            idle = pool & (contest.workload == 0.0) & (contest.transfer == 0.0)
            if idle.any():
                when = min(when, contest.arrive[idle].min())
        if when <= sim.now:
            self._collect(contest)
        elif when < contest.opened_at + self.window_s:
            contest.timer = sim.call_at(
                float(when), self._collect, contest, handle=contest.timer
            )
        elif contest.timer is not None:
            contest.timer.cancel()

    def _collect(self, contest: Contest, before_now: bool = False) -> None:
        """Count the bids that have landed by (or strictly ``before_now``)
        this instant: timer callback, and the last thing before the
        contest closes."""
        now = self.master.sim.now
        landed = contest.arrive < now if before_now else contest.arrive <= now
        contest.collect(contest.valid & landed)
        if (
            self.fast_local_close
            and contest.status is ContestStatus.OPEN
            and not contest.fast_close.triggered
        ):
            idle = np.flatnonzero(
                contest.counted & (contest.workload == 0.0) & (contest.transfer == 0.0)
            )
            if idle.size:
                self.fast_closes += 1
                first = idle[np.argmin(contest.arrive[idle])]
                contest.fast_close.succeed(contest.names[first])

    def _settle(self, everything: bool = False) -> None:
        """Forget the computed contests that are over (``everything``:
        all of them, as far as they got): their bids go into the arrival
        counters, and a finished job's contest leaves the map."""
        now = self.master.sim.now
        keep = []
        for contest in self._live:
            closed = contest.status is ContestStatus.CLOSED
            if not everything and (not closed or contest.quiet_after > now):
                keep.append(contest)
                continue
            landed = contest.valid & (contest.arrive <= now)
            self.planes.bids[contest.rows] += landed
            if closed:
                contest.collect(landed)  # the stragglers, as late bids
            contest.live = False
            if contest.job_done and self.contests.get(contest.job.job_id) is contest:
                del self.contests[contest.job.job_id]
                self._rebids.discard(contest.job.job_id)
        self._live = keep

    def flush(self) -> None:
        """Bring ``WorkerMetrics.bids_submitted`` up to date with every
        bid that has landed by now (end of run, hand-over to a successor
        policy)."""
        if self._retired:
            return
        self._settle(everything=True)
        bids = self.planes.bids
        for row in np.flatnonzero(bids):
            name = self.planes.bidders[row].worker.name
            self.master.metrics.worker(name).bids_submitted += int(bids[row])
        bids[:] = 0

    # -- what enlisted bidders report (see BiddingWorkerPolicy) ----------------

    def reprice(self, bidder: "BiddingWorkerPolicy") -> None:
        """``bidder``'s state just changed: re-price its bids not yet
        evaluated from the new state, with its scalar estimator.

        A bid due at this very instant keeps its price.  Its wake-up was
        scheduled when the bid thread took the announcement up, a bid's
        computing time ago, so it runs ahead of everything scheduled at
        this instant itself -- which the handling of a message that just
        arrived, and whatever that sets off, always is.
        """
        now = self.master.sim.now
        for contest in self._live:
            row = self._row(contest, bidder.row)
            if row < 0 or not contest.valid[row] or contest.evaluate[row] <= now:
                continue
            estimate, own = bidder.price(contest.job)
            contest.workload[row] = estimate.workload_s
            contest.transfer[row] = estimate.transfer_s
            contest.processing[row] = estimate.processing_s
            contest.own[row] = own
            contest.cost[row] = estimate.workload_s + own
            if self.fast_local_close:
                self._arm(contest)

    def silence(self, bidder: "BiddingWorkerPolicy", plane: str) -> None:
        """``bidder`` stops bidding: its bids whose ``plane`` time
        (``evaluate`` for a killed node, ``dequeue`` for one that starts
        draining or is hot-swapped out and only abandons its mailbox)
        has not come will never be sent."""
        now = self.master.sim.now
        for contest in self._live:
            row = self._row(contest, bidder.row)
            if row >= 0 and contest.valid[row] and getattr(contest, plane)[row] > now:
                contest.valid[row] = False
                self._arm(contest)

    def promise(self, bidder: "BiddingWorkerPolicy", job_id: str, since: float):
        """The own-cost ``bidder`` last bid for ``job_id`` after
        ``since``, or ``None`` if it made no such bid."""
        now = self.master.sim.now
        contest = self.contests.get(job_id)
        while contest is not None:
            if contest.computed:
                row = self._row(contest, bidder.row)
                if row >= 0 and contest.valid[row] and since < contest.evaluate[row] <= now:
                    return float(contest.own[row])
            contest = contest.previous
        return None


class BiddingWorkerPolicy(WorkerPolicy):
    """Listing 2: estimate-and-bid on the worker.

    The worker subscribes to the announce topic.  When the master-side
    policy announces over the broker, announcements land in
    :meth:`deliver` and the bid thread -- :meth:`_take`, :meth:`_bid`,
    one scheduling hop or one computing time apart -- answers them one
    by one.  When it computes the contests itself it finds this policy
    through the subscription, gives it a row of
    :class:`~repro.fleet.BidPlanes` (:meth:`enlist`) and reads the bids
    from there; every change to what the node would bid (queue, running
    job, cache, measured speeds, learned correction) then rewrites the
    row from the node's own state and re-prices the bids not yet
    evaluated.
    """

    def __init__(
        self,
        speed_model: Optional[SpeedModel] = None,
        count_pending_downloads: bool = True,
        bid_compute_s: float = DEFAULT_BID_COMPUTE_S,
        corrector: Optional[BidCorrector] = None,
    ) -> None:
        super().__init__()
        self.speed_model = speed_model or NominalSpeedModel()
        self.count_pending_downloads = count_pending_downloads
        if bid_compute_s < 0:
            raise ValueError("bid_compute_s must be non-negative")
        #: Simulated cost of *computing* a bid at CPU factor 1.0; divided
        #: by the worker's CPU factor at bid time.  The paper runs bidding
        #: "handled by a separate thread", so this cost delays only the
        #: bid, never job execution -- but the thread is serial: an
        #: announcement that arrives while a bid is being computed waits.
        self.bid_compute_s = bid_compute_s
        #: Optional estimate-vs-actual learning loop (future-work
        #: extension; see :class:`repro.core.adaptive.BidCorrector`).
        self.corrector = corrector
        self.estimator: Optional[CostEstimator] = None
        self._subscription = None
        #: The bid thread's mailbox: announcements not yet taken up.
        self._mailbox: Optional[Mailbox] = None
        #: job_id -> own cost we last bid over the broker.
        self._promised: dict[str, float] = {}
        #: The master-side policy computing our bids, if it does, and the
        #: plane row it reads them from.
        self.contests: Optional[BiddingMasterPolicy] = None
        self.row = -1
        #: The scalars last written to our row (a change that leaves them
        #: and the locality bits alone re-prices nothing).
        self._state: tuple = ()
        #: job_id -> when we last took up (or finished) the job: a bid
        #: computed for us before that is no longer a standing promise.
        self._settled: dict[str, float] = {}
        #: job_id -> committed cost of jobs we won (kept until completion
        #: so the learning loop can compare promise vs. actual).
        self._won: dict[str, float] = {}

    def bind(self, worker) -> None:
        super().bind(worker)
        self.estimator = CostEstimator(
            worker,
            speed_model=self.speed_model,
            count_pending_downloads=self.count_pending_downloads,
        )

    def start(self) -> None:
        worker = self.worker
        self._subscription = worker.topology.subscribe(TOPIC_ANNOUNCE, worker.name)
        self._subscription.owner = self
        self._mailbox = Mailbox(worker.sim, self._take, parked=True)

    def price(self, job: Job) -> tuple:
        """``(estimate, own cost)``: one bid."""
        estimate = self.estimator.estimate(job)
        own_cost = estimate.own_cost_s
        if self.corrector is not None:
            own_cost = self.corrector.correct(own_cost)
        return estimate, own_cost

    # -- the bid thread (announcements over the broker) ---------------------------

    def deliver(self, message: JobAnnouncement) -> None:
        """An announcement reached our mailbox (broker callback)."""
        self._mailbox.deliver(message)

    def _take(self, announcement: JobAnnouncement) -> bool:
        """The bid thread takes the next announcement off the mailbox;
        true while it is busy with it (or has exited for good)."""
        worker = self.worker
        if worker.policy is not self or not worker.alive:
            return True
        if worker.draining:
            # Scale-down: a draining worker abstains.  The contest's
            # invited set no longer includes it (the master retires the
            # name before the drain flag is set), so the silence cannot
            # stall the window-close condition.
            return False
        if self.bid_compute_s > 0:
            worker.sim.call_later(
                self.bid_compute_s / worker.spec.cpu_factor, self._bid, announcement
            )
        else:
            self._bid(announcement)
        return True

    def _bid(self, announcement: JobAnnouncement) -> None:
        worker, job = self.worker, announcement.job
        if self.bid_compute_s > 0 and not worker.alive:
            return
        estimate, own_cost = self.price(job)
        self._promised[job.job_id] = own_cost
        worker.send_to_master(
            Bid(
                job_id=job.job_id,
                worker=worker.name,
                cost_s=estimate.workload_s + own_cost,
                breakdown=(estimate.workload_s, estimate.transfer_s, estimate.processing_s),
                attempt=announcement.attempt,
            )
        )
        self._mailbox.next()

    # -- our plane row (contests computed by the master-side policy) --------------

    def enlist(self, contests: BiddingMasterPolicy, row: int) -> None:
        """The master-side policy gave us plane row ``row``: fill it, and
        keep it current from now on."""
        self.contests, self.row = contests, row
        worker = self.worker
        planes, spec = contests.planes, worker.spec
        planes.announce_delay[row] = (
            worker.topology.broker.base_latency + self._subscription.latency
        )
        planes.compute_s[row] = self.bid_compute_s / spec.cpu_factor
        planes.cpu[row] = spec.cpu_factor
        planes.link_latency[row] = spec.link_latency
        planes.draining[row] = worker.draining
        planes.corrected = planes.corrected or self.corrector is not None
        worker.cache.observer = _CacheTap(self, worker.cache.observer)
        held = (
            worker.pending_repos()
            if self.count_pending_downloads
            else worker.cache.contents()
        )
        self._write_row(held)

    def _write_row(self, repos=()) -> bool:
        """Rewrite our plane row from the node's own state; ``repos``
        are the repositories whose locality may have changed.  Returns
        whether anything a bid depends on did change."""
        planes, row, worker = self.contests.planes, self.row, self.worker
        state = (
            worker.committed_cost(),
            self.speed_model.network_mbps(worker),
            self.speed_model.rw_mbps(worker),
            self.corrector.factor if self.corrector is not None else 1.0,
        )
        changed = state != self._state
        if changed:
            self._state = state
            planes.committed[row], planes.network[row], planes.rw[row], planes.factor[row] = state
        for repo_id in repos:
            if repo_id is not None:
                held = self.estimator.holds(repo_id)
                if held != planes.local.test(row, repo_id):
                    planes.local.set(row, repo_id, held)
                    changed = True
        return changed

    def on_state_changed(self, repos=()) -> None:
        """Rewrite our row and re-price what is not yet evaluated."""
        if self.contests is not None and self._write_row(repos):
            self.contests.reprice(self)

    # -- WorkerPolicy hooks ------------------------------------------------------

    def on_killed(self) -> None:
        # Eager unsubscribe: a restarted replacement subscribes under the
        # same name and must not be shadowed by the dead incarnation (the
        # fuzzer's fifo-per-pair monitor caught exactly this).  Also the
        # hot-swap detach, where the node lives on: then only the
        # announcements still in our mailbox go unanswered -- a bid
        # already being computed is sent.
        worker = self.worker
        if self._subscription is not None:
            worker.topology.broker.unsubscribe(self._subscription)
            self._subscription = None
            if self.contests is not None:
                worker.cache.observer = worker.cache.observer.inner
                self.contests.silence(self, "dequeue" if worker.alive else "evaluate")

    def on_drain(self) -> None:
        if self.contests is not None:
            self.contests.planes.draining[self.row] = True
            self.contests.silence(self, "dequeue")

    def on_message(self, message: object) -> bool:
        """Winning assignment: queue the job, committing the promised cost."""
        if not isinstance(message, Assignment):
            return False
        job = message.job
        promised = self._promised.pop(job.job_id, None)
        if self.contests is not None:
            if promised is None:
                promised = self.contests.promise(
                    self, job.job_id, self._settled.get(job.job_id, -np.inf)
                )
            self._settled[job.job_id] = self.worker.sim.now
        if promised is None:
            # Fallback assignment without a prior bid (e.g. we were late);
            # commit a fresh estimate instead.
            promised = self.estimator.estimate(job).own_cost_s
        self._won[job.job_id] = promised
        self.worker.enqueue(job, promised)
        self.on_state_changed((job.repo_id,))
        return True

    def on_job_finished(self, job: Job, elapsed_s: float = 0.0) -> None:
        """Release the commitment and feed the learning loop, if any."""
        self._promised.pop(job.job_id, None)
        if self.contests is not None:
            self._settled[job.job_id] = self.worker.sim.now
        promised = self._won.pop(job.job_id, None)
        if self.corrector is not None and promised is not None:
            self.corrector.observe(promised, elapsed_s)
        self.on_state_changed((job.repo_id,))


class _CacheTap:
    """Cache-membership observer that tells the bidder, after passing
    the notification on to whoever observed the cache before it."""

    __slots__ = ("bidder", "inner")

    def __init__(self, bidder: BiddingWorkerPolicy, inner) -> None:
        self.bidder = bidder
        self.inner = inner

    def on_insert(self, repo_id: str) -> None:
        if self.inner is not None:
            self.inner.on_insert(repo_id)
        self.bidder.on_state_changed((repo_id,))

    def on_evict(self, repo_id: str) -> None:
        if self.inner is not None:
            self.inner.on_evict(repo_id)
        self.bidder.on_state_changed((repo_id,))

    def on_clear(self) -> None:
        if self.inner is not None:
            self.inner.on_clear()
        bidder = self.bidder
        bidder.contests.planes.local.clear_row(bidder.row)
        bidder.on_state_changed(bidder.worker.pending_repos())


def make_bidding_policy(
    window_s: float = DEFAULT_WINDOW_S,
    max_concurrent_contests: int = 1,
    speed_model_factory: Optional[Callable[[], SpeedModel]] = None,
    count_pending_downloads: bool = True,
    bid_compute_s: float = DEFAULT_BID_COMPUTE_S,
    fast_local_close: bool = False,
    adaptive: bool = False,
) -> SchedulerPolicy:
    """Package the Bidding Scheduler for the engine/registry.

    ``fast_local_close`` and ``adaptive`` enable the two future-work
    extensions (Section 7); both default to the paper's protocol.
    """
    factory = speed_model_factory or NominalSpeedModel
    return SchedulerPolicy(
        name="bidding",
        master_factory=lambda: BiddingMasterPolicy(
            window_s=window_s,
            max_concurrent_contests=max_concurrent_contests,
            fast_local_close=fast_local_close,
        ),
        worker_factory=lambda: BiddingWorkerPolicy(
            speed_model=factory(),
            count_pending_downloads=count_pending_downloads,
            bid_compute_s=bid_compute_s,
            corrector=BidCorrector() if adaptive else None,
        ),
    )
