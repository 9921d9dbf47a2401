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

Contests are columnar
---------------------
The protocol *modelled* is per worker and per message -- broadcast,
per-node latency, a serial bid thread on every worker, one bid message
each, the window, dead-bidder exclusion.  It is *executed* in one pass:
when a contest opens, the master-side policy computes from
:class:`~repro.fleet.BidPlanes`, for every listening bidder at once,
when the announcement reaches it, when its bid is evaluated, when that
bid reaches the master and what it says.  Each worker's scalar code
writes its own row whenever its state changes and re-prices its bids
not yet evaluated, so a bid always reflects the state at its own
evaluation instant.  When nothing can witness individual messages one
timer per contest fires at the instant it can close and everything else
is read off the planes; when something can (trace, monitors, obs, a
lossy or partitioned broker) the same planes are *stepped* through
every announce arrival and evaluation, each bid crossing the broker as
a real :class:`~repro.engine.messages.Bid`.  ARCHITECTURE.md section 12
has the full account.
"""

from __future__ import annotations

import itertools
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
        #: kept while a bid can still land or the job can still be
        #: (re)assigned: late bids are absorbed as ``late_bids`` and a
        #: migrated job still finds what its new owner promised.
        self.contests: dict[str, Contest] = {}
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
        #: What every bidder would bid with (see the module docstring).
        self.planes = BidPlanes()
        #: The announce subscriptions the row cache below was built for.
        self._subs: list = []
        self._rows = slice(0, 0)
        self._lookup: Optional[np.ndarray] = None
        self._names: list[str] = []
        self._name_set: frozenset = frozenset()
        self._everyone = np.ones(0, dtype=bool)
        #: Contests with a bid still to be evaluated / whose bid arrivals
        #: are not yet in the counters / whose job is done but whose last
        #: bid is not.
        self._evaluating: list[Contest] = []
        self._unflushed: list[Contest] = []
        self._lingering: list[Contest] = []
        #: Bidder rows that never had a bid land (no metrics block yet).
        self._fresh: set[int] = set()
        self._counting = False
        #: Stepped contests with entries left, their one timer, and the
        #: (instant, wake count at that instant) of its last wake.
        self._stepped: list[Contest] = []
        self._stepper = None
        self._hop = (-np.inf, 0)
        self._retired = False
        #: (instant, contests closed at that instant): orders the
        #: ``Assignment`` and announcement publishes of one instant.
        self._closes = (-np.inf, 0)
        self._ticks = itertools.count()

    def start(self) -> None:
        master = self.master
        self._pending = Store(master.sim)
        for index in range(self.max_concurrent_contests):
            master.sim.process(self._contest_runner(), name=f"contest-runner-{index}")
        broker = master.topology.broker
        self._reply_delay = broker.base_latency + master.inbox.latency
        broker.on_conditions_change = self._step_from_now
        master.metrics.before_new_worker = self._count_landed
        master.metrics.before_run_finished = self.flush

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
        if contest is None:
            # Not a job we announced.  After a bidding -> bidding hot-swap
            # this is the predecessor's residue, which the master drops;
            # anywhere else the master reports it as unhandled.
            return False
        self.master.metrics.bid_received(
            self.master.sim.now, message.job_id, message.worker, message.cost_s
        )
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
                if contest.stepping:
                    contest.exclude(worker)
                else:
                    self._collect(contest)  # who has bid so far
                    contest.exclude(worker)
                    self._arm(contest)

    def on_job_completed(self, job: Job, worker: str) -> None:
        """The job can no longer be reassigned: its contest record goes
        as soon as no bid for it can still land."""
        contest = self.contests.get(job.job_id)
        if contest is not None:
            self._lingering.append(contest)

    def decision_context(self, job: Job, worker: str) -> tuple:
        """Ledger: the closed contest's bids are the candidate scores."""
        from repro.obs.ledger import CandidateScore

        contest = self.contests.get(job.job_id)
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
        turn = None
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
            contest = self._open(job, turn)
            window = master.sim.timeout(self.window_s)
            yield AnyOf(master.sim, [window, contest.all_bids, contest.fast_close])
            if not contest.stepping:
                self._collect(contest)
                if contest.timer is not None:
                    contest.timer.cancel()
            outcome = contest.close()
            contest.closed_tick, turn = self._take_turn(contest)
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
            # The record must outlive the Assignment's flight: the winner
            # looks up what it promised when the message lands.
            topology = master.topology
            contest.quiet_after = max(
                contest.quiet_after,
                master.sim.now + topology.broker.base_latency + topology.latency_of(winner),
            )
            self._busy_runners -= 1
            self._settle()

    def _take_turn(self, contest: Contest) -> tuple:
        """``(closing tick, tick of the contest this runner opens next)``:
        orders the ``Assignment`` this closing publishes against the
        announcements of the same instant, the way the per-worker
        protocol's wake-ups would.  Contests completed by bids the master
        handles one after another resume their runners a scheduling hop
        apart (each closes, assigns and reopens before the next closes);
        window expiries resume them in one hop (all close before any
        opens).  Stepped contests are woken exactly like that and only
        count; columnar ones, woken by their own timers, say which of the
        two it would have been.
        """
        now = self.master.sim.now
        rank = self._closes[1] if self._closes[0] == now else 0
        self._closes = (now, rank + 1)
        if contest.stepping:
            return (now, next(self._ticks), 0), None
        if contest.all_bids.triggered or contest.fast_close.triggered:
            return (now, rank, 0), (now, rank, 1)
        return (now, 0, rank), (now, 1, rank)

    # -- opening a contest: every bid and its timetable in one pass -----------

    def _open(self, job: Job, turn: tuple) -> Contest:
        master = self.master
        sim = master.sim
        broker = master.topology.broker
        subs = broker.subscribers(TOPIC_ANNOUNCE)
        if subs != self._subs:
            self._enlist(subs)
        planes, rows = self.planes, self._rows
        contest = Contest(sim, job, list(master.active_workers), names=self._names)
        contest.invited = self._everyone
        if contest.expected != self._name_set:
            contest.invited = np.fromiter(
                (name in contest.expected for name in self._names),
                dtype=bool,
                count=len(self._names),
            )
        contest.rows, contest.lookup = rows, self._lookup
        #: The job's previous contest (a re-contest after a zero-bid
        #: window or a re-dispatch): promises made there still stand for
        #: bidders this one does not reach.
        contest.previous = self.contests.get(job.job_id)
        if turn is None or turn[0] != sim.now:
            turn = (sim.now, next(self._ticks), 0)
        contest.opened_tick = turn
        self.contests[job.job_id] = contest
        self.open_contests += 1
        master.metrics.contest_opened(sim.now, job)
        (
            contest.workload,
            contest.transfer,
            contest.processing,
            contest.own,
            contest.cost,
        ) = planes.estimate(rows, job)
        metrics = master.metrics
        contest.stepping = (
            metrics.trace.enabled
            or metrics.monitor is not None
            or broker.monitor is not None
            or broker.obs is not None
            or broker.degraded
        )
        contest.heard = self._everyone
        if contest.stepping:
            contest.subs = self._subs
            contest.message = JobAnnouncement(job=job)
            broker.notify_publish(TOPIC_ANNOUNCE, contest.message, master.name)
            if broker.degraded:
                contest.heard = np.fromiter(
                    (broker.admits(sub, master.name) for sub in subs),
                    dtype=bool,
                    count=len(subs),
                )
        (
            contest.heard_at,
            contest.dequeue,
            contest.evaluate,
            contest.arrive,
            contest.valid,
        ) = planes.schedule(rows, sim.now, contest.heard, self._reply_delay)
        # (Upper bounds: they only say when the contest can be forgotten.)
        contest.last_evaluate = float(contest.evaluate.max(initial=-np.inf))
        contest.quiet_after = contest.last_evaluate + self._reply_delay
        contest.timer = None
        contest.counted_upto = -np.inf
        self._evaluating.append(contest)
        if contest.stepping:
            self._step_after(contest, -np.inf)
        else:
            self._unflushed.append(contest)
            self._arm(contest)
        return contest

    def _enlist(self, subs: list) -> None:
        """Rebuild the row cache for a changed set of announce
        subscribers, giving first-time bidders their plane row."""
        planes = self.planes
        rows = []
        for sub in subs:
            bidder = sub.owner
            if bidder.row < 0:
                row = planes.add(bidder)
                bidder.enlist(self, row)
                if bidder.worker.name not in self.master.metrics.workers:
                    self._fresh.add(row)
            rows.append(bidder.row)
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

    @staticmethod
    def _row(contest: Contest, bidder_row: int) -> int:
        """The contest row of plane row ``bidder_row`` (-1 if absent)."""
        if contest.lookup is None:
            return bidder_row if bidder_row < contest.rows.stop else -1
        return int(contest.lookup[bidder_row]) if bidder_row < len(contest.lookup) else -1

    # -- unwitnessed: one timer per contest, the rest read off the planes -----

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

    def _collect(self, contest: Contest) -> None:
        """Count the bids that have landed by now (timer callback, and
        the last thing before the contest closes)."""
        if self._fresh:
            self._count_landed()
        contest.collect(contest.valid & (contest.arrive <= self.master.sim.now))
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

    def _count_landed(self) -> None:
        """Add the bids landed since the last count to the arrival
        counters; contests with nothing more to land drop out.

        Bidders whose first bid has landed get their metrics block here,
        in landing order: the collector's per-worker sums run in block
        creation order, and it calls this before creating a block for
        anyone else, so that order is exactly the per-message one.
        """
        if self._counting or self._retired:
            return
        self._counting = True
        now = self.master.sim.now
        keep, firsts = [], []
        for order, contest in enumerate(self._unflushed):
            landed = contest.valid & (contest.arrive <= now)
            self.planes.bids[contest.rows] += landed & (contest.arrive > contest.counted_upto)
            contest.counted_upto = now
            for bidder_row in self._fresh:
                row = self._row(contest, bidder_row)
                if row >= 0 and landed[row]:
                    firsts.append((contest.arrive[row], order, bidder_row))
            if contest.status is ContestStatus.CLOSED:
                contest.collect(landed)
            if contest.status is ContestStatus.OPEN or contest.quiet_after > now:
                keep.append(contest)
        self._unflushed = keep
        for _when, _order, bidder_row in sorted(firsts):
            if bidder_row in self._fresh:
                self._fresh.discard(bidder_row)
                self.master.metrics.worker(self.planes.bidders[bidder_row].worker.name)
        self._counting = False

    def _settle(self) -> None:
        """Forget what is over: evaluated contests stop being re-priced,
        fully landed ones go into the bid counters, and a finished job's
        contest leaves the map."""
        now = self.master.sim.now
        if self._evaluating and self._evaluating[0].last_evaluate < now:
            self._evaluating = [c for c in self._evaluating if c.last_evaluate >= now]
        if self._unflushed and self._unflushed[0].quiet_after <= now:
            self._count_landed()
        if self._lingering:
            keep = []
            for contest in self._lingering:
                if contest.status is ContestStatus.OPEN or contest.quiet_after > now:
                    keep.append(contest)
                elif self.contests.get(contest.job.job_id) is contest:
                    del self.contests[contest.job.job_id]
                    self._rebids.discard(contest.job.job_id)
            self._lingering = keep

    def flush(self) -> None:
        """Bring ``WorkerMetrics.bids_submitted`` up to date with every
        bid that has landed by now (end of run, hand-over to a successor
        policy)."""
        if self._retired:
            return
        self._count_landed()
        bids = self.planes.bids
        for row in np.flatnonzero(bids):
            name = self.planes.bidders[row].worker.name
            self.master.metrics.bids_landed(name, int(bids[row]))
        bids[:] = 0

    # -- witnessed: the same planes, stepped one entry at a time ---------------

    def _step_from_now(self) -> None:
        """The broker is about to degrade (partition, loss window): from
        here on bids must cross it one by one.  Settle what has landed
        and step the rest."""
        if self._retired:
            return
        sim = self.master.sim
        self._count_landed()
        for contest in self._unflushed:
            arrived = contest.valid & (contest.arrive <= sim.now)
            if contest.status is ContestStatus.OPEN:
                self._collect(contest)
            if contest.timer is not None:
                contest.timer.cancel()
            in_flight = contest.valid & (contest.evaluate <= sim.now) & ~arrived
            for row in np.flatnonzero(in_flight):
                sim.call_at(float(contest.arrive[row]), self._land, contest.bid_of(row))
            contest.stepping = True
            contest.message = None
            self._step_after(contest, sim.now)
        self._unflushed = []

    def _land(self, bid: Bid) -> None:
        if self.master.policy is self:
            self.on_message(bid)

    def _step_after(self, contest: Contest, after: float) -> None:
        """Queue the contest's announce arrivals (phase 0) and bid
        evaluations (phase 1) later than ``after`` for the stepper, as
        ``(time, phase, row)`` in time order."""
        heard_at, evaluate = contest.heard_at.tolist(), contest.evaluate.tolist()
        # An arrival nobody observes only matters as the hop before a bid
        # evaluated at the same instant.
        broker = self.master.topology.broker
        observed = contest.message is not None and (
            broker.monitor is not None or broker.obs is not None
        )
        steps = [
            (when, 0, row)
            for row, (when, heard) in enumerate(zip(heard_at, contest.heard.tolist()))
            if heard and when > after and (observed or when == evaluate[row])
        ]
        steps += [
            (when, 1, row)
            for row, (when, valid) in enumerate(zip(evaluate, contest.valid.tolist()))
            if valid and when > after
        ]
        steps.sort()
        contest.steps = steps
        contest.stepped_upto = 0
        if contest.steps:
            self._stepped.append(contest)
            self._rearm(min(c.steps[c.stepped_upto][0] for c in self._stepped))

    def _rearm(self, when: float) -> None:
        stepper = self._stepper
        if not (stepper is not None and stepper.active and stepper.when <= when):
            self._stepper = self.master.sim.call_at(when, self._step, handle=stepper)

    def _step(self) -> None:
        """Timer callback: deliver the announcements that reach a bidder
        now and publish the bids evaluated now, contests in opening order.

        A bid thread takes one scheduling hop per step -- it evaluates a
        hop after an announcement reaches its idle mailbox, or a hop
        after its previous bid -- and whatever else reaches the node at
        the same instant (the previous job's ``Assignment``) is handled
        in between: a bid due in the same hop as its bidder's last step
        waits for the next wake at this instant.
        """
        now = self.master.sim.now
        broker = self.master.topology.broker
        hop = self._hop = (now, self._hop[1] + 1 if self._hop[0] == now else 1)
        bidders = self.planes.bidders
        following = np.inf
        for contest in self._stepped:
            steps, upto = contest.steps, contest.stepped_upto
            while upto < len(steps):
                when, phase, row = steps[upto]
                if when > now:
                    following = min(following, when)
                    break
                bidder = bidders[row if contest.lookup is None else contest.rows[row]]
                if phase == 0:
                    if contest.message is not None:
                        broker.notify_deliver(contest.subs[row], contest.message)
                elif contest.valid[row]:
                    if bidder.stepped >= hop:
                        following = now
                        break
                    bidder.worker.send_to_master(contest.bid_of(row))
                bidder.stepped = hop
                upto += 1
            contest.stepped_upto = upto
        self._stepped = [c for c in self._stepped if c.stepped_upto < len(c.steps)]
        if self._stepped:
            self._rearm(following)

    # -- what bidders report (see BiddingWorkerPolicy) -------------------------

    def reprice(
        self,
        bidder: "BiddingWorkerPolicy",
        by_main_loop: bool = False,
        assigned: Optional[str] = None,
    ) -> None:
        """``bidder``'s state just changed: re-price its bids not yet
        evaluated from the new state, with its scalar estimator.

        Bids due later always are.  Bids due at this very instant are
        evaluated one scheduling hop apart, in contest order, while the
        node's main loop handles this instant's messages one hop apart
        too; who goes first in a hop is who was published first, the
        ``assigned`` job's ``Assignment`` or the first of those
        announcements.  So the main loop's ``k``-th change this instant
        (``by_main_loop``) precedes all but the first ``k - 1``
        (``Assignment`` first) or ``k`` (announcement first) of those
        bids, and any other change (the executor picking up the job just
        enqueued) comes right after the main loop's last.
        """
        now = self.master.sim.now
        seen, lead = bidder.ahead[1:] if bidder.ahead[0] == now else (0, None)
        due_now = 0
        for contest in self._evaluating:
            if contest.last_evaluate < now:
                continue
            row = self._row(contest, bidder.row)
            if row < 0 or not contest.valid[row] or contest.evaluate[row] < now:
                continue
            if contest.evaluate[row] == now:
                if lead is None:
                    closed = self.contests.get(assigned)
                    lead = int(
                        closed is not None
                        and closed.status is ContestStatus.CLOSED
                        and closed.closed_tick > contest.opened_tick
                    )
                due_now += 1
                if not (by_main_loop or seen) or due_now <= seen + lead:
                    continue
            estimate, own = bidder.price(contest.job)
            contest.workload[row] = estimate.workload_s
            contest.transfer[row] = estimate.transfer_s
            contest.processing[row] = estimate.processing_s
            contest.own[row] = own
            contest.cost[row] = estimate.workload_s + own
            if self.fast_local_close and not contest.stepping:
                self._arm(contest)
        if by_main_loop:
            bidder.ahead = (now, seen + 1, lead)

    def silence(self, bidder: "BiddingWorkerPolicy", plane: str) -> None:
        """``bidder`` stops bidding: its bids whose ``plane`` time
        (``evaluate`` for a killed node, ``dequeue`` for one that starts
        draining or is hot-swapped out and only abandons its mailbox)
        has not come will never be sent."""
        now = self.master.sim.now
        for contest in self._evaluating:
            row = self._row(contest, bidder.row)
            if row >= 0 and contest.valid[row] and getattr(contest, plane)[row] > now:
                contest.valid[row] = False
                if not contest.stepping:
                    self._arm(contest)

    def promise(self, bidder: "BiddingWorkerPolicy", job_id: str, since: float):
        """The own-cost ``bidder`` last bid for ``job_id`` after
        ``since``, or ``None`` if it made no such bid."""
        now = self.master.sim.now
        contest = self.contests.get(job_id)
        while contest is not None:
            row = self._row(contest, bidder.row)
            if row >= 0 and contest.valid[row] and since < contest.evaluate[row] <= now:
                return float(contest.own[row])
            contest = contest.previous
        return None


class BiddingWorkerPolicy(WorkerPolicy):
    """Listing 2: estimate-and-bid on the worker.

    The worker does not run a bid loop of its own: it subscribes to the
    announce topic, and the master-side policy -- which finds it through
    that subscription -- computes its bids from its row of
    :class:`~repro.fleet.BidPlanes`.  This class is the row's writer:
    every change to what the node would bid (queue, running job, cache,
    measured speeds, learned correction) rewrites the row from the
    node's own state and re-prices the bids not yet evaluated.
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
        #: The master-side policy computing this worker's bids, and the
        #: plane row it reads them from (set when it first sees us).
        self.contests: Optional[BiddingMasterPolicy] = None
        self.row = -1
        self._subscription = None
        #: The scalars last written to our row (a change that leaves them
        #: and the locality bits alone re-prices nothing).
        self._state: tuple = ()
        #: Stepped contests: the (instant, hop) of our bid thread's last step.
        self.stepped = (-np.inf, 0)
        #: (instant of the node's main loop's last change, how many it
        #: made at that instant, whether a bid went first); see
        #: :meth:`BiddingMasterPolicy.reprice`.
        self.ahead = (-np.inf, 0, None)
        #: job_id -> when we last took up (or finished) the job: a bid
        #: made before that is no longer a standing promise.
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
        worker.cache.observer = _CacheTap(self, worker.cache.observer)

    def enlist(self, contests: BiddingMasterPolicy, row: int) -> None:
        """The master-side policy gave us plane row ``row``: fill it."""
        self.contests, self.row = contests, row
        planes, spec = contests.planes, self.worker.spec
        broker = self.worker.topology.broker
        planes.announce_delay[row] = broker.base_latency + self._subscription.latency
        if self.bid_compute_s > 0:
            planes.compute_s[row] = self.bid_compute_s / spec.cpu_factor
        planes.cpu[row] = spec.cpu_factor
        planes.link_latency[row] = spec.link_latency
        planes.draining[row] = self.worker.draining
        planes.corrected = planes.corrected or self.corrector is not None
        held = (
            self.worker.pending_repos()
            if self.count_pending_downloads
            else self.worker.cache.contents()
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

    def on_state_changed(
        self, repos=(), by_main_loop: bool = False, assigned: Optional[str] = None
    ) -> None:
        """Rewrite our row and re-price what is not yet evaluated
        (``assigned``: the change is that job's ``Assignment``; see
        :meth:`BiddingMasterPolicy.reprice`)."""
        if self.contests is not None and (self._write_row(repos) or by_main_loop):
            self.contests.reprice(self, by_main_loop, assigned)

    def price(self, job: Job) -> tuple:
        """``(estimate, own cost)``: one bid, the scalar way."""
        estimate = self.estimator.estimate(job)
        own_cost = estimate.own_cost_s
        if self.corrector is not None:
            own_cost = self.corrector.correct(own_cost)
        return estimate, own_cost

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
            worker.cache.observer = worker.cache.observer.inner
            self._subscription = None
        if self.contests is not None:
            self.contests.silence(self, "dequeue" if worker.alive else "evaluate")

    def on_drain(self) -> None:
        """Scale-down: a draining worker abstains.  The contest's invited
        set no longer includes it (the master retires the name before
        the drain flag is set), so the silence cannot stall the
        window-close condition."""
        if self.contests is not None:
            self.contests.planes.draining[self.row] = True
            self.contests.silence(self, "dequeue")

    def on_message(self, message: object) -> bool:
        """Winning assignment: queue the job, committing the promised cost."""
        if not isinstance(message, Assignment):
            return False
        job = message.job
        promised = None
        if self.contests is not None:
            promised = self.contests.promise(
                self, job.job_id, self._settled.get(job.job_id, -np.inf)
            )
        if promised is None:
            # Fallback assignment without a prior bid (e.g. we were late);
            # commit a fresh estimate instead.
            promised = self.estimator.estimate(job).own_cost_s
        self._settled[job.job_id] = self.worker.sim.now
        self._won[job.job_id] = promised
        self.worker.enqueue(job, promised)
        self.on_state_changed((job.repo_id,), by_main_loop=True, assigned=job.job_id)
        return True

    def on_job_finished(self, job: Job, elapsed_s: float = 0.0) -> None:
        """Release the commitment and feed the learning loop, if any."""
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
        if bidder.contests is not None:
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
