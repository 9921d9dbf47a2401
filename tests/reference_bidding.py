"""Reference oracle: the per-worker bidding protocol, kept in tests only.

This is the Bidding Scheduler as it ran before contests went columnar:
one ``_bid_loop`` process per worker parked on an announce mailbox, one
:class:`~repro.engine.messages.Bid` message per (job, worker) through
the broker, bids collected in a per-contest dict.  It is slow and
obviously faithful to Listings 1-2, which is its whole job:
``test_contest_differential.py`` registers it as a scheduler and demands
the implementation in :mod:`repro.schedulers.bidding` reproduce it exactly.

Two protocol fixes made since are mirrored here, because they change
what a run does: a bid for a job this policy never announced is left to
the master (hot-swap residue), and a bid carries the ``attempt`` of the
announcement it answers, so a straggler from a job's earlier contest is
a late bid of *that* contest, not an answer to the rerun.
"""

from __future__ import annotations

from typing import Optional

from reference_sim import AnyOf, Event, Process, Store, Timeout, inbox
from repro.core.adaptive import BidCorrector
from repro.schedulers.bidding import DEFAULT_BID_COMPUTE_S, DEFAULT_WINDOW_S
from repro.core.estimator import CostEstimator
from repro.core.learning import NominalSpeedModel
from repro.engine.messages import TOPIC_ANNOUNCE, Assignment, Bid, JobAnnouncement
from repro.schedulers.base import MasterPolicy, SchedulerPolicy, WorkerPolicy
from repro.workload.job import Job


class ReferenceContest:
    """One job's bidding round: a dict of bids and two trigger events."""

    def __init__(self, sim, job: Job, expected_workers: list[str]) -> None:
        self.sim = sim
        self.job = job
        self.expected = frozenset(expected_workers)
        self.open = True
        self.opened_at = sim.now
        self.bids: dict[str, Bid] = {}
        self.all_bids = Event(sim)
        self.fast_close = Event(sim)
        self.late_bids: list[Bid] = []
        self.excluded: set[str] = set()
        #: The job's earlier contest and how many it had before this one.
        self.previous: Optional[ReferenceContest] = None
        self.attempt = 0

    def add_bid(self, bid: Bid) -> bool:
        if not self.open or bid.worker in self.excluded:
            self.late_bids.append(bid)
            return False
        if bid.worker not in self.expected:
            raise ValueError(f"bid from uninvited worker {bid.worker!r}")
        if bid.worker in self.bids:
            raise ValueError(f"duplicate bid from {bid.worker!r}")
        self.bids[bid.worker] = bid
        if len(self.bids) == len(self.expected) and not self.all_bids.triggered:
            self.all_bids.succeed()
        return True

    def exclude(self, worker: str) -> None:
        if not self.open or worker not in self.expected:
            return
        self.expected = self.expected - {worker}
        self.excluded.add(worker)
        self.bids.pop(worker, None)
        if (
            self.expected
            and len(self.bids) == len(self.expected)
            and not self.all_bids.triggered
        ):
            self.all_bids.succeed()

    def winner(self) -> Optional[str]:
        if not self.bids:
            return None
        return min(self.bids.values(), key=lambda bid: (bid.cost_s, bid.worker)).worker

    def close(self) -> str:
        self.open = False
        if not self.bids:
            return "fallback"
        if len(self.bids) == len(self.expected):
            return "full"
        return "fast" if self.fast_close.triggered else "timeout"


class ReferenceMasterPolicy(MasterPolicy):
    name = "bidding"
    stale_inbound = (Bid,)

    def __init__(self, window_s, max_concurrent_contests, fast_local_close) -> None:
        super().__init__()
        self.window_s = window_s
        self.max_concurrent_contests = max_concurrent_contests
        self.fast_local_close = fast_local_close
        self.contests: dict[str, ReferenceContest] = {}
        self.open_contests = 0
        self._rebids: set[str] = set()
        self._quiescing = False
        self._parked_for_export: list[Job] = []
        self._busy_runners = 0

    def start(self) -> None:
        self._pending = Store(self.master.sim)
        for index in range(self.max_concurrent_contests):
            Process(self.master.sim, self._contest_runner(), name=f"contest-runner-{index}")

    def on_job(self, job: Job) -> None:
        self._pending.put(job)

    def on_message(self, message: object) -> bool:
        contest = self.contests.get(getattr(message, "job_id", None))
        if not isinstance(message, Bid) or contest is None:
            # (Unknown job: a predecessor's bid after a bidding -> bidding
            # hot-swap; the master drops it as stale residue.)
            return False
        for hook in self.master.hooks.bid:
            hook(message.job_id, message.worker, message.cost_s, self.master.sim.now)
        while contest.attempt != message.attempt and contest.previous is not None:
            contest = contest.previous  # a straggler from the job's earlier contest
        counted = contest.add_bid(message)
        if (
            counted
            and self.fast_local_close
            and not contest.fast_close.triggered
            and message.breakdown[0] == 0.0
            and message.breakdown[1] == 0.0
        ):
            contest.fast_close.succeed(message.worker)
        return True

    def on_worker_failed(self, worker: str, orphaned: list[Job]) -> None:
        for contest in self.contests.values():
            contest.exclude(worker)

    def begin_quiesce(self) -> None:
        self._quiescing = True

    def quiescent(self) -> bool:
        return self._busy_runners == 0 and not self._pending.items

    def end_quiesce(self) -> None:
        self._quiescing = False
        parked, self._parked_for_export = self._parked_for_export, []
        for job in parked:
            self._pending.put(job)

    def export_state(self) -> list[Job]:
        jobs, self._parked_for_export = self._parked_for_export, []
        jobs.extend(item for item in self._pending.items if isinstance(item, Job))
        self._pending.items.clear()
        return jobs

    def _contest_runner(self):
        master = self.master
        while True:
            job = yield self._pending.get()
            if self._quiescing:
                self._parked_for_export.append(job)
                continue
            self._busy_runners += 1
            if not master.active_workers:
                yield Timeout(master.sim, self.window_s)
                self._pending.put(job)
                self._busy_runners -= 1
                continue
            contest = ReferenceContest(master.sim, job, list(master.active_workers))
            contest.previous = self.contests.get(job.job_id)
            if contest.previous is not None:
                contest.attempt = contest.previous.attempt + 1
            self.contests[job.job_id] = contest
            self.open_contests += 1
            for hook in master.hooks.contest_opened:
                hook(job.job_id, master.sim.now)
            master.broadcast(JobAnnouncement(job=job, attempt=contest.attempt))
            window = Timeout(master.sim, self.window_s)
            yield AnyOf(master.sim, [window, contest.all_bids, contest.fast_close])
            outcome = contest.close()
            self.open_contests -= 1
            duration = master.sim.now - contest.opened_at
            winner = contest.winner()
            if (
                winner is None
                and master.recovery is not None
                and job.job_id not in self._rebids
            ):
                self._rebids.add(job.job_id)
                for hook in master.hooks.contest_closed:
                    hook(job.job_id, None, duration, outcome, master.sim.now)
                self._pending.put(job)
                self._busy_runners -= 1
                continue
            if winner is None:
                winner = master.arbitrary_worker()
            for hook in master.hooks.contest_closed:
                hook(job.job_id, winner, duration, outcome, master.sim.now)
            master.assign(job, winner)
            self._busy_runners -= 1


class ReferenceWorkerPolicy(WorkerPolicy):
    def __init__(self, speed_model, count_pending_downloads, bid_compute_s, corrector) -> None:
        super().__init__()
        self.speed_model = speed_model
        self.count_pending_downloads = count_pending_downloads
        self.bid_compute_s = bid_compute_s
        self.corrector = corrector
        self._promised: dict[str, float] = {}
        self._won: dict[str, float] = {}

    def bind(self, worker) -> None:
        super().bind(worker)
        self.estimator = CostEstimator(
            worker,
            speed_model=self.speed_model,
            count_pending_downloads=self.count_pending_downloads,
        )

    def start(self) -> None:
        self._subscription = self.worker.topology.subscribe(TOPIC_ANNOUNCE, self.worker.name)
        messages = inbox(self.worker.sim, self._subscription)
        Process(
            self.worker.sim,
            self._bid_loop(self._subscription, messages),
            name=f"{self.worker.name}-bidder",
        )

    def on_killed(self) -> None:
        self.worker.topology.broker.unsubscribe(self._subscription)

    def _bid_loop(self, subscription, messages):
        worker = self.worker
        while True:
            message = yield messages.get()
            if worker.policy is not self or not worker.alive:
                worker.topology.broker.unsubscribe(subscription)
                return
            if worker.draining:
                continue
            if self.bid_compute_s > 0:
                yield Timeout(worker.sim, self.bid_compute_s / worker.spec.cpu_factor)
                if not worker.alive:
                    worker.topology.broker.unsubscribe(subscription)
                    return
            estimate = self.estimator.estimate(message.job)
            own_cost = estimate.own_cost_s
            if self.corrector is not None:
                own_cost = self.corrector.correct(own_cost)
            self._promised[message.job.job_id] = own_cost
            worker.send_to_master(
                Bid(
                    job_id=message.job.job_id,
                    worker=worker.name,
                    cost_s=estimate.workload_s + own_cost,
                    breakdown=(estimate.workload_s, estimate.transfer_s, estimate.processing_s),
                    attempt=message.attempt,
                )
            )

    def on_message(self, message: object) -> bool:
        if not isinstance(message, Assignment):
            return False
        job = message.job
        promised = self._promised.pop(job.job_id, None)
        if promised is None:
            promised = self.estimator.estimate(job).own_cost_s
        self._won[job.job_id] = promised
        self.worker.enqueue(job, promised)
        return True

    def on_job_finished(self, job: Job, elapsed_s: float = 0.0) -> None:
        self._promised.pop(job.job_id, None)
        promised = self._won.pop(job.job_id, None)
        if self.corrector is not None and promised is not None:
            self.corrector.observe(promised, elapsed_s)


def make_reference_bidding_policy(
    window_s: float = DEFAULT_WINDOW_S,
    max_concurrent_contests: int = 1,
    speed_model_factory=None,
    count_pending_downloads: bool = True,
    bid_compute_s: float = DEFAULT_BID_COMPUTE_S,
    fast_local_close: bool = False,
    adaptive: bool = False,
) -> SchedulerPolicy:
    """Same signature as :func:`repro.schedulers.bidding.make_bidding_policy`."""
    factory = speed_model_factory or NominalSpeedModel
    return SchedulerPolicy(
        name="bidding",
        master_factory=lambda: ReferenceMasterPolicy(
            window_s, max_concurrent_contests, fast_local_close
        ),
        worker_factory=lambda: ReferenceWorkerPolicy(
            factory(),
            count_pending_downloads,
            bid_compute_s,
            BidCorrector() if adaptive else None,
        ),
    )
