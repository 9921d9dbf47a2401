"""What the pull schedulers share (``baseline``, ``matchmaking``, ``delay``).

All three speak one protocol -- an idle worker sends a ``PullRequest``,
the master answers with a ``JobOffer`` or ``NoWork`` (or parks the pull
until work exists), the worker answers an offer with ``JobAccept`` or
``JobReject`` -- and differ only in *which* job the master offers and
whether the worker may decline it.

:class:`PullWorkerPolicy` is the whole worker side: a callback state
machine (cycle -> await -> respond) with a per-policy :meth:`accepts`
rule.  :class:`PullMasterPolicy` holds the master-side bookkeeping that
does not depend on the match rule: the parked pulls, the offers in
flight (accepted, bounced, or reclaimed when the offeree dies), the
retire rule and the quiesce seam; :class:`HoldingsPullMasterPolicy`
adds the holdings view ``matchmaking`` and ``delay`` match against.

An offer that is certain to be declined is three messages with a known
outcome (``JobOffer`` out; ``JobReject`` and the next ``PullRequest``
back).  When nothing can tell them apart the master *settles* it: one
timer for the instant the ``JobReject`` would have reached it, both
turns taken there; until the offer would have landed, anything that
could change the answer puts the real offer back on its way
(ARCHITECTURE.md section 12, *Settled declines*).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.engine.messages import JobAccept, JobOffer, JobReject, NoWork, PullRequest
from repro.fleet import HoldingsIndex, LocalityQueue
from repro.schedulers.base import MasterPolicy, WorkerPolicy
from repro.sim.kernel import TimerHandle
from repro.workload.job import Job


class PullMasterPolicy(MasterPolicy):
    """Parked pulls, offers in flight, retire and quiesce.

    A subclass owns the match rule: it says what a pull does
    (:meth:`_pulled`, parking through :meth:`_park`), implements
    :meth:`_answer` and calls :meth:`_serve` whenever jobs arrive.
    """

    stale_inbound = (PullRequest,)

    #: Whether this scheduler's workers ever decline an offer; if not,
    #: the master never looks for a decline to settle.
    workers_decline = False

    def __init__(self) -> None:
        super().__init__()
        self._quiescing = False
        self.job_queue: deque = deque()
        #: Workers whose pulls wait for work, oldest first, and the same
        #: names as a set (one parked pull per worker: a retried pull --
        #: the loss-timeout path -- must not claim a second offer).
        self.parked: deque[str] = deque()
        self._parked_set: set[str] = set()
        #: job_id -> (worker, job) for offers awaiting accept/reject.
        #: An offer is the one moment a job lives in neither the queue
        #: nor the master's assignment table, so a crash of the offeree
        #: would otherwise lose it forever (JMS would redeliver the
        #: unacked message; we requeue in :meth:`on_worker_failed`).
        self.in_flight: dict[str, tuple[str, Job]] = {}

    # -- what a subclass supplies ---------------------------------------------

    def _pulled(self, worker: str, attempt: int) -> None:
        """``worker`` pulls (its ``attempt``-th try since it last ran a
        job): answer it now or park it."""
        raise NotImplementedError

    def _answer(self, worker: str) -> None:
        """Answer ``worker``'s pull from a non-empty queue: an offer
        (through :meth:`_offer`) or ``NoWork``."""
        raise NotImplementedError

    def _return(self, job: Job) -> None:
        """Take back a job whose offer bounced or died with its offeree:
        it goes to the head of the queue (JMS redelivery of the unacked
        message)."""
        self.job_queue.appendleft(job)

    # -- parked pulls ------------------------------------------------------------

    def _park(self, worker: str) -> None:
        if worker not in self._parked_set:
            self.parked.append(worker)
            self._parked_set.add(worker)

    def _unpark(self, worker: str) -> None:
        if worker in self._parked_set:
            self._parked_set.discard(worker)
            self.parked.remove(worker)

    def _serve(self) -> None:
        """Answer parked pulls while jobs are available."""
        if self._quiescing:
            return
        while self.job_queue and self.parked:
            worker = self.parked.popleft()
            self._parked_set.discard(worker)
            self._answer(worker)

    # -- offers -------------------------------------------------------------------

    def _offer(self, worker: str, job: Job, prior_offers: int = 0) -> None:
        self.in_flight[job.job_id] = (worker, job)
        for hook in self.master.hooks.offered:
            hook(job.job_id, worker, self.master.sim.now)
        if not (self.workers_decline and self._settle(worker, job, prior_offers)):
            self.master.send_to_worker(worker, JobOffer(job=job, prior_offers=prior_offers))

    def _settle(self, worker: str, job: Job, prior_offers: int) -> bool:
        """Carry out an offer that is certain to be declined, and whose
        messages nothing can witness, without them; ``False`` if the
        offer has to be sent."""
        master = self.master
        fleet, broker = master.fleet, master.topology.broker
        node = fleet.nodes[fleet.slots[worker]]
        policy = node.policy
        # A leg that takes no time is delivered inside ``publish``: there
        # is no heap entry whose place a timer could take.
        out_leg = broker.base_latency + node.inbox.latency
        back_leg = broker.base_latency + master.inbox.latency
        if (
            self.messages_witnessed()
            or out_leg <= 0
            or back_leg <= 0
            or not policy.certain_to_decline(job)
        ):
            return False
        # The sums the broker's two ``call_later`` would have made.
        landing = master.sim.now + out_leg
        timer = master.sim.call_at(
            landing + back_leg, self._settled, worker, job, policy.attempt, policy
        )
        policy.settled = (landing, timer, job, prior_offers)
        return True

    def _settled(self, worker: str, job: Job, attempt: int, policy) -> None:
        """The instant a settled decline's ``JobReject`` would have been
        handled: its turn, then the ``PullRequest``'s right behind it."""
        policy.decline(job)
        self._declined(job, worker)
        self._pulled(worker, attempt)

    def on_message(self, message: object) -> bool:
        if isinstance(message, PullRequest):
            self._pulled(message.worker, message.attempt)
        elif isinstance(message, JobAccept):
            self.in_flight.pop(message.job.job_id, None)
            for hook in self.master.hooks.accepted:
                hook(message.job.job_id, message.worker, self.master.sim.now)
            self.master.note_external_assignment(message.job, message.worker)
        elif isinstance(message, JobReject):
            self._declined(message.job, message.worker)
        else:
            return False
        return True

    def _declined(self, job: Job, worker: str) -> None:
        """``worker`` declined ``job``: "returned to the master so
        another worker can consider it"."""
        self.in_flight.pop(job.job_id, None)
        for hook in self.master.hooks.rejected:
            hook(job.job_id, worker, self.master.sim.now)
        self._rejected(job)
        self._serve()

    def _rejected(self, job: Job) -> None:
        """Where a declined job re-enters the queue."""
        self._return(job)

    # -- membership -----------------------------------------------------------

    def on_worker_failed(self, worker: str, orphaned: list[Job]) -> None:
        """Forget the dead worker's parked pull and reclaim its unacked
        offers; its orphans are re-dispatched by the master and answer
        live pulls instead.  A late JobAccept cannot race the requeue:
        worker->master delivery is FIFO per pair, so an accept the
        worker managed to send before dying was processed before this
        WorkerFailure arrived."""
        self._unpark(worker)
        lost = [
            job_id
            for job_id, (offeree, _) in self.in_flight.items()
            if offeree == worker
        ]
        for job_id in reversed(lost):
            _, job = self.in_flight.pop(job_id)
            self._return(job)
        if lost:
            self._serve()

    def on_worker_retired(self, worker: str) -> None:
        """Scale-down: forget the retiring worker's parked pull so the
        long-poll can never hand it a job mid-drain.  (A pull or an
        offer already on the wire is the worker's to bounce; see
        :meth:`PullWorkerPolicy._respond`.)"""
        self._unpark(worker)

    # -- hot-swap seam ------------------------------------------------------

    def begin_quiesce(self) -> None:
        """Stop offering: arriving jobs and reclaimed rejects pile up in
        the queue; ``in_flight`` drains as workers answer open offers."""
        self._quiescing = True

    def quiescent(self) -> bool:
        return not self.in_flight

    def end_quiesce(self) -> None:
        """Quiesce timed out: resume answering the parked pulls."""
        self._quiescing = False
        self._serve()

    def export_state(self) -> list[Job]:
        jobs = []
        while self.job_queue:
            jobs.append(self.job_queue.popleft())
        return jobs


class HoldingsPullMasterPolicy(PullMasterPolicy):
    """A pull master that matches on locality: it learns which worker
    holds which repository from completions (standing in for the
    JobTracker's block map) and keeps its queue scannable by it."""

    def __init__(self) -> None:
        super().__init__()
        #: worker -> repos known to be cached there (built from
        #: completions), and the queue whose locality scans read it.
        self.holdings = HoldingsIndex()
        self.job_queue = LocalityQueue(self.holdings)

    def on_job_completed(self, job: Job, worker: str) -> None:
        if job.repo_id is not None and worker is not None:
            self.holdings.add(worker, job.repo_id)

    def on_worker_failed(self, worker: str, orphaned: list[Job]) -> None:
        """Also forget the dead worker's holdings: the node's disk is
        gone; a restarted instance re-announces holdings through future
        completions."""
        self.holdings.drop_worker(worker)
        super().on_worker_failed(worker, orphaned)

    def _local_for(self, worker: str, job: Job) -> bool:
        return job.repo_id is None or self.holdings.holds(worker, job.repo_id)


class PullWorkerPolicy(WorkerPolicy):
    """The worker side of every pull scheduler, as callbacks.

    *Cycle*: once the node is idle (and neither dead, draining nor
    hot-swapped out, any of which ends the machine) send a
    ``PullRequest``.  *Await* the master's answer -- answers collect in
    arrival order, so a late answer to an earlier pull serves the next
    one -- bounded by ``response_timeout_s`` when set.  *Respond*:
    ``NoWork`` idles one heartbeat, an offer is accepted (run it, then
    cycle) or declined (cycle at once) per :meth:`accepts`; no answer in
    time means the pull or its answer was lost, so pull again.

    Every step is a heap entry pushed where the generator this replaces
    was resumed -- one hop from an answer or the deadline to the
    response, two when both are armed -- so the order of same-instant
    entries is the event queue's own.

    ``response_timeout_s`` is the message-loss robustness extension:
    ``PullRequest``/``NoWork`` are droppable control messages, and an
    unbounded wait deadlocks the worker when either side of the exchange
    is lost.  ``None`` (the paper's reliable-broker assumption) waits
    indefinitely.
    """

    stale_inbound = (NoWork,)

    #: Whether pulls carry Matchmaking's heartbeat counter: consecutive
    #: ``NoWork`` answers since the worker last executed a job.
    counts_attempts = False

    def __init__(
        self, heartbeat_s: float = 1.0, response_timeout_s: Optional[float] = None
    ) -> None:
        super().__init__()
        if heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        if response_timeout_s is not None and response_timeout_s <= 0:
            raise ValueError("response_timeout_s must be positive")
        self.heartbeat_s = heartbeat_s
        self.response_timeout_s = response_timeout_s
        self.attempt = 1
        #: Answers not yet responded to, and whether a pull waits for one.
        self._answers: deque = deque()
        self._awaiting = False
        self._deadline = TimerHandle()
        #: The decline the master last settled for us: ``(landing
        #: instant, its timer, job, prior offers)``; ours to undo until
        #: the offer would have landed, stale from then on.
        self.settled: Optional[tuple] = None

    def start(self) -> None:
        self.worker.sim.call_soon(self._cycle)

    def accepts(self, job: Job) -> bool:
        """The acceptance criterion for an offered job; default: the
        *master* did the matching, take it."""
        return True

    def will_decline(self, job: Job) -> bool:
        """Whether :meth:`accepts` would refuse ``job``, judged (and
        nothing remembered) from the job, the node's cache and what
        :meth:`decline` remembered: state an idle node only changes
        through a seam that un-settles."""
        return False

    def decline(self, job: Job) -> None:
        """Remember having declined ``job``; default: nothing to remember."""

    def certain_to_decline(self, job: Job) -> bool:
        """Whether an offer of ``job`` sent now can only be declined: the
        node waits, idle, for exactly this answer (no loss deadline)."""
        worker = self.worker
        return (
            self._awaiting  # (so no answer is queued either)
            and self.response_timeout_s is None
            and worker.alive
            and not worker.draining
            and worker.is_idle
            and self.will_decline(job)
        )

    def _unsettle(self) -> None:
        """Something reached or changed the node.  If a settled offer
        has not landed yet its outcome is open again: call the master's
        timer off and let the real ``JobOffer`` land when it would have
        (a dead node bounces it, a draining one returns it)."""
        settled, self.settled = self.settled, None
        worker = self.worker
        if settled is not None and worker.sim.now < settled[0]:
            landing, timer, job, prior_offers = settled
            timer.cancel()
            worker.topology.broker.resume(
                worker.inbox, JobOffer(job=job, prior_offers=prior_offers), landing
            )

    # The seams an idle node's answer can change through (the fourth is
    # any message reaching it, in on_message).
    on_killed = on_drain = _unsettle

    def on_state_changed(self, repos=()) -> None:
        if self.settled is not None:
            self._unsettle()

    def on_message(self, message: object) -> bool:
        if self.settled is not None:
            self._unsettle()
        if not isinstance(message, (JobOffer, NoWork)):
            return False
        self._answers.append(message)
        if self._awaiting:
            self._deadline.cancel()
            self._wake()
        return True

    # -- the state machine -----------------------------------------------------

    def _cycle(self, _idle=None) -> None:
        worker = self.worker
        if not worker.is_idle:
            worker.wait_idle().callbacks.append(self._cycle)
            return
        if not worker.alive or worker.draining or worker.policy is not self:
            # Dead, scaling down, or hot-swapped out (the successor runs
            # its own machine): pull no more.
            return
        worker.send_to_master(PullRequest(worker=worker.name, attempt=self.attempt))
        if self._answers:
            self._wake()
            return
        self._awaiting = True
        if self.response_timeout_s is not None:
            worker.sim.call_later(
                self.response_timeout_s, self._timed_out, handle=self._deadline
            )

    def _wake(self) -> None:
        """An answer is there for the pull: respond next turn (the turn
        after, when a deadline was armed beside it)."""
        self._awaiting = False
        sim = self.worker.sim
        if self.response_timeout_s is None:
            sim.call_at(sim.now, self._respond)
        else:
            sim.call_at(sim.now, sim.call_at, sim.now, self._respond)

    def _timed_out(self) -> None:
        self._awaiting = False
        sim = self.worker.sim
        sim.call_at(sim.now, self._respond)

    def _respond(self) -> None:
        worker = self.worker
        if not self._answers:
            # Pull (or its answer) was lost in transit: retry.
            self._cycle()
            return
        answer = self._answers.popleft()
        if isinstance(answer, NoWork):
            if self.counts_attempts:
                self.attempt += 1
            worker.sim.call_later(self.heartbeat_s, self._cycle)
            return
        job = answer.job
        if worker.draining:
            # Drain began while this offer was in flight: bounce it back
            # so an active worker picks it up, and pull no more.
            worker.send_to_master(JobReject(job=job, worker=worker.name))
        elif self.accepts(job):
            worker.send_to_master(JobAccept(job=job, worker=worker.name))
            worker.enqueue(job, worker._default_estimate(job))
            self.attempt = 1
            worker.wait_idle().callbacks.append(self._cycle)
        else:
            worker.send_to_master(JobReject(job=job, worker=worker.name))
            self._cycle()
