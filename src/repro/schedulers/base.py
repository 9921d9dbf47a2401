"""Scheduler strategy interfaces.

A scheduler is split along the paper's architectural line:

* the **master policy** owns unallocated jobs and decides (or
  orchestrates the decision of) which worker gets each job;
* the **worker policy** implements the worker's "opinion": acceptance
  criteria for offered jobs (Baseline) or bid construction for announced
  jobs (Bidding).

Both sides are *bound* to their host node before the run starts and may
spawn their own simulation processes in ``start``.  They interact with
the world only through their host's helpers (``master.assign(...)``,
``worker.send_to_master(...)``), never by touching other nodes directly
-- the decentralisation the paper argues for is enforced structurally.

:class:`SchedulerPolicy` packages a matching master/worker pair plus the
metadata the experiment harness needs (name, whether the policy wants
the full job list upfront like Spark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.master import Master
    from repro.engine.worker import WorkerNode


class MasterPolicy:
    """Master-side allocation strategy (one instance per run)."""

    #: Human-readable policy name (set by subclasses).
    name = "abstract"

    #: Whether the policy needs the complete job list before the run
    #: starts (Spark's upfront allocation).  Streamed arrivals are still
    #: delivered through ``on_job``.
    requires_upfront = False

    #: Inbound message types this policy's protocol can leave in flight
    #: after it quiesces (control-plane residue: pulls, bids).  A
    #: successor installed by a hot-swap tolerates exactly these; any
    #: job-carrying type must drain during quiesce instead.
    stale_inbound: tuple = ()

    def __init__(self) -> None:
        self.master: "Master" = None  # type: ignore[assignment]

    def bind(self, master: "Master") -> None:
        """Attach to the host master node (called once, before start)."""
        self.master = master

    def start(self) -> None:
        """Spawn any long-running policy processes; default none."""

    def on_upfront_jobs(self, jobs: list[Job]) -> None:
        """Receive the full job list before the run (only if
        ``requires_upfront``); default ignores it."""

    def on_job(self, job: Job) -> None:
        """A new job needs allocation (source arrival or pipeline child)."""
        raise NotImplementedError

    def messages_witnessed(self) -> bool:
        """Whether anything can tell this policy's individual messages
        apart: trace, an invariant monitor or ``obs`` recorder on the
        collector or the broker, or a broker that may lose or hold one.
        Only if not may an exchange be worked out instead of sent
        (computed contests, settled declines; ARCHITECTURE.md section 12)."""
        metrics, broker = self.master.metrics, self.master.topology.broker
        return (
            metrics.trace.enabled
            or metrics.monitor is not None
            or broker.monitor is not None
            or broker.obs is not None
            or not broker.reliable
        )

    def decision_snapshot(self, job: Job, worker: str) -> object:
        """What explaining the allocation of ``job`` to ``worker``, just
        decided, will need that later state could change: primitives, or
        references to what is never written again.

        Called from the master's assignment seam *only when the decision
        ledger is on* (see :mod:`repro.obs.ledger`).  Implementations
        MUST be observation-only: read policy and fleet state, mutate
        nothing, draw no randomness -- the ledger's bit-identity contract
        depends on it.  The default takes the active fleet's locality/
        queue facts off the fleet planes.
        """
        master = self.master
        return master.fleet.candidate_snapshot(master.active_workers, job.repo_id)

    def decision_context(self, job: Job, worker: str, snapshot: object) -> tuple:
        """``(kind, candidates, runner_up, reason)`` of that decision,
        ``candidates`` an iterable of :class:`~repro.obs.ledger.CandidateScore`.
        Called when the ledger is read -- maybe after this policy was
        swapped out -- so it reads ``snapshot`` and constants only."""
        from repro.obs.ledger import CandidateScore

        candidates = tuple(
            CandidateScore(worker=name, local=holds, queue_depth=queued, link_busy=busy)
            for name, queued, _outstanding, holds, busy in snapshot
        )
        return ("assign", candidates, None, "")

    def on_message(self, message: object) -> bool:
        """Handle a policy-specific message from a worker.

        Return ``True`` if consumed; unconsumed messages are an engine
        error (they indicate a policy/protocol mismatch).
        """
        return False

    def on_job_completed(self, job: Job, worker: str) -> None:
        """Observe a completion (e.g. to track worker cache contents)."""

    def on_run_finished(self) -> None:
        """The last job just completed or failed: report whatever is
        still held back from the metrics collector.  Default: nothing."""

    def on_worker_joined(self, worker: str) -> None:
        """A worker was added to the fleet mid-run (service-layer
        scale-up).  Default: nothing -- decentralised policies discover
        new workers through the message protocol; centralized policies
        that cache the fleet must refresh here."""

    def on_worker_retired(self, worker: str) -> None:
        """A worker left the *active* set mid-run (scale-down drain).
        The node is still alive and will finish jobs it already holds,
        but must receive no new work.  Default: nothing."""

    def on_worker_failed(self, worker: str, orphaned: list[Job]) -> None:
        """A worker died mid-run.  *Bookkeeping only*: drop the worker
        from any cached fleet view or placement plan and abort contests
        it participates in.  The master owns orphan re-dispatch (retry
        budget + backoff) and calls this before re-dispatching, so
        policies must NOT resubmit the orphans themselves.  Default:
        nothing -- correct for policies that consult
        ``master.active_workers`` on every decision."""

    # -- hot-swap seam (repro.reconfig) ------------------------------------

    def begin_quiesce(self) -> None:
        """Stop opening new job-carrying exchanges (offers, contests).

        Jobs keep arriving through ``on_job`` and must be *retained*
        (queued/parked) for :meth:`export_state`; completions and
        failures keep flowing.  Default: nothing -- correct for push
        policies whose ``on_job`` assigns synchronously (nothing is ever
        in flight between policy and workers)."""

    def quiescent(self) -> bool:
        """Whether no job-carrying exchange is still in flight (open
        offers awaiting accept/reject, open contests).  Only meaningful
        after :meth:`begin_quiesce`.  Default: always true."""
        return True

    def end_quiesce(self) -> None:
        """Abort a quiesce that timed out: resume opening exchanges and
        re-examine anything parked while quiescing.  The swap is
        cancelled; this policy keeps running.  Default: nothing."""

    def export_state(self) -> list[Job]:
        """Hand over every job this policy still owns (queued, parked,
        pending contest) so a successor can adopt it.  Called once,
        after :meth:`quiescent` turns true; the policy is discarded
        afterwards.  Default: no owned jobs."""
        return []

    def import_state(self, jobs: list[Job]) -> None:
        """Adopt jobs exported by a hot-swapped predecessor.  Default:
        resubmit each through :meth:`on_job`, which is correct for every
        policy (the jobs are unallocated, exactly like fresh arrivals)."""
        for job in jobs:
            self.on_job(job)


class WorkerPolicy:
    """Worker-side strategy (one instance per worker per run)."""

    #: Inbound message types the matching *master* policy can leave in
    #: flight toward workers after it quiesces (e.g. ``NoWork``); a
    #: successor worker policy installed by a hot-swap tolerates these.
    stale_inbound: tuple = ()

    def __init__(self) -> None:
        self.worker: "WorkerNode" = None  # type: ignore[assignment]

    def bind(self, worker: "WorkerNode") -> None:
        """Attach to the host worker node (called once, before start)."""
        self.worker = worker

    def start(self) -> None:
        """Spawn any long-running policy processes; default none."""

    def on_message(self, message: object) -> bool:
        """Intercept an inbox message.  Return ``True`` if consumed;
        otherwise the engine applies default handling (Assignments are
        enqueued, everything else is an error)."""
        return False

    def on_killed(self) -> None:
        """The host worker died (fault injection).  Release any broker
        subscriptions the policy holds so the dead node stops receiving
        topic traffic immediately -- a restarted replacement subscribes
        under the same name and must not be shadowed.  Default: nothing."""

    def on_job_finished(self, job: Job, elapsed_s: float = 0.0) -> None:
        """Observe local completion (e.g. to release committed workload or
        feed estimate-vs-actual learning).  ``elapsed_s`` is the wall time
        the job occupied the worker (download + processing)."""

    def on_state_changed(self, repos=()) -> None:
        """What the node could tell a scheduler about itself -- queue,
        running job, cache, measured speeds -- just changed outside any
        other hook: the executor picked up a job or finished a download,
        or jobs were checkpointed away.  ``repos`` are the repositories
        whose local availability may have changed."""

    def on_drain(self) -> None:
        """The host started draining (scale-down): it finishes what it
        holds but must stop competing for new work."""


@dataclass
class SchedulerPolicy:
    """A named, matched pair of policy factories.

    ``master_factory`` is called once per run; ``worker_factory`` once
    per worker.  Factories (rather than instances) keep runs independent
    and make the registry trivially reusable across repetitions.
    """

    name: str
    master_factory: Callable[[], MasterPolicy]
    worker_factory: Callable[[], WorkerPolicy]
    requires_upfront: bool = False

    def make_master(self) -> MasterPolicy:
        """Fresh master-side policy for one run."""
        policy = self.master_factory()
        if policy.requires_upfront != self.requires_upfront:
            policy.requires_upfront = self.requires_upfront
        return policy

    def make_worker(self) -> WorkerPolicy:
        """Fresh worker-side policy for one worker."""
        return self.worker_factory()


class PassiveWorkerPolicy(WorkerPolicy):
    """Worker policy for centralized schedulers (Spark/random/round-robin):
    the worker holds no opinion and simply executes assignments."""
