"""The wire protocol between master, workers and the broker.

All messages are immutable dataclasses delivered through
:class:`repro.net.broker.Broker` topics:

* ``to-master``            -- worker -> master traffic,
* ``to-worker/<name>``     -- master -> one worker,
* ``announce``             -- master -> all workers (bidding contests).

The message set is the union of what the two Crossflow allocation modes
need (pull/offer/reject for the Baseline; announce/bid/assign for the
Bidding Scheduler) plus completion reporting shared by all policies.
A message carries what the protocol needs and nothing for observers:
they see each one on the broker's ``publish`` and ``deliver`` seams
(:mod:`repro.hooks`), and a job's causal path is read off the trace
(:mod:`repro.obs.spans`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.workload.job import Job

#: Broker topic names.
TOPIC_MASTER = "to-master"
TOPIC_ANNOUNCE = "announce"


def worker_topic(name: str) -> str:
    """The point-to-point topic for one worker."""
    return f"to-worker/{name}"


@dataclass(frozen=True)
class Hello:
    """Worker -> master: registration at startup."""

    worker: str


# -- pull-based allocation (Baseline, Matchmaking, Delay) ------------------


@dataclass(frozen=True)
class PullRequest:
    """Worker -> master: "I am idle, give me a job".

    ``attempt`` counts consecutive unsuccessful pulls since the worker
    last executed a job -- Matchmaking's heartbeat counter.
    """

    worker: str
    attempt: int = 1


@dataclass(frozen=True)
class JobOffer:
    """Master -> worker: a job to evaluate against acceptance criteria."""

    job: Job
    #: How many times this job has been offered to this worker before
    #: (the Baseline's second-attempt rule keys off the worker's own
    #: declined-set, but the master also tracks it for diagnostics).
    prior_offers: int = 0


@dataclass(frozen=True)
class NoWork:
    """Master -> worker: the queue has nothing for you right now."""

    worker: str


@dataclass(frozen=True)
class JobReject:
    """Worker -> master: offer declined (returned for others to consider)."""

    job: Job
    worker: str


@dataclass(frozen=True)
class JobAccept:
    """Worker -> master: offer accepted (informational; work starts now)."""

    job: Job
    worker: str


# -- bidding allocation (the paper's contribution) --------------------------


@dataclass(frozen=True)
class JobAnnouncement:
    """Master -> all workers: a bidding contest is open for this job.

    ``attempt`` counts the job's earlier contests (a zero-bid window or
    a re-dispatch after a crash runs it again); bids echo it, so one
    that straggles in for an earlier contest is not taken for an answer
    to the current one.
    """

    job: Job
    attempt: int = 0


@dataclass(frozen=True)
class Bid:
    """Worker -> master: estimated completion time for an announced job.

    ``cost_s`` is the worker's total estimate: committed workload +
    data transfer + processing (Listing 2, lines 2-5).
    """

    job_id: str
    worker: str
    cost_s: float
    breakdown: tuple[float, float, float] = (0.0, 0.0, 0.0)
    #: The ``attempt`` of the announcement this answers.
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.cost_s < 0:
            raise ValueError("bid cost must be non-negative")


# -- shared ------------------------------------------------------------------


@dataclass(frozen=True)
class Assignment:
    """Master -> worker: you must queue and execute this job."""

    job: Job


@dataclass(frozen=True)
class JobCompleted:
    """Worker -> master: job finished; the result travels as data.

    The master expands downstream jobs via the pipeline on receipt
    (Crossflow's ``master.sendJob(newJob)``, Listing 2 line 14).
    """

    job: Job
    worker: str
    result: Any = None
    #: Seconds the worker spent on the job (download + processing).
    elapsed_s: float = 0.0


# -- live reconfiguration (repro.reconfig) ----------------------------------


@dataclass(frozen=True)
class MigrateRequest:
    """Controller -> worker: checkpoint up to ``max_jobs`` jobs for migration.

    The worker pops jobs from the *tail* of its queue (the youngest,
    least-committed work first), optionally preempting the running job
    too, and answers with a single :class:`MigrateAck` carrying the
    checkpointed jobs.  Request and ack travel as one synchronous
    exchange on reliable channels, so a crash of either endpoint leaves
    the jobs either still owned by the source (request lost with the
    node) or re-dispatchable through the orphan machinery (ack'd jobs
    rebind through ``master.assign``, whose dead-letter bounce converts
    a dead target into a :class:`WorkerFailure`).
    """

    worker: str
    max_jobs: int = 1
    include_running: bool = False


@dataclass(frozen=True)
class MigrateAck:
    """Worker -> master: the checkpointed jobs released for rebinding.

    Job-carrying, hence reliable: a partition may delay it but can never
    drop it, so a checkpointed job cannot evaporate in transit.
    """

    worker: str
    jobs: tuple[Job, ...] = field(default_factory=tuple)


#: Messages carried with persistent (never-dropped) JMS semantics: every
#: message that moves a job or reports its fate.  Control-plane
#: signalling (pulls, announcements, bids, NoWork) rides non-persistent
#: channels and is subject to the broker's drop model when the
#: message-loss robustness extension is enabled.
_RELIABLE_TYPES: tuple[type, ...] = ()  # filled below, after definitions


def is_reliable(message: object) -> bool:
    """Whether ``message`` must use persistent (loss-free) delivery."""
    return isinstance(message, _RELIABLE_TYPES)


@dataclass(frozen=True)
class WorkerFailure:
    """Infrastructure -> master: a worker died (fault-tolerance extension).

    The paper explicitly has "no specific policies in place" for this;
    the engine recovers when the run's fault plan carries a
    ``recovery`` policy (``faults=FaultPlan()`` does).
    """

    worker: str
    #: Jobs that were queued or running on the dead worker.
    orphaned: tuple[Job, ...] = field(default_factory=tuple)


_RELIABLE_TYPES = (
    Hello,
    JobOffer,
    JobReject,
    JobAccept,
    Assignment,
    JobCompleted,
    WorkerFailure,
    MigrateAck,
)
