"""The decision ledger: why each allocation went where it went.

Every scheduler already funnels its allocation through the master's
``_note_assignment`` seam (push policies via ``master.assign``, pull
policies via ``note_external_assignment``).  When observability is on,
that seam asks the active policy for a *decision context* -- the
candidates it considered, their scores, the runner-up and a one-line
reason -- and appends a :class:`DecisionRecord` here.  The real
execution backend (:mod:`repro.exec`) appends wall-clock records through
the same ledger type at its own bind seam, so sim and real runs share
one schema.

Discipline (same contract as the rest of :mod:`repro.obs`):

* **Observation-only.**  Building a record reads policy state and the
  fleet planes; it never mutates either and draws no randomness, so
  metrics with the ledger on are bit-identical to the ledger off.
* **Zero-cost when off.**  The only hook site is one ``is not None``
  guard inside ``_note_assignment``; with obs off (or
  ``ObsConfig(ledger=False)``) the instruction stream is unchanged.
* **JSON round-trip.**  Records serialise losslessly so the
  ``repro explain`` diff can align the decisions of two saved runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.master import Master
    from repro.workload.job import Job


@dataclass(frozen=True)
class CandidateScore:
    """One worker the policy weighed for a job.

    Every field except ``worker`` is optional: policies report what they
    actually looked at (a bidding contest knows costs, a pull accept
    knows only who pulled), and the generic fallback fills queue/
    locality/link facts from the fleet planes.
    Lower ``score`` is better by convention (costs, not fitness).
    """

    worker: str
    score: Optional[float] = None
    local: Optional[bool] = None
    queue_depth: Optional[int] = None
    link_busy: Optional[bool] = None
    detail: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "score": self.score,
            "local": self.local,
            "queue_depth": self.queue_depth,
            "link_busy": self.link_busy,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CandidateScore":
        return cls(
            worker=data["worker"],
            score=data.get("score"),
            local=data.get("local"),
            queue_depth=data.get("queue_depth"),
            link_busy=data.get("link_busy"),
            detail=data.get("detail"),
        )


@dataclass(frozen=True)
class DecisionRecord:
    """One allocation decision, with the alternatives it beat."""

    #: Position in the run's decision sequence (0-based, includes
    #: re-dispatches -- a recovered job gets a second record).
    seq: int
    #: Sim time (or wall-clock seconds for exec-backend records).
    time: float
    job_id: str
    repo_id: Optional[str]
    #: The chosen worker.
    worker: str
    #: The policy that decided (``bidding``, ``spark``, ... or ``exec``).
    policy: str
    #: Decision shape: ``contest``, ``fallback``, ``pull-accept``,
    #: ``local-pull``, ``forced``, ``local``, ``skip-exhausted``,
    #: ``planned-local``, ``planned-any``, ``dynamic``, ``cost-min``,
    #: ``random``, ``round-robin``, ``replay``, ``redispatch``, ...
    kind: str
    candidates: tuple[CandidateScore, ...] = ()
    #: The best alternative the chosen worker beat (None when the
    #: policy considered no alternative: pulls, round-robin).
    runner_up: Optional[str] = None
    #: One human-readable line on why.
    reason: str = ""

    def candidate(self, worker: str) -> Optional[CandidateScore]:
        for cand in self.candidates:
            if cand.worker == worker:
                return cand
        return None

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "time": self.time,
            "job_id": self.job_id,
            "repo_id": self.repo_id,
            "worker": self.worker,
            "policy": self.policy,
            "kind": self.kind,
            "candidates": [cand.to_dict() for cand in self.candidates],
            "runner_up": self.runner_up,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionRecord":
        return cls(
            seq=data["seq"],
            time=data["time"],
            job_id=data["job_id"],
            repo_id=data.get("repo_id"),
            worker=data["worker"],
            policy=data["policy"],
            kind=data["kind"],
            candidates=tuple(
                CandidateScore.from_dict(cand) for cand in data.get("candidates", ())
            ),
            runner_up=data.get("runner_up"),
            reason=data.get("reason", ""),
        )


def fleet_candidates(fleet, names: list, repo_id: Optional[str]) -> tuple:
    """Generic candidate snapshot off the struct-of-arrays fleet planes.

    Read-only gathers from the live planes: queue depth, locality of the
    job's repo, link occupancy.  Workers the planes have never seen yield
    name-only entries.
    """
    rows = fleet.candidate_snapshot(names, repo_id)
    return tuple(
        CandidateScore(
            worker=name,
            local=holds,
            queue_depth=queued,
            link_busy=busy,
        )
        for name, queued, _outstanding, holds, busy in rows
    )


class DecisionLedger:
    """Append-only log of :class:`DecisionRecord` for one run."""

    def __init__(self) -> None:
        self.records: list[DecisionRecord] = []
        self._by_job: dict[str, list[DecisionRecord]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def append(self, record: DecisionRecord) -> None:
        self.records.append(record)
        self._by_job.setdefault(record.job_id, []).append(record)

    def note(self, master: "Master", job: "Job", worker: str, now: float) -> None:
        """Build and append the record for one master-seam assignment."""
        kind, candidates, runner_up, reason = master.policy.decision_context(
            job, worker
        )
        self.append(
            DecisionRecord(
                seq=len(self.records),
                time=now,
                job_id=job.job_id,
                repo_id=job.repo_id,
                worker=worker,
                policy=master.policy.name,
                kind=kind,
                candidates=tuple(candidates),
                runner_up=runner_up,
                reason=reason,
            )
        )

    def for_job(self, job_id: str) -> list[DecisionRecord]:
        """Every decision made about one job, in sequence order."""
        return list(self._by_job.get(job_id, ()))

    def final_for_job(self, job_id: str) -> Optional[DecisionRecord]:
        """The decision that stuck (last re-dispatch wins)."""
        records = self._by_job.get(job_id)
        return records[-1] if records else None

    def to_dicts(self) -> list[dict]:
        return [record.to_dict() for record in self.records]

    @classmethod
    def from_dicts(cls, data: list) -> "DecisionLedger":
        ledger = cls()
        for entry in data:
            ledger.append(DecisionRecord.from_dict(entry))
        return ledger


__all__ = [
    "CandidateScore",
    "DecisionLedger",
    "DecisionRecord",
    "fleet_candidates",
]
