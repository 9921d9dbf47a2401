"""The decision ledger: why each allocation went where it went.

Every scheduler already funnels its allocation through the master's
``_note_assignment`` seam (push policies via ``master.assign``, pull
policies via ``note_external_assignment``).  When observability is on,
that seam asks the active policy for a *decision snapshot* -- only what
later state could change -- and :meth:`DecisionLedger.note` appends it
as a row; the :class:`DecisionRecord` (candidates, scores, runner-up,
one-line reason, from ``policy.decision_context``) is built when the
ledger is read: hooks write rows, readers build records
(ARCHITECTURE.md section 12).  The real execution backend
(:mod:`repro.exec`) notes wall-clock decisions through the same hook at
its own bind seam, so sim and real runs share one schema.

Discipline (same contract as the rest of :mod:`repro.obs`):

* **Observation-only.**  Taking a snapshot reads policy state and the
  fleet planes; it never mutates either and draws no randomness, so
  metrics with the ledger on are bit-identical to the ledger off.
* **Lazy == eager.**  A record built at the end of the run equals one
  built the instant after the decision (``tests/test_obs_ledger.py``).
* **Zero-cost when off.**  The only hook site is one ``is not None``
  guard inside ``_note_assignment``; with obs off (or
  ``ObsConfig(ledger=False)``) the instruction stream is unchanged.
* **JSON round-trip.**  Records serialise losslessly so the
  ``repro explain`` diff can align the decisions of two saved runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


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


class DecisionLedger:
    """Append-only log of :class:`DecisionRecord` for one run."""

    def __init__(self) -> None:
        self._records: list[DecisionRecord] = []
        #: ``(seq, now, job, worker, policy, snapshot)`` rows not built yet.
        self._pending: list[tuple] = []

    def __len__(self) -> int:
        return len(self._records) + len(self._pending)

    def __iter__(self):
        return iter(self.records)

    @property
    def records(self) -> list[DecisionRecord]:
        """Every decision so far, in sequence order (builds pending rows)."""
        pending = self._pending
        if pending:
            self._pending = []
        for seq, now, job, worker, policy, snapshot in pending:
            kind, candidates, runner_up, reason = policy.decision_context(
                job, worker, snapshot
            )
            self._records.append(
                DecisionRecord(
                    seq=seq,
                    time=now,
                    job_id=job.job_id,
                    repo_id=job.repo_id,
                    worker=worker,
                    policy=policy.name,
                    kind=kind,
                    candidates=tuple(candidates),
                    runner_up=runner_up,
                    reason=reason,
                )
            )
        return self._records

    def append(self, record: DecisionRecord) -> None:
        """Add a finished record, behind any pending rows."""
        self.records.append(record)

    def note(self, now: float, job, worker: str, policy, snapshot: object) -> None:
        """Hook: ``policy`` (anything with a ``name`` and a
        ``decision_context(job, worker, snapshot)``) just bound ``job``
        to ``worker``; ``snapshot`` holds whatever explaining that will
        need and later state could change."""
        self._pending.append((len(self), now, job, worker, policy, snapshot))

    def for_job(self, job_id: str) -> list[DecisionRecord]:
        """Every decision made about one job, in sequence order."""
        return [record for record in self.records if record.job_id == job_id]

    def final_for_job(self, job_id: str) -> Optional[DecisionRecord]:
        """The decision that stuck (last re-dispatch wins)."""
        records = self.for_job(job_id)
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
]
