"""Run explanation documents and the run-diff explainer.

``repro explain`` saves a run as a self-contained JSON *explain
document*: scenario metadata, the critical-path attribution
(:mod:`repro.obs.critical_path`), per-job category breakdowns, and the
decision ledger (:mod:`repro.obs.ledger`).  Two documents of the same
scenario can then be diffed:

* **Category deltas.**  Both runs' critical-path categories tile their
  makespans exactly, so the per-category deltas sum to the true
  makespan difference -- the diff is an attribution, not an estimate.
* **Decision divergence.**  Runs are aligned job-by-job (same workload,
  same job ids); for every category where time moved, the diff names
  the divergent :class:`~repro.obs.ledger.DecisionRecord` (same job,
  different worker) whose job shifted the most time in that category --
  connecting "transfer grew by 4 s" to "because j17 went to w2, which
  had no cache hit, instead of w5".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from repro.metrics.trace import Trace
from repro.obs.critical_path import CATEGORIES, critical_path
from repro.obs.ledger import DecisionLedger, DecisionRecord

#: Explain-document schema version (bump on shape changes).
EXPLAIN_SCHEMA = 1

#: Below this a category delta is noise, not moved time.
_EPS = 1e-9


def explain_document(
    trace: Trace,
    ledger: Optional[DecisionLedger] = None,
    meta: Optional[dict] = None,
) -> dict:
    """Build the JSON-serialisable explain document for one run."""
    path = critical_path(trace)
    if path is None:
        raise ValueError("cannot explain a run with no completed job")
    jobs = {
        job_id: {
            "submitted": breakdown.submitted,
            "finished": breakdown.finished,
            "worker": breakdown.worker,
            "categories": dict(breakdown.categories),
        }
        for job_id, breakdown in path.jobs.items()
    }
    return {
        "schema": EXPLAIN_SCHEMA,
        "meta": dict(meta or {}),
        "start_s": path.start,
        "makespan_s": path.makespan,
        "categories": dict(path.categories),
        "chain": list(path.chain),
        "slack": dict(path.slack),
        "jobs": jobs,
        "decisions": ledger.to_dicts() if ledger is not None else [],
    }


def write_explain(path, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_explain(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    schema = document.get("schema")
    if schema != EXPLAIN_SCHEMA:
        raise ValueError(
            f"{path}: explain schema {schema!r}, expected {EXPLAIN_SCHEMA}"
        )
    return document


def _final_decisions(document: dict) -> dict:
    """job_id -> the decision that stuck (last record wins)."""
    final: dict = {}
    for entry in document.get("decisions", ()):
        final[entry["job_id"]] = entry
    return final


@dataclass(frozen=True)
class DiffFinding:
    """One category's moved time, pinned to a divergent decision."""

    category: str
    #: Seconds moved into this category (B minus A; negative = saved).
    delta_s: float
    #: The job in that category whose time shifted most among jobs
    #: whose allocation diverged (None when no decision diverged).
    job_id: Optional[str]
    #: That job's category-time shift (B minus A).
    job_delta_s: Optional[float]
    decision_a: Optional[DecisionRecord]
    decision_b: Optional[DecisionRecord]


@dataclass(frozen=True)
class RunDiff:
    """The aligned comparison of two explain documents."""

    label_a: str
    label_b: str
    makespan_a: float
    makespan_b: float
    #: category -> seconds moved (B minus A); sums to
    #: ``makespan_b - makespan_a`` exactly by the tiling property.
    categories: dict
    findings: tuple[DiffFinding, ...]
    #: Jobs present in both runs whose chosen worker differs.
    divergent_jobs: tuple[str, ...]

    @property
    def delta(self) -> float:
        return self.makespan_b - self.makespan_a


def _label(document: dict, fallback: str) -> str:
    meta = document.get("meta", {})
    scheduler = meta.get("scheduler")
    seed = meta.get("seed")
    if scheduler is None:
        return fallback
    return f"{scheduler}" + (f"/seed{seed}" if seed is not None else "")


def diff_runs(
    doc_a: dict,
    doc_b: dict,
    label_a: str = "A",
    label_b: str = "B",
) -> RunDiff:
    """Align two runs of the same scenario and attribute the delta."""
    jobs_a = doc_a.get("jobs", {})
    jobs_b = doc_b.get("jobs", {})
    decisions_a = _final_decisions(doc_a)
    decisions_b = _final_decisions(doc_b)

    divergent: list = []
    for job_id in sorted(set(jobs_a) & set(jobs_b)):
        worker_a = jobs_a[job_id].get("worker")
        worker_b = jobs_b[job_id].get("worker")
        record_a = decisions_a.get(job_id)
        record_b = decisions_b.get(job_id)
        if record_a is not None and record_b is not None:
            worker_a = record_a["worker"]
            worker_b = record_b["worker"]
        if worker_a != worker_b:
            divergent.append(job_id)

    categories = {
        name: doc_b["categories"].get(name, 0.0) - doc_a["categories"].get(name, 0.0)
        for name in CATEGORIES
    }

    findings: list = []
    for name in CATEGORIES:
        delta = categories[name]
        if abs(delta) <= _EPS:
            continue
        best_job = None
        best_shift = 0.0
        for job_id in divergent:
            shift = jobs_b[job_id]["categories"].get(name, 0.0) - jobs_a[job_id][
                "categories"
            ].get(name, 0.0)
            if best_job is None or abs(shift) > abs(best_shift):
                best_job, best_shift = job_id, shift
        record_a = record_b = None
        if best_job is not None:
            raw_a = decisions_a.get(best_job)
            raw_b = decisions_b.get(best_job)
            record_a = DecisionRecord.from_dict(raw_a) if raw_a else None
            record_b = DecisionRecord.from_dict(raw_b) if raw_b else None
        findings.append(
            DiffFinding(
                category=name,
                delta_s=delta,
                job_id=best_job,
                job_delta_s=best_shift if best_job is not None else None,
                decision_a=record_a,
                decision_b=record_b,
            )
        )

    return RunDiff(
        label_a=_label(doc_a, label_a),
        label_b=_label(doc_b, label_b),
        makespan_a=doc_a["makespan_s"],
        makespan_b=doc_b["makespan_s"],
        categories=categories,
        findings=tuple(findings),
        divergent_jobs=tuple(divergent),
    )


def _describe(record: Optional[DecisionRecord]) -> str:
    if record is None:
        return "no decision recorded"
    over = f" over {record.runner_up}" if record.runner_up else ""
    why = f": {record.reason}" if record.reason else ""
    return f"{record.policy} -> {record.worker}{over} ({record.kind}){why}"


def render_diff(diff: RunDiff, width: int = 26) -> str:
    """ASCII report: where time moved, and which decisions moved it."""
    lines = [
        f"run diff: {diff.label_a} -> {diff.label_b}",
        f"makespan {diff.makespan_a:.2f} s -> {diff.makespan_b:.2f} s  "
        f"(delta {diff.delta:+.2f} s; "
        f"{len(diff.divergent_jobs)} divergent allocations)",
    ]
    top = max((abs(v) for v in diff.categories.values()), default=0.0)
    for name in CATEGORIES:
        delta = diff.categories.get(name, 0.0)
        bar = ""
        if top > 0 and abs(delta) > _EPS:
            bar = ("+" if delta > 0 else "-") * max(1, round(abs(delta) / top * width))
        lines.append(f"{name:<10} {delta:>+10.3f} s  {bar}")
    for finding in diff.findings:
        if finding.job_id is None:
            lines.append(
                f"  {finding.category}: {finding.delta_s:+.3f} s "
                f"(no divergent decision found)"
            )
            continue
        lines.append(
            f"  {finding.category}: {finding.delta_s:+.3f} s; biggest mover "
            f"{finding.job_id} ({finding.job_delta_s:+.3f} s)"
        )
        lines.append(f"    {diff.label_a}: {_describe(finding.decision_a)}")
        lines.append(f"    {diff.label_b}: {_describe(finding.decision_b)}")
    return "\n".join(lines)


def explain_job(document: dict, job_id: str) -> str:
    """One job's story: the decision taken and where its time went."""
    job = document.get("jobs", {}).get(job_id)
    records = [
        DecisionRecord.from_dict(entry)
        for entry in document.get("decisions", ())
        if entry["job_id"] == job_id
    ]
    if job is None and not records:
        return f"{job_id}: no trace of this job in the run"
    lines = [f"job {job_id}"]
    for record in records:
        lines.append(f"  t={record.time:.3f}: {_describe(record)}")
        chosen = record.candidate(record.worker)
        beaten = record.candidate(record.runner_up) if record.runner_up else None
        if chosen is not None and beaten is not None:
            if chosen.score is not None and beaten.score is not None:
                lines.append(
                    f"    margin: {beaten.score - chosen.score:.3f} s "
                    f"({record.worker} {chosen.score:.3f} s vs "
                    f"{record.runner_up} {beaten.score:.3f} s)"
                )
            if chosen.local and beaten.local is False and record.repo_id:
                lines.append(
                    f"    cache hit on repo {record.repo_id} on {record.worker}; "
                    f"{record.runner_up} would have fetched it"
                )
    if job is not None:
        lines.append(
            f"  latency {job['finished'] - job['submitted']:.3f} s on "
            f"{job.get('worker')}:"
        )
        for name in CATEGORIES:
            value = job["categories"].get(name, 0.0)
            if value > 0:
                lines.append(f"    {name:<10} {value:>10.3f} s")
        slack = document.get("slack", {}).get(job_id)
        if slack is not None:
            on_chain = job_id in document.get("chain", ())
            lines.append(
                f"    slack      {slack:>10.3f} s"
                + ("  (on the critical path)" if on_chain else "")
            )
    return "\n".join(lines)


__all__ = [
    "EXPLAIN_SCHEMA",
    "DiffFinding",
    "RunDiff",
    "diff_runs",
    "explain_document",
    "explain_job",
    "load_explain",
    "render_diff",
    "write_explain",
]
