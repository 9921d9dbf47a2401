"""Observability: causal spans, time-series probes, exporters.

``repro.obs`` is the one pipe every layer reports into when the
``EngineConfig.obs`` switch is on:

* :mod:`repro.obs.spans` -- promotes the flat trace into a causal span
  tree (``submit -> contest -> transfer -> execute``) with trace/span/
  parent ids, plus the :class:`SpanContext` the master threads through
  ``Assignment``/``JobCompleted`` messages at run time,
* :mod:`repro.obs.probes` -- a :class:`ProbeRegistry` sampling queue
  depth, busy flags, link/pipe occupancy, fleet size and service-level
  gauges on a sim-time cadence with ring-buffer retention,
* :mod:`repro.obs.recorder` -- the run-scoped :class:`ObsRecorder` glue
  (broker flows, pipe steps, ctx round-trips) and the ``obs=True/False/
  ObsConfig`` normalisation,
* :mod:`repro.obs.export` -- Chrome/Perfetto ``trace_event`` JSON and
  CSV/JSON time-series dumps,
* :mod:`repro.obs.timeline` / :mod:`repro.obs.attribution` -- terminal
  timeline view and the flamegraph-style time-attribution table,
* :mod:`repro.obs.ledger` -- one :class:`DecisionRecord` per allocation
  (per-candidate scores, locality, runner-up, human-readable reason),
  emitted at the master's single assignment seam for all schedulers,
* :mod:`repro.obs.critical_path` -- post-hoc makespan attribution: the
  chain of jobs that set the makespan, tiled into categories
  (schedule/contest/queue/transfer/execute/recovery) with per-job slack,
* :mod:`repro.obs.explain` -- the ``repro explain`` document: JSON
  dump/load, per-job narration and the run-diff explainer that reports
  where time moved between two runs and which decisions diverged.

Overhead contract: with ``obs`` off (the default for experiments) every
hook site is a ``None`` check and runs are bit-identical to builds
without the subsystem; with ``obs`` on, the recorder is read-only and
draws no randomness, so measured metrics still match the unobserved run
exactly -- only extra timer events for probe sampling are added.
"""

from repro.obs.attribution import Attribution, AttributionRow, attribute, render_attribution
from repro.obs.critical_path import (
    CATEGORIES,
    CriticalPath,
    JobBreakdown,
    critical_path,
    job_breakdown,
    render_critical_path,
)
from repro.obs.explain import (
    EXPLAIN_SCHEMA,
    DiffFinding,
    RunDiff,
    diff_runs,
    explain_document,
    explain_job,
    load_explain,
    render_diff,
    write_explain,
)
from repro.obs.export import (
    critical_path_rows,
    perfetto_trace,
    timeseries_rows,
    write_critical_path_csv,
    write_perfetto,
    write_timeseries_csv,
    write_timeseries_json,
)
from repro.obs.ledger import CandidateScore, DecisionLedger, DecisionRecord
from repro.obs.probes import Probe, ProbeRegistry, busy_fraction
from repro.obs.recorder import FlowRecord, ObsConfig, ObsRecorder, as_obs_config
from repro.obs.spans import (
    FLEET,
    Span,
    SpanContext,
    SpanCoverage,
    build_spans,
    span_coverage,
)
from repro.obs.timeline import render_timeline

__all__ = [
    "Attribution",
    "AttributionRow",
    "CATEGORIES",
    "CandidateScore",
    "CriticalPath",
    "DecisionLedger",
    "DecisionRecord",
    "DiffFinding",
    "EXPLAIN_SCHEMA",
    "FLEET",
    "FlowRecord",
    "JobBreakdown",
    "ObsConfig",
    "ObsRecorder",
    "Probe",
    "ProbeRegistry",
    "RunDiff",
    "Span",
    "SpanContext",
    "SpanCoverage",
    "as_obs_config",
    "attribute",
    "build_spans",
    "busy_fraction",
    "critical_path",
    "critical_path_rows",
    "diff_runs",
    "explain_document",
    "explain_job",
    "job_breakdown",
    "load_explain",
    "perfetto_trace",
    "render_attribution",
    "render_critical_path",
    "render_diff",
    "render_timeline",
    "span_coverage",
    "timeseries_rows",
    "write_critical_path_csv",
    "write_perfetto",
    "write_timeseries_csv",
    "write_timeseries_json",
]
