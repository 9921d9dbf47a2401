"""Observability: causal spans, time-series probes, exporters.

``repro.obs`` is the one pipe every layer reports into when the
``EngineConfig.obs`` switch is on.  Each job's path through a run is
read off the trace once, by :func:`repro.metrics.analysis.lifecycles`;
the span tree, the critical-path tiling, the attribution table and the
explain document are projections of that one reader:

* :mod:`repro.obs.spans` -- projects the lifecycles onto a causal span
  tree (``submit -> contest -> transfer -> execute``) with trace/span/
  parent ids,
* :mod:`repro.obs.probes` -- a :class:`ProbeRegistry` sampling queue
  depth, busy flags, link/pipe occupancy, fleet size and service-level
  gauges on a sim-time cadence with ring-buffer retention,
* :mod:`repro.obs.recorder` -- the run-scoped :class:`ObsRecorder`, a
  subscriber on the run's observer seams (:mod:`repro.hooks`; broker
  flows, pipe steps), and the ``obs=True/False/ObsConfig`` normalisation,
* :mod:`repro.obs.export` -- Chrome/Perfetto ``trace_event`` JSON and
  CSV/JSON time-series dumps,
* :mod:`repro.obs.timeline` / :mod:`repro.obs.attribution` -- terminal
  timeline view and the flamegraph-style time-attribution table (every
  job's tiling, summed),
* :mod:`repro.obs.ledger` -- one :class:`DecisionRecord` per allocation
  (per-candidate scores, locality, runner-up, human-readable reason),
  written on the ``assigned`` seam for all schedulers,
* :mod:`repro.obs.critical_path` -- post-hoc makespan attribution: each
  job's lifecycle tiled into categories
  (schedule/contest/queue/transfer/execute/recovery), and the chain of
  jobs that set the makespan with per-job slack,
* :mod:`repro.obs.explain` -- the ``repro explain`` document: JSON
  dump/load, per-job narration and the run-diff explainer that reports
  where time moved between two runs and which decisions diverged.

Overhead contract: with ``obs`` off (the default for experiments)
nothing of it is subscribed, the seams only it watches are empty tuples,
and runs are bit-identical to builds without the subsystem; with
``obs`` on, the recorder is read-only and
draws no randomness, so measured metrics still match the unobserved run
exactly -- only extra timer events for probe sampling are added.
Each name loads on first use (:mod:`repro.lazy`), so a host that only
records loads the recorder, the ledger and the probes, not the readers.
"""

from repro.lazy import lazy_exports

# ``critical_path`` names a submodule and its function: bind the function
# now, or importing the submodule later would shadow it.
from repro.obs.critical_path import critical_path

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.obs.attribution": (
            "Attribution", "AttributionRow", "attribute", "render_attribution"
        ),
        "repro.obs.critical_path": (
            "CATEGORIES",
            "CriticalPath",
            "JobBreakdown",
            "critical_path",
            "job_breakdown",
            "render_critical_path",
        ),
        "repro.obs.explain": (
            "EXPLAIN_SCHEMA",
            "DiffFinding",
            "RunDiff",
            "diff_runs",
            "explain_document",
            "explain_job",
            "load_explain",
            "render_diff",
            "write_explain",
        ),
        "repro.obs.export": (
            "critical_path_rows",
            "perfetto_trace",
            "timeseries_rows",
            "write_critical_path_csv",
            "write_perfetto",
            "write_timeseries_csv",
            "write_timeseries_json",
        ),
        "repro.obs.ledger": ("CandidateScore", "DecisionLedger", "DecisionRecord"),
        "repro.obs.probes": ("Probe", "ProbeRegistry", "busy_fraction"),
        "repro.obs.recorder": ("FlowRecord", "ObsConfig", "ObsRecorder", "as_obs_config"),
        "repro.obs.spans": ("FLEET", "Span", "SpanCoverage", "build_spans", "span_coverage"),
        "repro.obs.timeline": ("render_timeline",),
    },
)
