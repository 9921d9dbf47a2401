"""Measurement: the paper's three metrics plus diagnostics.

Section 6.1 defines the comparison metrics:

1. **End-to-end execution time** -- workflow makespan,
2. **Data load** -- megabytes of non-local data transferred to workers,
3. **Cache miss** -- number of times workers lacked the necessary data.

:mod:`repro.metrics.collector` accumulates these per run (plus
per-worker breakdowns, contest/rejection overhead and job latencies),
:mod:`repro.metrics.trace` keeps a structured job-lifecycle event log,
:mod:`repro.metrics.analysis` reads each job's lifecycle off that log,
and :mod:`repro.metrics.report` holds the per-run result row and the
comparative statistics the experiment harness prints.
"""

from repro.metrics.analysis import RunAnalysis, summarize
from repro.metrics.ascii_chart import bar_chart, grouped_bar_chart, sparkline
from repro.metrics.collector import MetricsCollector, WorkerMetrics
from repro.metrics.report import RunResult, mean, percent_change, speedup
from repro.metrics.stats import Comparison, bootstrap_ci, compare, mean_std
from repro.metrics.trace import Trace, TraceEvent

__all__ = [
    "Comparison",
    "MetricsCollector",
    "RunAnalysis",
    "RunResult",
    "Trace",
    "TraceEvent",
    "WorkerMetrics",
    "bar_chart",
    "bootstrap_ci",
    "compare",
    "grouped_bar_chart",
    "mean",
    "mean_std",
    "percent_change",
    "sparkline",
    "speedup",
    "summarize",
]
