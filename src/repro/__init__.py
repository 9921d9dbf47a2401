"""repro: reproduction of "Distributed Data Locality-Aware Job Allocation".

A from-scratch Python implementation of the paper's system stack
(Markovic, Kolovos & Indrusiak, SC-W 2023):

* :mod:`repro.sim`       -- discrete-event simulation kernel,
* :mod:`repro.net`       -- links, bandwidth sharing, noise, broker,
* :mod:`repro.data`      -- repositories, caches, GitHub service model,
* :mod:`repro.cluster`   -- worker specs, profiles, machines,
* :mod:`repro.workload`  -- jobs, the Crossflow pipeline DSL, the MSR
  workload and the paper's five job configurations,
* :mod:`repro.engine`    -- the Crossflow-like master/worker engine,
* :mod:`repro.schedulers`-- the paper's contribution, the Bidding
  Scheduler, and the Baseline, Spark-style, BAR, Matchmaking, Delay,
  Random and Round-robin allocation policies it is compared against,
* :mod:`repro.core`      -- the bidder's speed models, cost estimator
  and bid corrector,
* :mod:`repro.faults`    -- deterministic fault injection (crashes,
  partitions, degradation) and the master's recovery protocol,
* :mod:`repro.serve`     -- the open-loop service layer: arrivals,
  admission control, elastic workers,
* :mod:`repro.metrics`   -- the paper's three metrics + diagnostics,
* :mod:`repro.check`     -- correctness tooling: runtime invariant
  monitors and a trace-replay oracle,
* :mod:`repro.host`      -- the one host that wires a deployment, and
  the workflow runtime on it,
* :mod:`repro.fuzz`      -- a shrinking scenario fuzzer and its planted
  bugs,
* :mod:`repro.obs`       -- observability: causal span tracing,
  time-series probes, Perfetto/CSV exporters, ASCII timelines,
* :mod:`repro.exec`      -- a *real* multi-process execution backend
  (plan-then-execute), differentially validated against the simulator,
* :mod:`repro.experiments` -- one module per table/figure.

Quickstart
----------
Closed-loop (the paper's methodology -- a fixed workload run to
completion, three iterations with persisting caches):

>>> from repro import compare_schedulers
>>> rows = compare_schedulers("80%_large", "one-slow", seed=7)
>>> sorted(rows) == sorted({"baseline", "bidding"})
True

Open-loop (a long-running service under an arrival process):

``run_service(scheduler="bidding", arrival="poisson", rate=2.0,
duration_s=300.0)`` returns a :class:`~repro.serve.ServiceReport`.
With ``backend="real"`` the same call executes on actual worker
processes (:mod:`repro.exec`) instead of simulated ones.

Both entry points accept ``faults=FaultPlan(...)`` to inject worker
crashes, link degradation, partitions and message loss -- with the
master recovering orphaned jobs -- deterministically per seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan
    from repro.metrics.report import RunResult
    from repro.serve import ServiceReport


__getattr__, __dir__, _exports = lazy_exports(
    globals(),
    {
        "repro.check": ("CheckConfig", "InvariantViolation", "OracleMismatch", "verify_run"),
        "repro.faults": (
            "CrashRenewal",
            "FaultPlan",
            "LinkDegradation",
            "MessageLoss",
            "NetworkPartition",
            "RecoveryConfig",
            "WorkerCrash",
        ),
        "repro.host": ("EngineConfig", "WorkflowRuntime", "WorkflowStalled"),
        "repro.metrics.report": ("RunResult",),
        "repro.obs": ("ObsConfig", "build_spans", "perfetto_trace", "span_coverage"),
        "repro.serve": ("ServiceConfig", "ServiceReport", "ServiceRuntime"),
    },
)

__version__ = "1.2.0"

__all__ = sorted([*_exports, "compare_schedulers", "run_service", "run_workflow"])


def run_workflow(
    scheduler: str = "bidding",
    workload: str = "80%_large",
    profile: str = "all-equal",
    seed: int = 0,
    iterations: int = 3,
    faults: "FaultPlan | None" = None,
    allow_partial: bool = False,
    **scheduler_kwargs: object,
) -> list[RunResult]:
    """One-call experiment: run a scheduler on a paper workload.

    Returns one :class:`~repro.metrics.report.RunResult` per iteration,
    with worker caches persisting between iterations (the paper's
    methodology).  ``scheduler_kwargs`` forward to the scheduler factory
    (e.g. ``window_s=0.5`` for bidding).

    ``faults`` injects a :class:`FaultPlan` into every iteration;
    with ``allow_partial=True`` permanently failed jobs are reported on
    the result instead of raising :class:`WorkflowStalled`.
    """
    from repro.experiments.runner import CellSpec, run_cell

    spec = CellSpec(
        scheduler=scheduler,
        workload=workload,
        profile=profile,
        seed=seed,
        iterations=iterations,
        scheduler_kwargs=tuple(sorted(scheduler_kwargs.items())),
        faults=faults,
        allow_partial=allow_partial,
    )
    return run_cell(spec)


def run_service(
    scheduler: str = "bidding",
    profile: str = "all-equal",
    arrival: str = "poisson",
    rate: float = 2.0,
    seed: int = 0,
    faults: "FaultPlan | None" = None,
    autoscale: bool = False,
    backend: str = "sim",
    time_scale: float = 0.02,
    **overrides: object,
) -> ServiceReport:
    """One-call service run, symmetric with :func:`run_workflow`.

    Wires a :class:`~repro.serve.ServiceRuntime` -- an arrival process
    feeding admission control in front of the chosen scheduler -- runs
    it, and returns the :class:`~repro.serve.ServiceReport`.  The
    runtime is built by :func:`repro.serve.build_service`, as for
    ``repro serve``; it routes extra keyword overrides by field name:
    ``duration_s``/``deadline_s`` to :class:`ServiceConfig`,
    ``queue_cap``/``rate_limit`` to admission,
    ``min_workers``/``max_workers`` to the autoscaler (implying
    ``autoscale=True``), ``message_loss`` to :class:`EngineConfig`, and
    raises :class:`TypeError` on an unknown key.

    ``backend="real"`` additionally *executes* the run on the
    :mod:`repro.exec` multi-process pool
    (:func:`repro.exec.execute_service`): the sim still makes every
    allocation decision (plan-then-execute), then real worker processes
    replay the frozen plan with genuine sockets, heartbeats and caches,
    with each simulated second compressed to ``time_scale`` wall
    seconds.  The returned report keeps the sim's admission/latency
    fields (latency percentiles remain simulated) but carries the real
    pool's execution counters: ``completed``, ``failed``,
    ``cache_hits``, ``cache_misses``, ``data_load_mb``, ``crashes``,
    ``redispatches`` and ``duplicates_suppressed``.
    """
    from repro.serve import build_service

    if backend not in ("sim", "real"):
        raise ValueError(f"backend must be 'sim' or 'real', got {backend!r}")
    runtime = build_service(scheduler, profile, arrival, rate, seed, faults, autoscale, **overrides)
    if backend == "sim":
        return runtime.run()

    from repro.exec import execute_service

    _plan, _real, report = execute_service(runtime, time_scale)
    return report


def compare_schedulers(
    workload: str = "80%_large",
    profile: str = "all-equal",
    seed: int = 0,
    schedulers: tuple[str, ...] = ("baseline", "bidding"),
    iterations: int = 3,
) -> dict[str, list[RunResult]]:
    """Run several schedulers on the identical workload and return all
    per-iteration results, keyed by scheduler name."""
    return {
        name: run_workflow(
            scheduler=name,
            workload=workload,
            profile=profile,
            seed=seed,
            iterations=iterations,
        )
        for name in schedulers
    }
