"""Experiment cell driver.

A *cell* is one (scheduler, workload, profile, seed) combination run
for the paper's three iterations with worker caches persisting between
iterations (Section 6.3.1's methodology).  :func:`run_cell` executes a
cell; :func:`run_matrix` sweeps a cross product of cells, optionally in
parallel across processes (each cell is independent, so this is an
embarrassingly parallel map -- the classic HPC pattern).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

from repro.cluster.profiles import WorkerProfile, profile_by_name
from repro.config import apply_overrides
from repro.experiments.configs import ITERATIONS, default_engine_config
from repro.faults.plan import FaultPlan
from repro.host import EngineConfig, WorkflowRuntime
from repro.metrics.report import RunResult
from repro.schedulers.registry import make_scheduler
from repro.workload.generators import job_config_by_name


@dataclass(frozen=True)
class CellSpec:
    """One experiment cell: what to run and how many times.

    ``scheduler_kwargs`` must be hashable-friendly (a tuple of pairs) so
    specs stay frozen; use :meth:`with_scheduler_kwargs` to build them.
    """

    scheduler: str
    workload: str
    #: A profile name, or a :class:`WorkerProfile` the caller built
    #: (a fleet size or a speed spread the named profiles do not have).
    profile: str | WorkerProfile
    seed: int
    iterations: int = ITERATIONS
    keep_cache: bool = True
    scheduler_kwargs: tuple[tuple[str, object], ...] = ()
    #: Field overrides applied to the workload's JobConfig (e.g.
    #: ``(("mean_interarrival_s", 0.0),)`` for a burst submission).
    workload_overrides: tuple[tuple[str, object], ...] = ()
    engine: Optional[EngineConfig] = None
    #: Field overrides applied to the engine config (validated through
    #: :func:`repro.config.apply_overrides`; unknown keys raise).
    engine_overrides: tuple[tuple[str, object], ...] = ()
    #: Fault scenario injected into every iteration (``None`` = healthy run).
    faults: Optional[FaultPlan] = None
    #: Live-reconfiguration scenario -- job migrations and scheduler
    #: hot-swaps -- applied to every iteration (``None`` = static run);
    #: a :class:`~repro.reconfig.plan.ReconfigPlan`.
    reconfig: Optional[object] = None
    #: Return results even when jobs failed permanently, instead of
    #: raising :class:`~repro.host.WorkflowStalled`.
    allow_partial: bool = False

    def with_scheduler_kwargs(self, **kwargs: object) -> "CellSpec":
        """A copy with extra scheduler keyword arguments."""
        merged = dict(self.scheduler_kwargs)
        merged.update(kwargs)
        return replace(self, scheduler_kwargs=tuple(sorted(merged.items())))

    def engine_config(self) -> EngineConfig:
        """The engine configuration for this cell, overrides applied."""
        base = self.engine if self.engine is not None else default_engine_config(self.seed)
        if self.engine_overrides:
            base = apply_overrides(base, dict(self.engine_overrides))
        return base


def run_cell(spec: CellSpec) -> list[RunResult]:
    """Run one cell: ``iterations`` runs with persisting caches.

    The workload (corpus + arrival stream) is rebuilt identically every
    iteration from the cell seed -- the paper re-executes the same
    configuration so data locality from prior executions can show.
    """
    results, _runtime = run_cell_observed(spec)
    return results


def run_cell_observed(spec: CellSpec) -> tuple[list[RunResult], WorkflowRuntime]:
    """Like :func:`run_cell`, but also return the *last* runtime.

    The observability consumers (``repro trace``, the HTML report's obs
    section) need the live :class:`~repro.host.WorkflowRuntime`
    after it ran -- its trace, probe registry, recorded flows -- not just
    the scalar :class:`RunResult` rows.  The last iteration is the
    interesting one: caches are warm, matching the paper's steady state.
    """
    job_config = job_config_by_name(spec.workload)
    if spec.workload_overrides:
        job_config = replace(job_config, **dict(spec.workload_overrides))
    _corpus, stream = job_config.build(seed=spec.seed)
    caches: Optional[dict[str, dict[str, float]]] = None
    results: list[RunResult] = []
    runtime: Optional[WorkflowRuntime] = None
    for iteration in range(spec.iterations):
        scheduler = make_scheduler(spec.scheduler, **dict(spec.scheduler_kwargs))
        runtime = WorkflowRuntime(
            profile=(
                profile_by_name(spec.profile)
                if isinstance(spec.profile, str)
                else spec.profile
            ),
            stream=stream,
            scheduler=scheduler,
            config=spec.engine_config(),
            initial_caches=caches if spec.keep_cache else None,
            iteration=iteration,
            faults=spec.faults,
            allow_partial=spec.allow_partial,
            reconfig=spec.reconfig,
        )
        results.append(runtime.run())
        if spec.keep_cache:
            caches = runtime.cache_snapshot()
    assert runtime is not None  # iterations >= 1 by construction
    return results, runtime


def expand_matrix(
    schedulers: Sequence[str],
    workloads: Sequence[str],
    profiles: Sequence[str],
    seeds: Sequence[int],
    iterations: int = ITERATIONS,
    scheduler_kwargs: Optional[dict[str, dict[str, object]]] = None,
    workload_overrides: Optional[dict[str, object]] = None,
) -> list[CellSpec]:
    """The cross product of cells for a sweep.

    ``scheduler_kwargs`` maps scheduler name -> extra factory kwargs
    (e.g. ``{"spark": {"use_locality": False}}``); ``workload_overrides``
    applies JobConfig field overrides to every cell.
    """
    scheduler_kwargs = scheduler_kwargs or {}
    overrides = tuple(sorted((workload_overrides or {}).items()))
    cells = []
    for scheduler in schedulers:
        extra = tuple(sorted(scheduler_kwargs.get(scheduler, {}).items()))
        for workload in workloads:
            for profile in profiles:
                for seed in seeds:
                    cells.append(
                        CellSpec(
                            scheduler=scheduler,
                            workload=workload,
                            profile=profile,
                            seed=seed,
                            iterations=iterations,
                            scheduler_kwargs=extra,
                            workload_overrides=overrides,
                        )
                    )
    return cells


class MatrixCellError(RuntimeError):
    """A cell of :func:`run_matrix` failed in a worker process.

    Carries the failing :class:`CellSpec` (as :attr:`spec`) plus the
    worker-side traceback, so a 500-cell sweep that dies 20 minutes in
    names the exact (scheduler, workload, profile, seed) combination to
    re-run instead of a bare pickled exception.
    """

    def __init__(self, spec: CellSpec, cause: str) -> None:
        super().__init__(f"cell {spec} failed:\n{cause}")
        self.spec = spec


def _run_cell_guarded(cell: CellSpec):
    """Worker-side wrapper: tag failures with the cell that caused them.

    Returns ``("ok", results)`` or ``("err", traceback_text)`` -- the
    driver re-raises as :class:`MatrixCellError` with the spec attached
    (exceptions themselves may not survive pickling intact).
    """
    import traceback

    try:
        return ("ok", run_cell(cell))
    except Exception:
        return ("err", traceback.format_exc())


def run_matrix(
    cells: Iterable[CellSpec],
    parallel: Optional[int] = None,
) -> list[RunResult]:
    """Run many cells; ``parallel`` > 1 fans out across processes.

    Cells are independent simulations, so process-level parallelism is
    safe and linear; results are returned flattened, in cell order.
    Large sweeps are submitted with a ``chunksize`` so per-cell IPC
    (pickle + pipe round-trip) is amortised over batches; a failing
    cell raises :class:`MatrixCellError` naming its :class:`CellSpec`.
    """
    cell_list = list(cells)
    if parallel is None:
        parallel = 1
    if parallel <= 1 or len(cell_list) <= 1:
        results: list[RunResult] = []
        for cell in cell_list:
            results.extend(run_cell(cell))
        return results
    workers = min(parallel, len(cell_list), os.cpu_count() or 1)
    # ~4 chunks per worker balances IPC amortisation against tail
    # stragglers (cells vary in cost by scheduler and workload).
    chunksize = max(1, len(cell_list) // (workers * 4))
    results = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for cell, (status, payload) in zip(
            cell_list, pool.map(_run_cell_guarded, cell_list, chunksize=chunksize)
        ):
            if status == "err":
                raise MatrixCellError(cell, payload)
            results.extend(payload)
    return results


@dataclass
class ResultSet:
    """Query helper over a flat list of run results."""

    results: list[RunResult] = field(default_factory=list)

    def where(
        self,
        scheduler: Optional[str] = None,
        workload: Optional[str] = None,
        profile: Optional[str] = None,
        iteration: Optional[int] = None,
    ) -> list[RunResult]:
        """Filter by any combination of cell labels."""
        out = []
        for result in self.results:
            if scheduler is not None and result.scheduler != scheduler:
                continue
            if workload is not None and result.workload != workload:
                continue
            if profile is not None and result.profile != profile:
                continue
            if iteration is not None and result.iteration != iteration:
                continue
            out.append(result)
        return out

    def mean(self, metric: str, **labels: object) -> float:
        """Mean of any numeric :class:`RunResult` attribute over matching runs.

        ``metric`` names the attribute (``"makespan_s"``,
        ``"cache_misses"``, ``"data_load_mb"``, ``"cache_hits"``, ...);
        ``labels`` filter as in :meth:`where`.  Raises ``ValueError`` when
        nothing matches or the attribute does not exist / is not numeric.
        """
        rows = self.where(**labels)  # type: ignore[arg-type]
        if not rows:
            raise ValueError(f"no results match {labels}")
        try:
            values = [getattr(row, metric) for row in rows]
        except AttributeError:
            raise ValueError(f"RunResult has no metric {metric!r}") from None
        if not all(isinstance(v, (int, float)) for v in values):
            raise ValueError(f"metric {metric!r} is not numeric")
        return sum(values) / len(values)
