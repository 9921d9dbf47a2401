"""Figures, tables and sweeps as data: one cell grid, one table type.

Section 6.3.1 of the paper defines its evaluation as one grid -- "all
combinations of worker and job configurations, in three iterations
each" -- and every figure, table, ablation and sweep of the harness is
spelled that way:

* a :data:`Grid` is a list of labelled rows, each mapping a column
  label to the :class:`~repro.experiments.runner.CellSpec` s behind it;
* :func:`run_grids` runs every cell of any number of grids in one
  :func:`~repro.experiments.runner.run_matrix` call and gives each
  (row, column) its own :class:`~repro.experiments.runner.ResultSet`,
  so every number a driver prints is a ``ResultSet.mean``;
* a driver turns that :data:`Sweep` into :class:`Table` s, which have
  one text form (:func:`render`, what the CLI prints) and one HTML form
  (:func:`repro.experiments.html_report.build_report`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, Optional, Sequence

from repro.experiments.runner import CellSpec, ResultSet, run_matrix
from repro.metrics.ascii_chart import grouped_bar_chart
from repro.metrics.report import format_table, percent_change

#: ``[(row label, {column label: cells})]``, in print order.
Grid = list[tuple[Hashable, dict[str, list[CellSpec]]]]
#: ``{row label: {column label: results}}`` -- a grid that ran.
Sweep = dict[Hashable, dict[str, ResultSet]]


def run_grids(grids: Sequence[Grid], parallel: Optional[int] = None) -> list[Sweep]:
    """Run every cell of ``grids`` in one :func:`run_matrix` call."""
    cells = [
        cell
        for grid in grids
        for _label, columns in grid
        for specs in columns.values()
        for cell in specs
    ]
    results = iter(run_matrix(cells, parallel=parallel))

    def take(specs: list[CellSpec]) -> ResultSet:
        return ResultSet([next(results) for spec in specs for _ in range(spec.iterations)])

    return [
        {label: {name: take(specs) for name, specs in columns.items()} for label, columns in grid}
        for grid in grids
    ]


def single(label: Hashable, cell: CellSpec) -> tuple[Hashable, dict[str, list[CellSpec]]]:
    """A row running ``cell`` alone, in a column named after its scheduler."""
    return (label, {cell.scheduler: [cell]})


def pair(label: Hashable, cell: CellSpec) -> tuple[Hashable, dict[str, list[CellSpec]]]:
    """A row running ``cell`` under bidding and under baseline."""
    return (label, {name: [replace(cell, scheduler=name)] for name in ("bidding", "baseline")})


def speedup(
    row: dict[str, ResultSet],
    over: str = "baseline",
    of: str = "bidding",
    iteration: Optional[int] = None,
) -> float:
    """How many times faster column ``of`` finishes than ``over``."""
    return row[over].mean("makespan_s", iteration=iteration) / row[of].mean(
        "makespan_s", iteration=iteration
    )


def reduction(row: dict[str, ResultSet], metric: str) -> float:
    """How much less of ``metric`` bidding needs than baseline, in percent."""
    return percent_change(row["baseline"].mean(metric), row["bidding"].mean(metric))


@dataclass(frozen=True)
class Bars:
    """A grouped bar chart: ``(group, [(series, value), ...])`` per group."""

    title: str
    unit: str
    groups: Sequence[tuple[str, Sequence[tuple[str, float]]]]


@dataclass(frozen=True)
class Table:
    """One printed table of a figure, table, ablation or sweep."""

    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence[str]]
    bars: Optional[Bars] = None
    note: str = ""


def render(tables: Sequence[Table]) -> str:
    """The text form: each table, then its bars, then its note."""
    parts = []
    for table in tables:
        parts.append(format_table(table.headers, table.rows, title=table.title))
        if table.bars is not None:
            parts.append(
                grouped_bar_chart(table.bars.groups, title=table.bars.title, unit=table.bars.unit)
            )
        if table.note:
            parts.append(table.note)
    return "\n\n".join(parts)


def compared(
    title: str,
    headers: Sequence[str],
    sweep: Sweep,
    metric: str,
    fmt: str,
    order: Sequence[str] = ("baseline", "bidding"),
    **extra,
) -> Table:
    """One line per sweep row: the mean ``metric`` of each column in
    ``order`` (``fmt`` is a ``str.format`` template), then bidding's
    :func:`reduction`."""
    return Table(
        title,
        headers,
        [
            [label]
            + [fmt.format(row[name].mean(metric)) for name in order]
            + [f"{reduction(row, metric):+.1f}"]
            for label, row in sweep.items()
        ],
        **extra,
    )
