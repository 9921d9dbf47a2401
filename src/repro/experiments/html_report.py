"""Self-contained HTML report of the full reproduction.

``python -m repro report --out report.html`` runs Figures 2-4 and
Tables 1-3 and renders them as a single dependency-free HTML file with
inline SVG bar charts -- the shareable artifact of the reproduction.

Every section is one of the :class:`~repro.experiments.grid.Table` s the
text harness prints, so the report can never drift from the numbers.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.experiments import fig2_spark, fig3_aggregates, fig4_breakdown, tables_msr
from repro.experiments.grid import Table, run_grids

#: Series colours, in series order (paper-style two-series charts).
COLORS = ("#4878a8", "#e08830")

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial, sans-serif;
       max-width: 920px; margin: 2rem auto; padding: 0 1rem; color: #1a1a1a; }
h1 { border-bottom: 2px solid #ddd; padding-bottom: .4rem; }
h2 { margin-top: 2.2rem; white-space: pre-line; }
table { border-collapse: collapse; margin: 1rem 0; font-size: .92rem; }
th, td { border: 1px solid #ccc; padding: .35rem .7rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
thead { background: #f2f2f2; }
.note { color: #555; font-size: .9rem; white-space: pre-line; }
.legend span { display: inline-block; margin-right: 1.2rem; font-size: .9rem; }
.swatch { display: inline-block; width: .9em; height: .9em; margin-right: .35em;
          vertical-align: -0.1em; border-radius: 2px; }
"""


def _svg_grouped_bars(
    groups: Sequence[tuple[str, Sequence[tuple[str, float]]]],
    unit: str,
    width: int = 860,
) -> str:
    """Grouped horizontal bar chart as inline SVG: per group, one bar per
    ``(series, value)``, coloured by series position."""
    if not groups:
        raise ValueError("empty groups")
    bar_height = 16
    gap = 6
    group_gap = 18
    label_width = 200
    value_width = 90
    chart_width = width - label_width - value_width
    max_value = max(value for _label, bars in groups for _name, value in bars) or 1.0
    bars_height = len(groups[0][1]) * (bar_height + gap) - gap
    height = len(groups) * (bars_height + group_gap) + 10

    parts = [
        f'<svg width="{width}" height="{height}" role="img" '
        f'xmlns="http://www.w3.org/2000/svg" font-size="12" '
        f'font-family="inherit">'
    ]
    y = 5
    for label, bars in groups:
        parts.append(
            f'<text x="{label_width - 8}" y="{y + bars_height / 2 + 4}" '
            f'text-anchor="end">{html.escape(label)}</text>'
        )
        for offset, (_name, value) in enumerate(bars):
            bar_y = y + offset * (bar_height + gap)
            bar_w = max(value / max_value * chart_width, 1.0)
            parts.append(
                f'<rect x="{label_width}" y="{bar_y}" width="{bar_w:.1f}" '
                f'height="{bar_height}" fill="{COLORS[offset % len(COLORS)]}" rx="2"/>'
            )
            parts.append(
                f'<text x="{label_width + bar_w + 6:.1f}" y="{bar_y + bar_height - 4}" '
                f'fill="#333">{value:,.0f}{html.escape(unit)}</text>'
            )
        y += bars_height + group_gap
    parts.append("</svg>")
    return "".join(parts)


def _legend(series_names: Sequence[str]) -> str:
    return (
        '<p class="legend">'
        + "".join(
            f'<span><i class="swatch" style="background:{COLORS[index % len(COLORS)]}">'
            f"</i>{html.escape(name)}</span>"
            for index, name in enumerate(series_names)
        )
        + "</p>"
    )


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    head = "".join(f"<th>{html.escape(str(cell))}</th>" for cell in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(str(cell))}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def render_html(table: Table) -> str:
    """The HTML form of one :class:`Table`: title, table, bars, note."""
    parts = [f"<h2>{html.escape(table.title)}</h2>", _table(table.headers, table.rows)]
    if table.bars is not None:
        parts += [
            f"<h3>{html.escape(table.bars.title)}</h3>",
            _legend([name for name, _value in table.bars.groups[0][1]]),
            _svg_grouped_bars(table.bars.groups, table.bars.unit),
        ]
    if table.note:
        parts.append(f'<p class="note">{html.escape(table.note)}</p>')
    return "".join(parts)


def observability_html(seed: int = 11) -> str:
    """One small fixed-seed cell with tracing on, shown as ``repro trace``
    and ``repro explain`` print it: attribution, timeline, critical path."""
    from repro.experiments.runner import CellSpec, run_cell_observed
    from repro.obs import (
        attribute,
        build_spans,
        critical_path,
        render_attribution,
        render_critical_path,
        render_timeline,
        span_coverage,
    )

    spec = CellSpec(
        scheduler="bidding",
        workload="80%_small",
        profile="fast-slow",
        seed=seed,
        iterations=1,
        engine_overrides=(("trace", True), ("obs", True)),
    )
    results, runtime = run_cell_observed(spec)
    result = results[-1]
    trace = runtime.metrics.trace
    spans = build_spans(trace)
    coverage = span_coverage(trace, spans)
    label = f"{spec.scheduler} / {spec.workload} / {spec.profile}"
    views = [
        ("Sim-time attribution", render_attribution(attribute(trace, result.makespan_s))),
        (
            "Timeline",
            render_timeline(trace, result.makespan_s, probes=runtime.obs.probes, title=label),
        ),
    ]
    critical = critical_path(trace)
    if critical is not None:
        views.append(("Critical path", render_critical_path(critical)))
    return (
        "<h2>Observability — span trace of one cell</h2>"
        f'<p class="note">{html.escape(label)} (seed {seed}): '
        f"{result.jobs_completed} jobs, makespan {result.makespan_s:.1f}s, "
        f"{len(spans)} spans, {coverage.connected_jobs}/{coverage.completed_jobs} "
        f"jobs traced end-to-end, {len(runtime.obs.ledger.records)} allocation "
        "decisions in the ledger. Regenerate with <code>repro trace run.json</code> "
        "(load the JSON in chrome://tracing or ui.perfetto.dev) and "
        "<code>repro explain</code>; compare runs with "
        "<code>repro explain --diff A.json B.json</code>.</p>"
        + "".join(
            f'<h3>{title}</h3><pre style="font-size:.78rem;line-height:1.25">'
            f"{html.escape(text)}</pre>"
            for title, text in views
        )
    )


def build_report(tables: Sequence[Table], obs: str = "") -> str:
    """Render the full HTML document: the printed tables, then ``obs``
    (:func:`observability_html`'s section) if given."""
    sections = [render_html(table) for table in tables] + [obs]
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<title>Reproduction report: Distributed Data Locality-Aware Job Allocation</title>"
        f"<style>{_CSS}</style></head><body>"
        "<h1>Reproduction report</h1>"
        "<p>Markovic, Kolovos &amp; Indrusiak, "
        "<em>Distributed Data Locality-Aware Job Allocation</em> (SC-W 2023) — "
        "all figures/tables regenerated on the simulated substrate. "
        "See EXPERIMENTS.md for paper-vs-measured discussion.</p>"
        + "".join(sections)
        + "</body></html>"
    )


def generate(out: Union[str, Path], parallel: Optional[int] = None) -> Path:
    """Run all experiments, one seed per figure cell, and write the
    report; returns the path."""
    seeds = (11,)
    fig2, fig3, fig4 = run_grids(
        [
            fig2_spark.grid(seeds=seeds),
            fig3_aggregates.grid(seeds=seeds),
            fig4_breakdown.grid(seeds=seeds),
        ],
        parallel,
    )
    tables = (
        fig2_spark.tables(fig2)
        + fig3_aggregates.tables(fig3)
        + fig4_breakdown.tables(fig4)
        + tables_msr.tables(tables_msr.run_tables())
    )
    report = build_report(tables, obs=observability_html(seed=seeds[0]))
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report, encoding="utf-8")
    return path
