"""Exporters: golden Perfetto fixture, time-series dumps, timeline view."""

import csv
import json
from pathlib import Path

from repro.experiments.golden import golden_runtime
from repro.experiments.golden import record_perfetto as record
from repro.obs import (
    build_spans,
    perfetto_trace,
    render_timeline,
    timeseries_rows,
    write_perfetto,
    write_timeseries_csv,
    write_timeseries_json,
)

GOLDEN = Path(__file__).parent / "golden_perfetto.json"


class TestGoldenPerfetto:
    def test_fixture_matches_current_code(self):
        """The committed fixture pins the exporter byte-for-byte (as JSON
        values).  Deliberate changes re-record via
        ``python -m repro golden perfetto``."""
        committed = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert committed == record()

    def test_fixture_is_loadable_trace_event_json(self):
        document = json.loads(GOLDEN.read_text(encoding="utf-8"))
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in events}
        assert "M" in phases and "X" in phases and "C" in phases
        # Metadata names every track exactly once.
        threads = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        names = [e["args"]["name"] for e in threads]
        assert names[0] == "master"
        assert {"w1", "w2", "broker", "faults"} <= set(names)
        assert len(names) == len(set(names))
        # Complete events are well-formed: numeric ts/dur, known tids.
        tids = {e["tid"] for e in threads}
        for event in events:
            if event["ph"] == "X":
                assert event["tid"] in tids
                assert event["ts"] >= 0
                assert event["dur"] >= 0

    def test_span_events_link_parents(self):
        document = json.loads(GOLDEN.read_text(encoding="utf-8"))
        span_events = [
            e
            for e in document["traceEvents"]
            if e["ph"] == "X" and "span_id" in e.get("args", {})
        ]
        ids = {e["args"]["span_id"] for e in span_events}
        for event in span_events:
            parent = event["args"].get("parent_id")
            if parent is not None:
                assert parent in ids


class TestWriters:
    def test_write_perfetto_round_trips(self, tmp_path):
        runtime = golden_runtime()
        runtime.run()
        trace = runtime.metrics.trace
        out = tmp_path / "trace.json"
        write_perfetto(
            out,
            trace,
            spans=build_spans(trace),
            probes=runtime.obs.probes,
            flows=runtime.obs.flows,
            label="golden",
        )
        assert json.loads(out.read_text(encoding="utf-8")) == perfetto_trace(
            trace,
            spans=build_spans(trace),
            probes=runtime.obs.probes,
            flows=runtime.obs.flows,
            label="golden",
        )

    def test_timeseries_csv_and_json(self, tmp_path):
        runtime = golden_runtime()
        runtime.run()
        probes = runtime.obs.probes
        rows = timeseries_rows(probes)
        assert rows and all(len(row) == 3 for row in rows)

        csv_path = tmp_path / "probes.csv"
        write_timeseries_csv(csv_path, probes)
        with open(csv_path, newline="", encoding="utf-8") as handle:
            parsed = list(csv.reader(handle))
        assert parsed[0] == ["probe", "time_s", "value"]
        assert len(parsed) == len(rows) + 1

        json_path = tmp_path / "probes.json"
        write_timeseries_json(json_path, probes)
        document = json.loads(json_path.read_text(encoding="utf-8"))
        assert set(document) == set(probes.names())
        for name, series in document.items():
            assert len(series["times"]) == len(series["values"])

    def test_flows_recorded_with_latency(self):
        runtime = golden_runtime()
        runtime.run()
        flows = list(runtime.obs.flows)
        assert flows
        for flow in flows:
            assert flow.delivered_at >= flow.published_at
            assert flow.topic and flow.message


class TestTimeline:
    def test_render_timeline_sections(self):
        runtime = golden_runtime()
        result = runtime.run()
        text = render_timeline(
            runtime.metrics.trace,
            result.makespan_s,
            probes=runtime.obs.probes,
            title="golden run",
        )
        assert text.startswith("golden run")
        assert "workers (# busy, . idle):" in text
        assert "probes:" in text
        assert "w1" in text and "w2" in text

    def test_timeline_without_probes(self):
        runtime = golden_runtime()
        result = runtime.run()
        text = render_timeline(runtime.metrics.trace, result.makespan_s)
        assert "probes:" not in text
