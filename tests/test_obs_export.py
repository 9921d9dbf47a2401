"""Exporters: golden Perfetto fixture, time-series dumps, timeline view."""

import csv
import json
from pathlib import Path
from types import SimpleNamespace

from repro.cluster.profiles import profile_by_name
from repro.engine.messages import Assignment, Bid, PullRequest
from repro.engine.runtime import EngineConfig
from repro.experiments.golden import golden_runtime
from repro.experiments.golden import record_perfetto as record
from repro.faults import FaultPlan, MessageLoss
from repro.obs import (
    FlowRecord,
    ObsConfig,
    ObsRecorder,
    build_spans,
    perfetto_trace,
    render_timeline,
    timeseries_rows,
    write_perfetto,
    write_timeseries_csv,
    write_timeseries_json,
)

from repro.schedulers.registry import make_scheduler
from repro.serve import ServiceConfig, ServiceRuntime, make_arrivals
from repro.sim import Simulator
from repro.workload.job import Job
from repro.workload.msr import TASK_ANALYZER

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


class TestFlowPairing:
    """``ObsConfig`` says "all bounded": so is the pairing table."""

    def test_undelivered_publishes_are_evicted_at_retention(self):
        # Half of all bids are lost for ten simulated minutes.  Each lost
        # publish used to keep its key for the life of the run (62 of
        # them here); past ``retention`` the oldest now goes.
        runtime = ServiceRuntime(
            profile=profile_by_name("all-equal"),
            scheduler=make_scheduler("bidding"),
            arrivals=make_arrivals("poisson", rate=1.0),
            service_config=ServiceConfig(duration_s=600.0),
            config=EngineConfig(seed=3, obs=ObsConfig(retention=16)),
            faults=FaultPlan(
                message_loss=(MessageLoss(start_s=0.0, end_s=600.0, probability=0.5),)
            ),
        )
        peak = 0
        publish = runtime.obs.on_publish

        def on_publish(topic, message, now):
            nonlocal peak
            publish(topic, message, now)
            peak = max(peak, len(runtime.obs._inflight))

        runtime.obs.on_publish = on_publish
        report = runtime.run()
        assert report.completed == report.admitted > 200
        assert peak == 16
        flows = runtime.obs.flows
        assert len(flows) == 16 and all(isinstance(flow, FlowRecord) for flow in flows)

    def test_keys_by_message_type(self):
        # job_id, else job.job_id, else worker -- and the whole chain for
        # a message whose first attribute holds None.
        recorder = ObsRecorder(Simulator(), ObsConfig())
        job = Job(job_id="j1", task=TASK_ANALYZER, repo_id="r", size_mb=1.0)
        messages = [
            (Bid(job_id="j1", worker="w1", cost_s=1.0), "j1"),
            (Assignment(job=job), "j1"),
            (PullRequest(worker="w2"), "w2"),
            (SimpleNamespace(job_id=None, job=job, worker="w3"), "j1"),
            (SimpleNamespace(job_id=None, job=None, worker="w3"), "w3"),
            (SimpleNamespace(job_id=7), "7"),
            ("plain string", ""),
        ]
        for now, (message, _) in enumerate(messages):
            recorder.on_publish("t", message, float(now))
        for message, _ in messages:
            recorder.on_deliver("t", "rx", message, 10.0)
        # (The two namespaces keyed "j1"/"w3" share a type name; the
        # second j1 publish re-keyed the first, as redeliveries do.)
        assert [(flow.message, flow.key) for flow in recorder.flows] == [
            ("Bid", "j1"),
            ("Assignment", "j1"),
            ("PullRequest", "w2"),
            ("SimpleNamespace", "j1"),
            ("SimpleNamespace", "w3"),
            ("SimpleNamespace", "7"),
            ("str", ""),
        ]


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
