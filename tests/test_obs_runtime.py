"""Cross-layer observability wiring: fault surfacing, trace index,
invariant-violation lifecycle context, service probes, CLI trace."""

import json

import pytest

from conftest import make_profile, make_spec
from repro.check.invariants import InvariantMonitor, InvariantViolation
from repro.faults import FaultPlan, RecoveryConfig, WorkerCrash
from repro.host import EngineConfig, WorkflowRuntime
from repro.metrics.trace import Trace
from repro.schedulers.registry import make_scheduler
from repro.workload.job import Job, JobStream
from repro.workload.msr import TASK_ANALYZER


def burst_stream(n=8, size=10.0):
    return JobStream.burst(
        [
            Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i}", size_mb=size)
            for i in range(n)
        ]
    )


class TestFaultSurfacing:
    def test_injector_actions_appear_in_main_trace(self):
        plan = FaultPlan(
            crashes=(WorkerCrash(at_s=1.0, worker="w1", restart_after_s=2.0),),
            recovery=RecoveryConfig(),
        )
        runtime = WorkflowRuntime(
            profile=make_profile(make_spec("w1"), make_spec("w2")),
            stream=burst_stream(),
            scheduler=make_scheduler("bidding"),
            config=EngineConfig(seed=4),
            faults=plan,
        )
        runtime.run()
        trace = runtime.metrics.trace
        crashes = trace.of_kind("fault_crash")
        restarts = trace.of_kind("fault_restart")
        assert [event.worker for event in crashes] == ["w1"]
        assert [event.worker for event in restarts] == ["w1"]
        # Fleet-level events carry the placeholder job id.
        assert all(event.job_id == "-" for event in crashes + restarts)
        # The injector's private log and the trace agree on times.
        injector_times = [at for at, kind, _ in runtime.injector.events if kind == "crash"]
        assert [event.time for event in crashes] == injector_times

    def test_fault_events_skipped_when_trace_disabled(self):
        plan = FaultPlan(
            crashes=(WorkerCrash(at_s=1.0, worker="w1", restart_after_s=2.0),),
            recovery=RecoveryConfig(),
        )
        runtime = WorkflowRuntime(
            profile=make_profile(make_spec("w1"), make_spec("w2")),
            stream=burst_stream(),
            scheduler=make_scheduler("bidding"),
            config=EngineConfig(seed=4, trace=False),
            faults=plan,
        )
        runtime.run()
        assert len(runtime.metrics.trace.events) == 0
        # ... but the injector's own log still records everything.
        assert any(kind == "crash" for _, kind, _ in runtime.injector.events)


class TestTraceIndex:
    def test_for_job_matches_linear_scan(self):
        trace = Trace()
        for i in range(50):
            trace.record(float(i), "submitted", f"j{i % 5}")
            trace.record(float(i) + 0.5, "completed", f"j{i % 5}", "w1")
        for job_id in (f"j{i}" for i in range(5)):
            expected = [e for e in trace.events if e.job_id == job_id]
            assert trace.for_job(job_id) == expected

    def test_index_extends_after_new_records(self):
        trace = Trace()
        trace.record(0.0, "submitted", "j1")
        assert len(trace.for_job("j1")) == 1  # index built here
        trace.record(1.0, "completed", "j1", "w1")
        assert len(trace.for_job("j1")) == 2  # incrementally extended
        assert trace.first("completed", "j1").time == 1.0

    def test_index_rebuilt_after_truncation(self):
        trace = Trace()
        for i in range(10):
            trace.record(float(i), "submitted", f"j{i}")
        assert trace.for_job("j9")
        del trace.events[5:]  # external truncation (fuzzer shrinking)
        assert trace.for_job("j9") == []
        assert len(trace.for_job("j4")) == 1

    def test_for_job_returns_copy(self):
        trace = Trace()
        trace.record(0.0, "submitted", "j1")
        events = trace.for_job("j1")
        events.append("garbage")
        assert len(trace.for_job("j1")) == 1

    def test_first_missing_is_none(self):
        trace = Trace()
        assert trace.first("completed", "nope") is None


JOB = Job(job_id="j1", task=TASK_ANALYZER, repo_id="r", size_mb=1.0)


class TestViolationLifecycle:
    def test_violation_carries_job_lifecycle_from_trace(self):
        monitor = InvariantMonitor()
        trace = Trace()
        trace.record(0.0, "submitted", "j1")
        trace.record(1.0, "assigned", "j1", "w1")
        monitor.trace = trace
        with pytest.raises(InvariantViolation) as err:
            # Completion without a submission seen by the monitor.
            monitor.on_completed(JOB, "w1", now=2.0)
        kinds = [kind for _, kind, _ in err.value.events]
        assert "trace:submitted" in kinds
        assert "trace:assigned" in kinds

    def test_violation_without_trace_still_raises(self):
        monitor = InvariantMonitor()
        assert monitor.trace is None
        with pytest.raises(InvariantViolation):
            monitor.on_completed(JOB, "w1", now=2.0)


class TestServiceObs:
    def test_service_probes_and_slo_gauge(self):
        from repro.serve import (
            AdmissionConfig,
            ServiceConfig,
            ServiceRuntime,
            make_arrivals,
        )

        runtime = ServiceRuntime(
            profile=make_profile(make_spec("w1"), make_spec("w2")),
            scheduler=make_scheduler("bidding"),
            arrivals=make_arrivals("poisson", rate=1.0),
            admission_config=AdmissionConfig(queue_cap=8),
            service_config=ServiceConfig(duration_s=30.0, deadline_s=60.0),
            config=EngineConfig(seed=5, obs=True),
        )
        runtime.run()
        names = runtime.obs.probes.names()
        for expected in (
            "service.inflight",
            "admission.depth",
            "admission.shed",
            "slo.attainment",
            "fleet.active",
        ):
            assert expected in names, names
        attainment = [v for _, v in runtime.obs.probes.series("slo.attainment")]
        assert all(0.0 <= value <= 1.0 for value in attainment)

    def test_service_obs_off_is_none(self):
        from repro.serve import AdmissionConfig, ServiceConfig, ServiceRuntime, make_arrivals

        runtime = ServiceRuntime(
            profile=make_profile(make_spec("w1")),
            scheduler=make_scheduler("bidding"),
            arrivals=make_arrivals("poisson", rate=1.0),
            admission_config=AdmissionConfig(queue_cap=8),
            service_config=ServiceConfig(duration_s=10.0),
            config=EngineConfig(seed=5),
        )
        assert runtime.obs is None
        runtime.run()


class TestCli:
    def test_trace_subcommand_writes_perfetto(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.json"
        code = main(
            [
                "trace",
                str(out),
                "--scheduler",
                "bidding",
                "--workload",
                "80%_small",
                "--profile",
                "fast-slow",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["traceEvents"]
        stdout = capsys.readouterr().out
        assert "jobs traced end-to-end" in stdout
        assert "chrome://tracing" in stdout

    def test_trace_subcommand_console_views(self, capsys):
        from repro.cli import main

        code = main(
            [
                "trace",
                "--scheduler",
                "bidding",
                "--workload",
                "80%_small",
                "--profile",
                "fast-slow",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "workers (# busy, . idle):" in stdout
        assert "time attribution" in stdout

    def test_run_trace_out_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.json"
        code = main(
            [
                "run",
                "--scheduler",
                "bidding",
                "--workload",
                "80%_small",
                "--profile",
                "fast-slow",
                "--seed",
                "7",
                "--iterations",
                "1",
                "--trace-out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["traceEvents"]
