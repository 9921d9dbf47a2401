"""The observer seams (:mod:`repro.hooks`): the list is closed, the
witnesses of a message are one predicate, every mutation is emitted
once, and no guard creeps back."""

import ast
import inspect
import pathlib
import re

import pytest

import repro
from conftest import make_profile, make_spec
from repro.check.invariants import InvariantMonitor
from repro.exec.plan import PlanRecorder
from repro.hooks import SEAMS, Hooks
from repro.host import EngineConfig, WorkflowRuntime
from repro.metrics.collector import MetricsCollector
from repro.obs import DecisionLedger, ObsConfig, ObsRecorder
from repro.schedulers.registry import make_scheduler
from repro.serve import ServiceRuntime
from repro.workload.job import Job, JobStream
from repro.workload.msr import TASK_ANALYZER

SRC = pathlib.Path(repro.__file__).parent

#: Every class the hosts subscribe to a table.
SUBSCRIBERS = (
    MetricsCollector,
    InvariantMonitor,
    ObsRecorder,
    DecisionLedger,
    ServiceRuntime,
    PlanRecorder,
)

#: The modules that emit on the seams instead of holding an observer.
EMITTERS = (
    "engine/master.py",
    "engine/worker.py",
    "net/broker.py",
    "net/bandwidth.py",
    "schedulers/bidding.py",
    "schedulers/pull.py",
    "reconfig/controller.py",
    "faults/injector.py",
    "serve/service.py",
    "exec/pool.py",
)

#: The seams a bidding contest is emitted on.
CONTEST_SEAMS = ("contest_opened", "bid", "contest_closed")

WATCHER_NAMES = frozenset({"monitor", "obs", "ledger"})


def table_reads():
    """``(path, line, name)`` of every ``<...>.hooks.<name>`` in ``src/``."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "hooks"
            ):
                yield path.relative_to(SRC), node.lineno, node.attr


def hooks_of(cls):
    """``on_<name>`` -> the method, for every public hook of ``cls``."""
    return {name[3:]: method for name, method in inspect.getmembers(cls) if name.startswith("on_")}


class TestTheListIsClosed:
    def test_every_seam_is_emitted_in_src(self):
        emitted = {name for _, _, name in table_reads()}
        assert set(SEAMS) - emitted == set()

    def test_every_table_read_names_a_seam(self):
        unknown = [read for read in table_reads() if read[2] not in (*SEAMS, "subscribe", "clear")]
        assert unknown == []

    def test_every_seam_has_a_subscriber(self):
        handled = {seam for cls in SUBSCRIBERS for seam in hooks_of(cls)}
        assert set(SEAMS) - handled == set()

    @pytest.mark.parametrize(
        "cls", [MetricsCollector, InvariantMonitor, ObsRecorder], ids=lambda cls: cls.__name__
    )
    def test_every_public_hook_names_a_seam(self, cls):
        assert set(hooks_of(cls)) - set(SEAMS) == set()

    @pytest.mark.parametrize("cls", SUBSCRIBERS, ids=lambda cls: cls.__name__)
    def test_every_hook_takes_its_seams_arguments(self, cls):
        for seam, method in hooks_of(cls).items():
            if seam in SEAMS:
                params = tuple(inspect.signature(method).parameters)[1:]
                assert params == SEAMS[seam], f"{cls.__name__}.on_{seam}"

    def test_subscription_order_is_call_order(self):
        calls = []

        class Watcher:
            def __init__(self, name):
                self.name = name

            def on_migration_settled(self, now):
                calls.append((self.name, now))

        hooks = Hooks()
        assert hooks.migration_settled == ()
        hooks.subscribe(Watcher("a"))
        hooks.subscribe(Watcher("b"))
        for hook in hooks.migration_settled:
            hook(1.0)
        assert calls == [("a", 1.0), ("b", 1.0)]
        assert Hooks().migration_settled == ()  # a table's subscribers are its own

    def test_a_watcher_that_handles_no_seam_is_refused(self):
        class Misspelt:
            def on_migration_setled(self, now):
                pass

        with pytest.raises(TypeError, match="Misspelt handles no seam"):
            Hooks().subscribe(Misspelt())


def guards_a_watcher(node):
    """``<...>.monitor is None`` (or ``is not None``; also ``obs``,
    ``ledger`` and bare names)."""
    if not (isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.Is, ast.IsNot))):
        return False
    if not (isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value is None):
        return False
    left = node.left
    name = left.attr if isinstance(left, ast.Attribute) else getattr(left, "id", None)
    return name in WATCHER_NAMES


@pytest.mark.parametrize("module", EMITTERS)
def test_no_emitter_guards_a_watcher_against_none(module):
    tree = ast.parse((SRC / module).read_text())
    guards = [node.lineno for node in ast.walk(tree) if guards_a_watcher(node)]
    assert guards == [], f"{module} guards a watcher at lines {guards}"


def test_the_guard_check_catches_a_guard():
    source = "if self.monitor is not None:\n    pass\nif obs is None:\n    pass\n"
    assert sum(guards_a_watcher(node) for node in ast.walk(ast.parse(source))) == 2


#: Cells of ``messages_witnessed``; every answer is the one the
#: collector/broker attributes gave before the table replaced them.
WITNESS_CELLS = {
    "all-off": (dict(trace=False), False),
    "trace-only": (dict(trace=True), True),
    "check-only": (dict(trace=False, check=True), True),
    "obs-only": (dict(trace=False, obs=True), True),
    "obs-flows-off": (dict(trace=False, obs=ObsConfig(flows=False)), True),
    "lossy-broker": (dict(trace=False, message_loss=0.2), True),
}


@pytest.mark.parametrize("scheduler", ["bidding", "baseline"])
@pytest.mark.parametrize("cell", sorted(WITNESS_CELLS))
def test_messages_witnessed_per_cell(cell, scheduler):
    config, witnessed = WITNESS_CELLS[cell]
    jobs = [
        Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i % 2}", size_mb=10.0) for i in range(4)
    ]
    runtime = WorkflowRuntime(
        profile=make_profile(make_spec("w1"), make_spec("w2")),
        stream=JobStream.burst(jobs),
        scheduler=make_scheduler(scheduler),
        config=EngineConfig(seed=3, **config),
    )
    runtime.master.start()  # binds the policy
    assert runtime.master.policy.messages_witnessed() is witnessed


def test_every_other_contest_watcher_also_watches_the_messages():
    # Why a contest seam need not be a witness: of the hosts' watchers,
    # only the collector handles a contest seam without seeing the
    # messages themselves, and its counts survive a computed contest.
    for cls in SUBSCRIBERS:
        handled = hooks_of(cls)
        if cls is not MetricsCollector and any(seam in handled for seam in CONTEST_SEAMS):
            assert "publish" in handled or "deliver" in handled, cls.__name__


def bidding_run(trace):
    jobs = [
        Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i % 3}", size_mb=10.0 + i)
        for i in range(12)
    ]
    return WorkflowRuntime(
        profile=make_profile(make_spec("w1"), make_spec("w2"), make_spec("w3", network=5.0)),
        stream=JobStream.burst(jobs),
        scheduler=make_scheduler("bidding"),
        config=EngineConfig(seed=5, trace=trace),
    )


def totals(metrics):
    """Every counter of ``metrics`` but the trace."""
    fields = {
        name: value
        for name, value in vars(metrics).items()
        if name not in ("trace", "workers") and not name.startswith("_")
    }
    return fields, {name: vars(block) for name, block in metrics.workers.items()}


def test_a_subscribed_collector_leaves_contests_computed():
    computed = bidding_run(trace=False)
    assert computed.metrics.on_contest_opened in computed.hooks.contest_opened
    computed.run()
    assert computed.master.policy.messages_witnessed() is False
    assert computed.metrics.contests_opened == 12
    assert computed.master.policy.planes.bidders  # the contests ran off the planes
    brokered = bidding_run(trace=True)
    brokered.run()
    assert brokered.master.policy.planes.bidders == []
    assert totals(computed.metrics) == totals(brokered.metrics)


#: A call that mutates the collector: one of its handlers, or a name the
#: model called it by before it became a subscriber.
MUTATION = re.compile(
    r"on_\w+|job_\w+|worker_\w+|record_\w+|offer_\w+|contest_\w+"
    r"|bid_received|run_\w+|scheduler_swapped|duplicate_suppressed"
)


def direct_reports(tree):
    """Lines of ``<...>.metrics.<mutation>(...)`` and ``<...>.trace.record(...)``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        receiver, method = node.func.value, node.func.attr
        name = getattr(receiver, "attr", None) or getattr(receiver, "id", None)
        if (name == "metrics" and MUTATION.fullmatch(method)) or (
            name == "trace" and method == "record"
        ):
            yield node.lineno


def test_the_gate_knows_every_collector_mutation():
    public = {
        name
        for name, member in vars(MetricsCollector).items()
        if callable(member) and not name.startswith("_") and name != "worker"
    }
    assert {name for name in public if not MUTATION.fullmatch(name)} == set()


def test_nothing_outside_metrics_reports_to_the_collector_directly():
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path.parent.name != "metrics"
        for line in direct_reports(ast.parse(path.read_text()))
    ]
    assert found == []


def test_the_gate_catches_a_direct_report():
    source = (
        "self.metrics.job_assigned(now, job, worker)\n"
        "master.metrics.on_shed(job_id, reason, now)\n"
        "self.host.metrics.trace.record(now, 'swap_done', '-')\n"
        "self.master.metrics.worker(name)\n"  # a get-or-create, not a report
    )
    assert list(direct_reports(ast.parse(source))) == [1, 2, 3]


def test_the_master_keeps_no_listener_list():
    runtime = WorkflowRuntime(
        profile=make_profile(make_spec("w1")),
        stream=JobStream.burst([]),
        scheduler=make_scheduler("baseline"),
    )
    assert [name for name in vars(runtime.master) if name.endswith("_listeners")] == []
    assert not hasattr(runtime.master, "monitor") and not hasattr(runtime.master, "obs")
