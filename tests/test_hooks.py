"""The observer seams (:mod:`repro.hooks`): the list is closed, the
witnesses of a message are one predicate, and no guard creeps back."""

import ast
import inspect
import pathlib

import pytest

import repro
from conftest import make_profile, make_spec
from repro.check.invariants import InvariantMonitor
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.exec.plan import PlanRecorder
from repro.hooks import SEAMS, Hooks
from repro.obs import DecisionLedger, ObsConfig, ObsRecorder
from repro.schedulers.registry import make_scheduler
from repro.serve import ServiceRuntime
from repro.workload.job import Job, JobStream
from repro.workload.msr import TASK_ANALYZER

SRC = pathlib.Path(repro.__file__).parent

#: Every class the hosts subscribe to a table.
SUBSCRIBERS = (InvariantMonitor, ObsRecorder, DecisionLedger, ServiceRuntime, PlanRecorder)

#: The modules that emit on the seams instead of holding an observer.
EMITTERS = (
    "engine/master.py",
    "engine/worker.py",
    "net/broker.py",
    "net/bandwidth.py",
    "metrics/collector.py",
    "reconfig/controller.py",
    "faults/injector.py",
    "serve/service.py",
    "exec/pool.py",
)

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
        unknown = [read for read in table_reads() if read[2] not in (*SEAMS, "subscribe")]
        assert unknown == []

    def test_every_seam_has_a_subscriber(self):
        handled = {seam for cls in SUBSCRIBERS for seam in hooks_of(cls)}
        assert set(SEAMS) - handled == set()

    @pytest.mark.parametrize("cls", [InvariantMonitor, ObsRecorder], ids=lambda cls: cls.__name__)
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


def test_the_master_keeps_no_listener_list():
    runtime = WorkflowRuntime(
        profile=make_profile(make_spec("w1")),
        stream=JobStream.burst([]),
        scheduler=make_scheduler("baseline"),
    )
    assert [name for name in vars(runtime.master) if name.endswith("_listeners")] == []
    assert not hasattr(runtime.master, "monitor") and not hasattr(runtime.master, "obs")
