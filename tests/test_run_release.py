"""A finished run frees itself: no reference cycle outlives ``run()``.

Once a runtime's ``run()`` returns or raises, its object graph is a
tree, so dropping the runtime frees every simulator, node, policy and
timer by reference counting alone (ARCHITECTURE section 5, *A run's
memory*).  Each cell below is built through the public API, as the
benchmark builds it, and run with the cycle collector off; afterwards
every simulator the cell built must already be gone, and a full
collection must find nothing.  On failure the message names the first
cycle as an attribute path.
"""

from __future__ import annotations

import ast
import gc
import types
import weakref
from collections import deque
from dataclasses import replace
from pathlib import Path

import pytest

from repro import (
    CrashRenewal,
    EngineConfig,
    FaultPlan,
    InvariantViolation,
    WorkflowRuntime,
    WorkflowStalled,
    run_service,
)
from repro.cluster import WorkerProfile, WorkerSpec
from repro.experiments.runner import CellSpec, run_cell_observed
from repro.faults.plan import WorkerCrash
from repro.fuzz.planted import make_double_allocate_policy
from repro.reconfig import JobMigration, ReconfigPlan, SchedulerSwap
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.sim.kernel import Simulator
from repro.workload.generators import job_config_by_name

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
PUSH = ("spark", "bar", "random", "round-robin")
PULL = ("baseline", "matchmaking", "delay")


def fleet(n_workers: int) -> WorkerProfile:
    """``n_workers`` near-equal workers (the benchmark's fleet shape)."""
    return WorkerProfile(
        name=f"fleet-{n_workers}",
        specs=tuple(
            WorkerSpec(
                f"w{i:04d}", network_mbps=10 * (1 + 0.05 * ((i % 11) - 5) / 5), rw_mbps=60
            )
            for i in range(n_workers)
        ),
    )


def stream(n_jobs: int, seed: int = 11):
    config = replace(job_config_by_name("80%_large"), n_jobs=n_jobs, mean_interarrival_s=0.2)
    return config.build(seed=seed)[1]


# -- naming a cycle -----------------------------------------------------------


def _referents(obj):
    """``(label, referent)`` for each reference ``obj`` holds, labelled
    the way a reader would spell the path."""
    out = []
    if type(obj) in weakref.ProxyTypes:
        return out  # a weak edge; and touching a dead one raises
    if isinstance(obj, dict):
        for key, value in obj.items():
            out += [(f"[{key!r}]", value), (f"<key {key!r}>", key)]
    elif isinstance(obj, (list, tuple, deque)):
        out += [(f"[{i}]", value) for i, value in enumerate(obj)]
    elif isinstance(obj, types.MethodType):
        out.append((".__self__", obj.__self__))
    elif isinstance(obj, types.FunctionType):
        for name, cell in zip(obj.__code__.co_freevars, obj.__closure__ or ()):
            out.append((f"<closure {name}>", cell.cell_contents))
    else:
        if isinstance(getattr(obj, "__dict__", None), dict):
            out += [(f".{key}", value) for key, value in vars(obj).items()]
        for cls in type(obj).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                if hasattr(obj, slot):
                    out.append((f".{slot}", getattr(obj, slot)))
    named = {id(value) for _, value in out}
    out += [
        (f"<{type(r).__name__}>", r)
        for r in gc.get_referents(obj)
        if id(r) not in named and not isinstance(r, type)
    ]
    return out


def first_cycle(garbage: list) -> str:
    """The shortest path from some object of ``garbage`` back to itself,
    as ``Type.attr[key].attr`` -- containers and closures are skipped
    as starting points, so the path starts at a model object."""
    members = {id(obj) for obj in garbage}
    for start in garbage:
        if isinstance(start, (dict, list, tuple, types.FunctionType, types.CellType)):
            continue
        parent = {id(start): None}
        frontier = [start]
        while frontier:
            ahead = []
            for obj in frontier:
                for label, ref in _referents(obj):
                    if ref is start:
                        path = [label]
                        while parent[id(obj)] is not None:
                            obj, step = parent[id(obj)]
                            path.append(step)
                        name = type(start).__name__
                        return f"{name}{''.join(reversed(path))} -> back to the {name}"
                    if id(ref) in members and id(ref) not in parent:
                        parent[id(ref)] = (obj, label)
                        ahead.append(ref)
            frontier = ahead
    return "no cycle through a model object"


# -- the check ----------------------------------------------------------------


def assert_released(cell, monkeypatch) -> object:
    """Run ``cell()`` with the cycle collector off and return what it
    returns; every simulator it built must be freed when it returns,
    and nothing it left may need the cycle collector."""
    gc.collect()
    sims: list = []
    init = Simulator.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(weakref.ref(self))

    monkeypatch.setattr(Simulator, "__init__", spy)
    enabled = gc.isenabled()
    gc.disable()
    try:
        kept = cell()
        alive = sum(ref() is not None for ref in sims)
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        garbage = list(gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
        if enabled:
            gc.enable()
    assert sims, "the cell built no simulator"
    cycle = first_cycle(garbage) if found else ""
    del garbage
    assert (alive, found) == (0, 0), (
        f"{alive} of {len(sims)} simulators outlived the cell; "
        f"{found} objects needed the cycle collector; first cycle: {cycle}"
    )
    return kept


def workflow(profile, scheduler, n_jobs, expect=None, **kwargs):
    """A cell: one workflow run; returns its result, or the name and
    message of what it raised (never the exception, whose traceback
    would hold the runtime)."""
    config = kwargs.pop("config", EngineConfig(seed=11, trace=False))

    def cell():
        runtime = WorkflowRuntime(
            profile=profile,
            stream=stream(n_jobs),
            scheduler=scheduler if not isinstance(scheduler, str) else make_scheduler(scheduler),
            config=config,
            **kwargs,
        )
        try:
            return runtime.run()
        except Exception as error:  # noqa: BLE001 -- the cell's outcome
            if expect is None or not isinstance(error, expect):
                raise
            return type(error).__name__, str(error)

    return cell


# -- tier-1: every shape the benchmark runs, at quick size ----------------------


def test_bidding_fleet(monkeypatch):
    result = assert_released(workflow(fleet(200), "bidding", 40), monkeypatch)
    assert result.jobs_completed == 40


@pytest.mark.parametrize("scheduler", PULL + PUSH)
def test_pull_and_push_fleets(scheduler, monkeypatch):
    result = assert_released(workflow(fleet(100), scheduler, 60), monkeypatch)
    assert result.jobs_completed == 60


@pytest.mark.parametrize("scheduler", ("bidding", "baseline"))
def test_the_paper_cell_with_every_observer(scheduler, monkeypatch):
    """Three cache-persisting iterations with obs, check and trace on;
    what the observers recorded is still readable off the last runtime."""
    spec = CellSpec(
        scheduler=scheduler,
        workload="80%_large",
        profile="fast-slow",
        seed=5,
        iterations=3,
        workload_overrides=(("n_jobs", 30),),
        engine_overrides=(("check", True), ("obs", True), ("trace", True)),
    )

    def cell():
        results, runtime = run_cell_observed(spec)
        obs = runtime.obs
        return (
            results,
            len(runtime.metrics.trace),
            obs.probes.series("master.outstanding"),
            len(obs.ledger.records),
            runtime.cache_snapshot(),
            dict(runtime.master.assignments),
        )

    results, rows, series, decisions, caches, assignments = assert_released(cell, monkeypatch)
    assert [result.jobs_completed for result in results] == [30, 30, 30]
    assert rows and series and caches
    assert decisions == len(assignments) == 30


@pytest.mark.parametrize(
    "scheduler, observers",
    [("bidding", {"trace": False}), ("baseline", {"trace": True, "check": True, "obs": True})],
    ids=["bidding", "baseline-observed"],
)
def test_the_service_under_churn(scheduler, observers, monkeypatch):
    """Bursts, autoscaling with rebalance, and crash renewals: dead,
    restarted, joined and drained nodes are all freed, and so are the
    service's own gauges."""

    def cell():
        return run_service(
            scheduler=scheduler,
            arrival="burst",
            rate=1.5,
            seed=11,
            duration_s=300.0,
            min_workers=3,
            max_workers=24,
            rebalance=True,
            faults=FaultPlan(renewals=(CrashRenewal(mtbf_s=100, mttr_s=60),)),
            **observers,
        )

    report = assert_released(cell, monkeypatch)
    assert report.completed + report.failed == report.admitted
    assert report.crashes and report.scale_ups


def test_a_stalled_run(monkeypatch):
    """A crash with fault tolerance off strands jobs: ``WorkflowStalled``."""
    plan = FaultPlan(crashes=(WorkerCrash(at_s=3.0, worker="w0001"),), recovery=None)
    kind, _message = assert_released(
        workflow(fleet(4), "baseline", 20, expect=WorkflowStalled, faults=plan), monkeypatch
    )
    assert kind == "WorkflowStalled"


def test_a_run_past_its_deadline(monkeypatch):
    config = EngineConfig(seed=11, trace=False, max_sim_time=5.0)
    kind, message = assert_released(
        workflow(fleet(4), "bidding", 20, expect=RuntimeError, config=config), monkeypatch
    )
    assert kind == "RuntimeError" and "did not complete within 5.0" in message


def test_a_planted_invariant_violation(monkeypatch):
    config = EngineConfig(seed=11, check=True, trace=True)
    kind, message = assert_released(
        workflow(
            fleet(4), make_double_allocate_policy(), 10, expect=InvariantViolation, config=config
        ),
        monkeypatch,
    )
    assert kind == "InvariantViolation" and "exactly-once-allocation" in message


def test_the_helper_names_a_cycle():
    class Node:
        pass

    node, child = Node(), Node()
    node.child, child.parent = child, node
    assert first_cycle([node, child]) == "Node.child.parent -> back to the Node"


# -- the gain stays structural: no module drives the cycle collector ------------

#: What would make a run look released without being a tree.
GC_CALLS = frozenset({"collect", "disable", "freeze", "set_threshold"})


def gc_calls(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` for every call into the cycle collector's
    controls in ``tree``, under whatever name ``gc`` was imported as."""
    modules, functions = {"gc"}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "gc"}
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            functions |= {
                alias.asname or alias.name: alias.name
                for alias in node.names
                if alias.name in GC_CALLS
            }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in GC_CALLS
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
        ):
            found.append((node.lineno, f"calls gc.{func.attr}()"))
        elif isinstance(func, ast.Name) and func.id in functions:
            found.append((node.lineno, f"calls gc.{functions[func.id]}()"))
    return found


def test_the_gc_rule_sees_every_pattern():
    source = """
import gc
import gc as collector
from gc import freeze, set_threshold as threshold
gc.collect()
collector.disable()
freeze()
threshold(0)
gc.isenabled()
gc.get_stats()
self.cache.collect()
"""
    assert [what for _line, what in gc_calls(ast.parse(source))] == [
        "calls gc.collect()",
        "calls gc.disable()",
        "calls gc.freeze()",
        "calls gc.set_threshold()",
    ]


def test_no_source_module_drives_the_cycle_collector():
    paths = sorted(SRC.rglob("*.py"))
    assert SRC / "host.py" in paths, "the scan is not looking at src/repro"
    found = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in paths
        for line, what in gc_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


# -- full size ------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_full_size_with_faults_and_reconfiguration(scheduler, monkeypatch):
    """400 workers with crashes, restarts, a migration and a hot-swap."""
    faults = FaultPlan(
        crashes=(
            WorkerCrash(at_s=20.0, worker="w0003", restart_after_s=30.0),
            WorkerCrash(at_s=40.0, worker="w0007"),
        )
    )
    reconfig = ReconfigPlan(
        migrations=(JobMigration(at_s=30.0, max_jobs=2, include_running=True),),
        swaps=(SchedulerSwap(at_s=60.0, scheduler="baseline" if scheduler != "baseline" else "bidding"),),
    )
    config = EngineConfig(seed=11, trace=True, check=True, obs=True)
    result = assert_released(
        workflow(fleet(400), scheduler, 600, faults=faults, reconfig=reconfig, config=config),
        monkeypatch,
    )
    assert result.jobs_completed == 600
