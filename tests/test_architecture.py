"""The layering of ``src/repro``, read off each module's syntax tree.

:data:`LAYERS` is the one layer table: every package and root module of
``src/repro`` in rows, bottom first.  A module may import at run time --
at the top or inside a function -- only its own layer and the layers of
lower rows; an import made for type annotations only, inside
``if TYPE_CHECKING:``, never runs and is let off.  :data:`UPWARD` lists
the one import that goes up, with its reason.  Without it the package
graph has no cycle.  ``repro.core`` holds the bidder's estimation
models; the schedulers (bidding among them) and the engine are built on
it, so its row is checked on its own too.

``repro/exec`` splits every line it reads with ``protocol.LineParser``:
no module there names a stream line reader or an asyncio stream server,
in a call, an attribute, an import or a ``getattr`` string.

The work path -- the worker's executor, the link and the machine -- is
callback state machines: no generator and no coroutine there.  And every
figure, table, ablation and sweep runs its cells through the cell
runner: under ``repro/experiments`` only the runner, the MSR pipeline
and the pins build a ``WorkflowRuntime``, under any name.

The rest hold one mechanism per concern: one fleet path with no switch,
one witness predicate, observer records built on read, one lifecycle
reader, one host for both runtimes, and a contest loop with no process.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The layers of ``src/repro``, bottom first: each package, root module
#: and the root package itself (``repro``) is one layer, and a module may
#: import only its own layer and those of lower rows.
LAYERS = (
    ("config", "fleet", "hooks", "lazy", "sim"),
    ("data", "faults", "net"),
    ("cluster", "workload"),
    ("core", "metrics"),
    ("check", "engine", "obs"),
    ("schedulers",),
    ("reconfig",),
    ("host",),
    ("exec", "fuzz", "serve"),
    ("experiments",),
    ("cli", "repro"),
    ("__main__",),
)

#: The run-time imports that go up the table: (module, layer) -> reason.
UPWARD = {
    ("experiments/golden.py", "cli"): (
        "the help and stdout pins record what the front door prints"
    ),
}

RANK = {layer: row for row, layers in enumerate(LAYERS) for layer in layers}

#: What reads lines off a stream, or serves one that would, outside
#: ``protocol.LineParser``: no module under ``repro/exec`` may name these.
LINE_READERS = frozenset(
    {
        "readline",
        "readlines",
        "readuntil",
        "readexactly",
        "makefile",
        "StreamReader",
        "StreamReaderProtocol",
        "start_server",
        "start_unix_server",
        "open_connection",
        "open_unix_connection",
    }
)


def _is_type_checking(test: ast.expr) -> bool:
    """``TYPE_CHECKING`` or ``typing.TYPE_CHECKING``."""
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def runtime_imports(tree: ast.AST, package: str) -> list[tuple[int, str]]:
    """``(line, dotted name)`` of everything ``tree`` imports when it runs;
    ``package`` resolves relative imports."""
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(parent + ([base] if base else []))
            found.extend((node.lineno, f"{base}.{alias.name}") for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def layer_of(name: str) -> str | None:
    """The layer a dotted import name lands in: ``repro.X...`` is ``X``
    when ``X`` is in the table, ``repro.Y`` is an attribute of the root
    package; ``None`` for anything else."""
    parts = name.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1 or (len(parts) == 2 and parts[1] not in RANK):
        return "repro"
    return parts[1] if parts[1] in RANK else None


def offences(
    tree: ast.AST, package: str = "repro.core", layer: str = "core"
) -> list[tuple[int, str]]:
    """``(line, name)`` of every run-time import in ``tree``, a module of
    ``layer`` in ``package``, that lands in a higher row of the table."""
    return [
        (line, name)
        for line, name in runtime_imports(tree, package)
        if layer_of(name) is not None and RANK[layer_of(name)] > RANK[layer]
    ]


def modules() -> list[tuple[str, str, str, ast.AST]]:
    """``(path under src/repro, package, layer, tree)`` of every module."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        package = ".".join(("repro", *rel.parent.parts))
        if len(rel.parts) > 1:
            layer = rel.parts[0]
        else:
            layer = "repro" if rel.stem == "__init__" else rel.stem
        found.append((rel.as_posix(), package, layer, ast.parse(path.read_text(encoding="utf-8"))))
    return found


def test_the_rule_sees_every_import_form():
    source = """
import repro.engine.worker
import repro.schedulers as schedulers
from repro.schedulers.base import MasterPolicy
from repro import engine
from ..schedulers import registry
from .estimator import CostEstimator
from repro.enginex import fine
from typing import TYPE_CHECKING
import typing
if TYPE_CHECKING:
    from repro.engine.master import Master
else:
    from repro.engine.messages import Bid
if typing.TYPE_CHECKING:
    import repro.schedulers.pull
def f():
    from repro.engine.runtime import WorkflowRuntime
"""
    assert [name for _line, name in offences(ast.parse(source))] == [
        "repro.engine.worker",
        "repro.schedulers",
        "repro.schedulers.base.MasterPolicy",
        "repro.engine",
        "repro.schedulers.registry",
        "repro.engine.messages.Bid",
        "repro.engine.runtime.WorkflowRuntime",
    ]


def test_core_imports_no_scheduler_and_no_engine():
    core = [(rel, package, tree) for rel, package, layer, tree in modules() if layer == "core"]
    assert core, "no modules under repro/core"
    assert RANK["core"] < min(RANK["schedulers"], RANK["engine"])
    found = [
        f"{rel}:{line} imports {name}"
        for rel, package, tree in core
        for line, name in offences(tree, package)
    ]
    assert found == []


def test_the_table_lists_every_layer_once():
    listed = [layer for row in LAYERS for layer in row]
    assert len(listed) == len(set(listed))
    assert set(listed) == {layer for _rel, _package, layer, _tree in modules()}


def test_the_layer_rule_sees_every_import_form():
    source = """
import repro.host
from repro import run_workflow
from repro.fuzz import fuzz
from ..host import Deployment
from . import registry
from repro.engine.messages import Bid
from repro.check.invariants import InvariantMonitor
import numpy
if TYPE_CHECKING:
    from repro.serve import ServiceRuntime
def f():
    from repro.experiments.runner import run_cell
class C:
    def g(self):
        import repro.cli
"""
    assert offences(ast.parse(source), "repro.schedulers", "schedulers") == [
        (2, "repro.host"),
        (3, "repro.run_workflow"),
        (4, "repro.fuzz.fuzz"),
        (5, "repro.host.Deployment"),
        (13, "repro.experiments.runner.run_cell"),
        (16, "repro.cli"),
    ]


def upward_imports() -> list[str]:
    """Every run-time import in ``src/repro`` that goes up the table and
    :data:`UPWARD` does not list."""
    return [
        f"{rel}:{line} imports {name}"
        for rel, package, layer, tree in modules()
        for line, name in offences(tree, package, layer)
        if (rel, layer_of(name)) not in UPWARD
    ]


def test_every_module_imports_only_its_own_and_lower_layers():
    assert upward_imports() == []
    for rel, target in UPWARD:
        package = ".".join(("repro", *Path(rel).parent.parts))
        tree = ast.parse((SRC / rel).read_text(encoding="utf-8"))
        assert target in {layer_of(name) for _line, name in runtime_imports(tree, package)}


def package_graph() -> dict[str, set[str]]:
    """Layer -> the other layers its modules import at run time, without
    the :data:`UPWARD` edges."""
    graph: dict[str, set[str]] = {}
    for rel, package, layer, tree in modules():
        edges = graph.setdefault(layer, set())
        for _line, name in runtime_imports(tree, package):
            target = layer_of(name)
            if target is not None and target != layer and (rel, target) not in UPWARD:
                edges.add(target)
    return graph


def cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """The strongly connected components of more than one node (Tarjan)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    found = []

    def visit(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        for successor in sorted(graph.get(node, ())):
            if successor not in index:
                visit(successor)
                low[node] = min(low[node], low[successor])
            elif successor in stack:
                low[node] = min(low[node], index[successor])
        if low[node] == index[node]:
            component = []
            while not component or component[-1] != node:
                component.append(stack.pop())
            if len(component) > 1:
                found.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            visit(node)
    return sorted(found)


def test_the_cycle_finder_sees_a_cycle():
    graph = {
        "check": {"engine"},
        "engine": {"check", "schedulers", "reconfig"},
        "reconfig": {"engine", "schedulers"},
        "schedulers": {"engine", "core"},
        "core": set(),
        "cli": {"experiments"},
        "experiments": {"cli", "core"},
    }
    assert cycles(graph) == [["check", "engine", "reconfig", "schedulers"], ["cli", "experiments"]]
    assert cycles({"a": {"b"}, "b": set()}) == []


def test_the_package_graph_has_no_cycle():
    assert cycles(package_graph()) == []


def line_readers(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of every :data:`LINE_READERS` name ``tree`` uses."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in LINE_READERS:
            found.append((getattr(node, "lineno", 0), name))
    return sorted(found)


def test_the_line_rule_sees_every_form():
    source = """
import asyncio
from asyncio import StreamReader, start_server as serve
from asyncio.streams import open_connection
line = sock.makefile("rb").readline()
reader = asyncio.StreamReader()
read = getattr(stream, "readuntil")
server = await asyncio.start_unix_server(handle, path)
\"""A docstring may say readline( in prose.\"""
parser = LineParser()
server = await loop.create_server(Peer, host, 0)
"""
    assert [name for _line, name in line_readers(ast.parse(source))] == [
        "StreamReader",
        "start_server",
        "open_connection",
        "makefile",
        "readline",
        "StreamReader",
        "readuntil",
        "start_unix_server",
    ]


def test_exec_reads_lines_only_through_the_line_parser():
    modules = sorted((SRC / "exec").rglob("*.py"))
    assert modules, "no modules under repro/exec"
    found = [
        f"{path.relative_to(SRC)}:{line} names {name}"
        for path in modules
        for line, name in line_readers(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


#: The work path's modules, which hold no generator and no coroutine.
WORK_PATH = ("engine/worker.py", "net/link.py", "cluster/machine.py")


def suspensions(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` of every ``yield``, ``yield from``, ``await`` and
    ``async def`` in ``tree``."""
    kinds = {
        ast.Yield: "yield",
        ast.YieldFrom: "yield from",
        ast.Await: "await",
        ast.AsyncFunctionDef: "async def",
    }
    return sorted(
        (node.lineno, kinds[type(node)]) for node in ast.walk(tree) if type(node) in kinds
    )


def test_the_suspension_rule_sees_every_form():
    source = """
def run(self):
    yield self.sim.timeout(1.0)
def relay(self):
    yield from self.run()
async def serve(self):
    await self.done
\"""A docstring may say yield in prose.\"""
squares = (x * x for x in range(3))
"""
    assert [what for _line, what in suspensions(ast.parse(source))] == [
        "yield",
        "yield from",
        "async def",
        "await",
    ]


def test_no_generator_on_the_work_path():
    found = [
        f"{module}:{line} {what}"
        for module in WORK_PATH
        for line, what in suspensions(ast.parse((SRC / module).read_text(encoding="utf-8")))
    ]
    assert found == []


#: The modules under ``repro/experiments`` that may build a ``WorkflowRuntime``.
CELL_BUILDERS = frozenset({"runner.py", "tables_msr.py", "golden.py"})


def aliases(tree: ast.AST, name: str) -> set[str]:
    """``name`` and every alias an import in ``tree`` gives it."""
    return {name} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname and alias.name.rpartition(".")[2] == name
    }


def constructions(tree: ast.AST, name: str) -> list[tuple[int, str]]:
    """``(line, enclosing function)`` of every call of ``name`` in
    ``tree``: by its name, as an attribute, or by an import's alias."""
    names = aliases(tree, name)
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id in names)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
        ):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "")
    return sorted(found)


def runtime_constructions(tree: ast.AST) -> list[int]:
    """Lines of every call of ``WorkflowRuntime`` in ``tree``: by its
    name, as an attribute, or by any alias an import gave it."""
    return [line for line, _function in constructions(tree, "WorkflowRuntime")]


def test_the_construction_rule_sees_every_form():
    source = """
from repro.engine.runtime import WorkflowRuntime
from repro.engine.runtime import WorkflowRuntime as Runtime
import repro.engine.runtime as rt
a = WorkflowRuntime(profile, stream, scheduler)
b = Runtime(profile, stream, scheduler)
c = rt.WorkflowRuntime(profile, stream, scheduler)
\"""WorkflowRuntime( in prose builds nothing.\"""
d = run_cell(spec)
"""
    assert runtime_constructions(ast.parse(source)) == [5, 6, 7]


def test_one_cell_runner_for_the_experiments():
    modules = sorted((SRC / "experiments").rglob("*.py"))
    assert {path.name for path in modules} >= CELL_BUILDERS
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in modules
        if path.name not in CELL_BUILDERS
        for line in runtime_constructions(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def names(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, text)`` of every name ``tree`` spells: identifiers,
    attributes, imports, definitions, parameters, keywords and strings."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            texts = [node.id]
        elif isinstance(node, ast.Attribute):
            texts = [node.attr]
        elif isinstance(node, ast.alias):
            texts = [node.name, node.asname or ""]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            texts = [node.name]
        elif isinstance(node, ast.arg):
            texts = [node.arg]
        elif isinstance(node, ast.keyword):
            texts = [node.arg or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            texts = [node.value]
        else:
            continue
        found.extend((getattr(node, "lineno", 0), text) for text in texts if text)
    return sorted(found)


#: The retired second fleet path's switch: its variable, its probe and
#: the attach hook only the switch needed.
FLEET_SWITCH = ("REPRO_FLEET_SOA", "soa_enabled", "on_fleet_attached")


def fleet_switches(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, word)`` of every :data:`FLEET_SWITCH` word inside a name
    or a string of ``tree``."""
    return [
        (line, word)
        for line, text in names(tree)
        for word in FLEET_SWITCH
        if word in text
    ]


def test_the_fleet_switch_rule_sees_every_form():
    source = """
import os
from repro.fleet import soa_enabled as on
if os.environ.get("REPRO_FLEET_SOA", "1") == "0":
    pass
flag = repro.fleet.soa_enabled()
def on_fleet_attached(self, fleet):
    pass
node.on_fleet_attached(fleet)
run(env={"REPRO_FLEET_SOA=0": 1}, soa_enabled_default=True)
def f(soa_enabled=True):
    pass
# A comment may say REPRO_FLEET_SOA: it switches nothing.
fleet = FleetState()
"""
    assert [word for _line, word in fleet_switches(ast.parse(source))] == [
        "soa_enabled",
        "REPRO_FLEET_SOA",
        "soa_enabled",
        "on_fleet_attached",
        "on_fleet_attached",
        "REPRO_FLEET_SOA",
        "soa_enabled",
        "soa_enabled",
    ]


def test_no_fleet_path_switch():
    root = SRC.parents[1]
    own = Path(__file__).resolve()
    found = [
        f"{path.relative_to(root)}:{line} names {word}"
        for folder in ("src", "tests", "benchmarks", "examples")
        for path in sorted((root / folder).rglob("*.py"))
        if path.resolve() != own
        for line, word in fleet_switches(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


#: The seams whose subscribers can tell a contest's or a decline's
#: messages apart: outside the witness predicate they are only emitted.
WITNESS_SEAMS = frozenset({"publish", "deliver", "contest_opened", "bid", "contest_closed"})


def _is_hooks(node: ast.expr) -> bool:
    """``hooks`` or ``<anything>.hooks``."""
    return (isinstance(node, ast.Name) and node.id == "hooks") or (
        isinstance(node, ast.Attribute) and node.attr == "hooks"
    )


def seam_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, seam)`` of every use of a :data:`WITNESS_SEAMS` seam of a
    hook table that is not the loop emitting it (``for hook in ...``)."""
    emitted = {id(node.iter) for node in ast.walk(tree) if isinstance(node, ast.For)}
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in WITNESS_SEAMS
            and _is_hooks(node.value)
            and id(node) not in emitted
        ):
            found.append((node.lineno, node.attr))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and _is_hooks(node.args[0])
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in WITNESS_SEAMS
        ):
            found.append((node.lineno, node.args[1].value))
    return sorted(found)


def test_the_witness_rule_sees_every_form():
    source = """
for hook in self.hooks.publish:
    hook(message)
for hook in master.hooks.contest_closed:
    hook(job, winner)
if self.master.hooks.bid:
    pass
watched = hooks.deliver != ()
seen = len(self.hooks.contest_opened)
hooks.publish = ()
quiet = not getattr(self.hooks, "deliver")
for hook in [h for h in hooks.publish]:
    pass
for hook in self.hooks.bid_received:
    pass
metrics.publish(event)
"""
    assert [seam for _line, seam in seam_reads(ast.parse(source))] == [
        "bid",
        "deliver",
        "contest_opened",
        "publish",
        "deliver",
        "publish",
    ]


def test_one_witness_predicate():
    found = {
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if seam_reads(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {"schedulers/base.py"}


def worded_notes(tree: ast.AST) -> list[int]:
    """Lines of every ``self._note(now, kind, template, *args)`` call that
    builds a string of its own after ``kind``: an f-string, a ``format``
    call or a ``%`` or ``+`` on a string."""

    def words(node: ast.expr) -> bool:
        return any(
            isinstance(part, ast.JoinedStr)
            or (
                isinstance(part, ast.Call)
                and isinstance(part.func, ast.Attribute)
                and part.func.attr == "format"
            )
            or (
                isinstance(part, ast.BinOp)
                and isinstance(part.op, (ast.Mod, ast.Add))
                and any(
                    isinstance(side, (ast.Constant, ast.JoinedStr))
                    and isinstance(getattr(side, "value", ""), str)
                    for side in (part.left, part.right)
                )
            )
            for part in ast.walk(node)
        )

    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_note"
        and any(words(arg) for arg in node.args[2:])
    )


def test_the_record_rules_see_every_form():
    source = """
from repro.obs.recorder import FlowRecord as Flow
class Recorder:
    def on_publish(self, message, now):
        self._flows.append(FlowRecord(message, now))
    def on_deliver(self, message, now):
        self._flows.append(recorder.FlowRecord(message, now))
    @property
    def flows(self):
        return [Flow(*row) for row in self._rows]
\"""FlowRecord( in prose builds nothing.\"""
"""
    assert constructions(ast.parse(source), "FlowRecord") == [
        (5, "on_publish"),
        (7, "on_deliver"),
        (10, "flows"),
    ]
    notes = """
self._note(now, "assigned", f"{job_id} -> {worker}")
self._note(now, "assigned", "{} -> {}".format(job_id, worker))
self._note(now, "assigned", "%s -> %s" % (job_id, worker))
self._note(now, "completed", job_id + " @ " + worker)
self._note(now, "assigned", "{} -> {}", job_id, worker)
self._note(now, "submitted", job_id)
self._note(now, f"fault:{kind}", detail)
self._note(now, "bid", "{} by {}", f"{job_id}", worker)
"""
    assert worded_notes(ast.parse(notes)) == [2, 3, 4, 5, 9]


def test_observers_build_their_records_on_read():
    for name, module, reader in (
        ("FlowRecord", "recorder.py", "flows"),
        ("DecisionRecord", "ledger.py", "records"),
    ):
        found = [
            (path.name, function)
            for path in sorted((SRC / "obs").rglob("*.py"))
            for _line, function in constructions(
                ast.parse(path.read_text(encoding="utf-8")), name
            )
        ]
        assert found == [(module, reader)], name
    monitor = ast.parse((SRC / "check" / "invariants.py").read_text(encoding="utf-8"))
    assert worded_notes(monitor) == []


#: The trace kinds that end an attempt early: only the lifecycle reader
#: knows how an orphaned attempt ends.
ATTEMPT_ENDINGS = frozenset({"orphaned", "redispatched"})


def attempt_endings(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, kind)`` of every string in ``tree`` that is exactly one of
    :data:`ATTEMPT_ENDINGS`."""
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ATTEMPT_ENDINGS
    )


def test_the_lifecycle_rule_sees_every_form():
    source = """
if kind == "orphaned":
    pass
ends = {'redispatched', "completed"}
match = kind in ("orphaned",)
\"""An "orphaned" attempt in prose ends nothing.\"""
orphaned = True
"""
    assert attempt_endings(ast.parse(source)) == [
        (2, "orphaned"),
        (4, "redispatched"),
        (5, "orphaned"),
    ]


def test_one_lifecycle_reader():
    paths = sorted((SRC / "obs").rglob("*.py")) + [SRC / "metrics" / "analysis.py"]
    found = {
        path.relative_to(SRC).as_posix()
        for path in paths
        if attempt_endings(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {"metrics/analysis.py"}


#: The two intakes on the one host: each wires nothing the host wires.
HOSTS = ("host.py", "serve/service.py")


def process_starts(tree: ast.AST) -> list[int]:
    """Lines of every ``<anything>.process(...)`` call in ``tree``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "process"
    )


def wirings(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` of every ``Topology.build`` and ``FleetState``
    call in ``tree``, under any alias."""
    topology = aliases(tree, "Topology")
    builds = [
        (node.lineno, "Topology.build")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "build"
        and (
            (isinstance(node.func.value, ast.Name) and node.func.value.id in topology)
            or (isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "Topology")
        )
    ]
    fleets = [(line, "FleetState") for line, _function in constructions(tree, "FleetState")]
    return sorted(builds + fleets)


def test_the_host_rules_see_every_form():
    source = """
from repro.net.topology import Topology as Net
from repro.fleet import FleetState as Fleet
a = Topology.build(sim, config, rng)
b = Net.build(sim, config, rng)
c = repro.net.topology.Topology.build(sim, config, rng)
d = FleetState()
e = Fleet(capacity=4)
f = fleet.FleetState()
self.sim.process(self._intake())
\"""Topology.build( and .process( in prose wire nothing.\"""
g = pipeline.build()
"""
    tree = ast.parse(source)
    assert wirings(tree) == [
        (4, "Topology.build"),
        (5, "Topology.build"),
        (6, "Topology.build"),
        (7, "FleetState"),
        (8, "FleetState"),
        (9, "FleetState"),
    ]
    assert process_starts(tree) == [10]


def test_one_host_for_both_runtimes():
    trees = {host: ast.parse((SRC / host).read_text(encoding="utf-8")) for host in HOSTS}
    for what in ("Topology.build", "FleetState"):
        found = [
            f"{host}:{line}" for host, tree in trees.items() for line, wiring in wirings(tree)
            if wiring == what
        ]
        assert len(found) <= 1, (what, found)
    assert [(host, process_starts(tree)) for host, tree in trees.items()] == [
        (host, []) for host in HOSTS
    ]


#: The kernel's retired waiting machinery: what a process waited on.
WAITS = frozenset({"AnyOf", "AllOf", "Store", "Timeout"})


def contest_waits(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` of every process start, wait on a kernel event, or
    import of the kernel's retired event and resource modules in ``tree``."""
    found = [(line, "process") for line in process_starts(tree)]
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            if node.name.rpartition(".")[2] in WAITS:
                found.append((node.lineno, node.name.rpartition(".")[2]))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name in WAITS:
                found.append((node.lineno, name))
            elif (
                name == "timeout"
                and isinstance(func, ast.Attribute)
                and (
                    (isinstance(func.value, ast.Name) and func.value.id == "sim")
                    or (isinstance(func.value, ast.Attribute) and func.value.attr == "sim")
                )
            ):
                found.append((node.lineno, "sim.timeout"))
        elif isinstance(node, ast.Name) and node.id == "AnyOf":
            found.append((node.lineno, "AnyOf"))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = (
                [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            ) + [alias.name for alias in node.names]
            for module in modules:
                if module.startswith(("repro.sim.events", "repro.sim.resources")):
                    found.append((node.lineno, module))
    return sorted(set(found))


def test_the_contest_loop_rule_sees_every_form():
    source = """
from repro.sim.events import AnyOf
import repro.sim.resources
from repro.sim import Store as Queue
def run(self):
    self.sim.process(self._contest())
    yield self.sim.timeout(self.window_s)
    yield sim.timeout(0.0)
    first = AnyOf(self.sim, [a, b])
    box = Store(self.sim)
    box = resources.Store(self.sim)
    waiting = AnyOf
\"""sim.timeout( and Store( in prose wait on nothing.\"""
self.sim.call_later(self.window_s, self._close)
timeout = self.timeout(1.0)
"""
    assert contest_waits(ast.parse(source)) == [
        (2, "AnyOf"),
        (2, "repro.sim.events"),
        (3, "repro.sim.resources"),
        (4, "Store"),
        (6, "process"),
        (7, "sim.timeout"),
        (8, "sim.timeout"),
        (9, "AnyOf"),
        (10, "Store"),
        (11, "Store"),
        (12, "AnyOf"),
    ]


def test_no_process_in_the_contest_loop():
    found = [
        f"{path.relative_to(SRC)}:{line} {what}"
        for folder in ("core", "schedulers")
        for path in sorted((SRC / folder).rglob("*.py"))
        for line, what in contest_waits(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


#: Modules the benchmark's import line must not load: each loads when a
#: run or a command needs it, not on import.
LEAN_IMPORT_REFUSES = ("repro.reconfig", "repro.fuzz", "repro.cli", "repro.experiments.golden")
#: At most this many ``repro`` modules: each one is compiled inside a
#: benchmark child's ``setup_s`` when it writes no bytecode.
LEAN_IMPORT_MODULES = 85


def test_the_benchmark_import_line_stays_lean():
    workloads = SRC.parents[1] / "bench" / "workloads.py"
    line = "\n".join(
        ast.unparse(node)
        for node in ast.parse(workloads.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro"
    )
    assert "from repro import" in line
    code = (
        f"{line}\nimport sys\n"
        "print(sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = ast.literal_eval(out)
    assert [m for m in loaded if m.startswith(LEAN_IMPORT_REFUSES)] == []
    assert len(loaded) <= LEAN_IMPORT_MODULES, len(loaded)
