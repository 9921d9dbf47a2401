"""The layering of ``src/repro``, read off each module's syntax tree.

``repro.core`` holds the bidder's estimation models -- the speed models,
the cost estimator and the bid corrector.  The schedulers (bidding among
them) and the engine are built on it, so nothing under ``repro/core``
may import ``repro.schedulers`` or ``repro.engine``: that would make the
layers a cycle again.  An import made for type annotations only, inside
``if TYPE_CHECKING:``, never runs and is let off.

``repro/exec`` splits every line it reads with ``protocol.LineParser``:
no module there names a stream line reader or an asyncio stream server,
in a call, an attribute, an import or a ``getattr`` string.

The work path -- the worker's executor, the link and the machine -- is
callback state machines: no generator and no coroutine there.  And every
figure, table, ablation and sweep runs its cells through the cell
runner: under ``repro/experiments`` only the runner, the MSR pipeline
and the pins build a ``WorkflowRuntime``, under any name.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The packages a module under ``repro/core`` must not import at run time.
ABOVE_CORE = ("repro.schedulers", "repro.engine")

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


def offences(tree: ast.AST, package: str = "repro.core") -> list[tuple[int, str]]:
    return [
        (line, name)
        for line, name in runtime_imports(tree, package)
        if any(name == banned or name.startswith(banned + ".") for banned in ABOVE_CORE)
    ]


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
    modules = sorted((SRC / "core").rglob("*.py"))
    assert modules, "no modules under repro/core"
    found = []
    for path in modules:
        package = "repro." + ".".join(path.relative_to(SRC).parent.parts)
        for line, name in offences(ast.parse(path.read_text(encoding="utf-8")), package):
            found.append(f"{path.relative_to(SRC)}:{line} imports {name}")
    assert found == []


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


def runtime_constructions(tree: ast.AST) -> list[int]:
    """Lines of every call of ``WorkflowRuntime`` in ``tree``: by its
    name, as an attribute, or by any alias an import gave it."""
    names = {"WorkflowRuntime"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                alias.asname
                for alias in node.names
                if alias.asname and alias.name.rpartition(".")[2] == "WorkflowRuntime"
            )
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id in names)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "WorkflowRuntime")
        )
    )


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
