"""Model code starts no generator process.

Every path of the model -- nodes, policies, the fault injector, the
reconfiguration controller, the search behind ``sim_work`` -- is a
callback state machine on ``Simulator.call_soon`` / ``call_at`` /
``call_later``.  ``repro.sim`` keeps ``Process``, ``Timeout`` and the
pooled sleep for the kernel micro-benchmarks in
``experiments/bench.py`` and for the generator reference
implementations under ``tests/``; nothing else in ``src/repro/`` may
reach for them.  The rule is read off each module's syntax tree.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Where processes may still be started.
EXEMPT = ("sim/", "experiments/bench.py")

#: Methods of a simulator that start or feed a generator process.
PROCESS_CALLS = frozenset({"process", "timeout", "sleep"})
#: Names of primitives that left ``repro.sim``.
GONE = frozenset({"AnyOf", "Interrupt", "PriorityResource"})


def _is_simulator(node: ast.expr) -> bool:
    """``sim``, ``self.sim``, ``runtime.sim``, ``self._sim`` and the like."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in ("sim", "_sim", "simulator")


def offences(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` for every use of the generator layer in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PROCESS_CALLS
            and _is_simulator(node.func.value)
        ):
            found.append((node.lineno, f"calls {node.func.attr}() on a simulator"))
        elif isinstance(node, ast.Name) and node.id in GONE:
            found.append((node.lineno, f"names {node.id}"))
        elif isinstance(node, ast.Attribute) and node.attr in GONE:
            found.append((node.lineno, f"names {node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module == "repro.sim.process" or (
                node.module == "repro.sim" and "process" in names
            ):
                found.append((node.lineno, "imports repro.sim.process"))
            for name in sorted(names & GONE):
                found.append((node.lineno, f"imports {name}"))
        elif isinstance(node, ast.Import):
            if any(alias.name == "repro.sim.process" for alias in node.names):
                found.append((node.lineno, "imports repro.sim.process"))
    return found


def model_modules() -> list[Path]:
    return [
        path
        for path in sorted(SRC.rglob("*.py"))
        if not path.relative_to(SRC).as_posix().startswith(EXEMPT)
    ]


def test_the_rule_sees_every_pattern():
    source = """
import repro.sim.process
from repro.sim import process
from repro.sim.process import Process
from repro.sim.events import AnyOf
def f(self, sim, runtime):
    sim.process(g())
    yield self.sim.timeout(1.0)
    yield runtime.sim.sleep(0.5)
    raise Interrupt()
    return repro.sim.resources.PriorityResource
"""
    found = [what for _line, what in offences(ast.parse(source))]
    assert sorted(found) == sorted(
        [
            "imports repro.sim.process",
            "imports repro.sim.process",
            "imports repro.sim.process",
            "imports AnyOf",
            "calls process() on a simulator",
            "calls timeout() on a simulator",
            "calls sleep() on a simulator",
            "names Interrupt",
            "names PriorityResource",
        ]
    )


def test_lookalikes_are_not_processes():
    source = """
import asyncio, time
async def f(self, job):
    self.machine.process(job.size_mb, 1.0, done)
    await asyncio.sleep(0.1)
    time.sleep(0.1)
    self.sim.call_later(1.0, done)
    raise KeyboardInterrupt
"""
    assert offences(ast.parse(source)) == []


def test_model_code_starts_no_generator_process():
    modules = model_modules()
    assert SRC / "faults" / "injector.py" in modules, "the scan is not looking at src/repro"
    found = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in modules
        for line, what in offences(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
