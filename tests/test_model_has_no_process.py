"""``src/`` has no generator layer.

Every path of the model -- nodes, policies, the fault injector, the
reconfiguration controller, the search behind ``sim_work`` -- is a
callback state machine on ``Simulator.call_soon`` / ``call_at`` /
``call_later``, and the kernel is timers only: one heap-entry shape,
pushed by ``sim/kernel.py`` alone.  ``Event``, ``Timeout``, ``Process``
and ``Store`` live in ``tests/reference_sim.py`` for the generator
reference implementations; nothing in ``src/repro/`` may define,
import or reach for them.  The rule is read off each module's syntax
tree.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Where the rule does not look: nowhere.
EXEMPT: tuple[str, ...] = ()

#: The one module that pushes onto the kernel's heap.
HEAP_OWNER = "sim/kernel.py"

#: Methods of a simulator that start or feed a generator process.
PROCESS_CALLS = frozenset({"process", "timeout", "sleep"})
#: Names of primitives that left ``repro.sim``.
GONE = frozenset({"AnyOf", "Interrupt", "PriorityResource"})
#: The generator layer that lives in ``tests/reference_sim.py``.
LAYER = frozenset({"Event", "Timeout", "Process", "Store"})
#: Its modules, gone from ``repro.sim``.
LAYER_MODULES = frozenset({"repro.sim.events", "repro.sim.process", "repro.sim.resources"})


def _is_simulator(node: ast.expr) -> bool:
    """``sim``, ``self.sim``, ``runtime.sim``, ``self._sim`` and the like."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in ("sim", "_sim", "simulator")


def offences(tree: ast.AST, heap_owner: bool = False) -> list[tuple[int, str]]:
    """``(line, what)`` for every use of the generator layer in ``tree``,
    and every ``heappush`` unless the module is the heap's owner."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PROCESS_CALLS
            and _is_simulator(node.func.value)
        ):
            found.append((node.lineno, f"calls {node.func.attr}() on a simulator"))
        elif isinstance(node, ast.ClassDef) and node.name in LAYER:
            found.append((node.lineno, f"defines {node.name}"))
        elif isinstance(node, ast.Name) and node.id in GONE:
            found.append((node.lineno, f"names {node.id}"))
        elif isinstance(node, ast.Attribute) and node.attr in GONE:
            found.append((node.lineno, f"names {node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            module = node.module or ""
            if module in LAYER_MODULES:
                found.append((node.lineno, f"imports {module}"))
            elif module == "repro.sim":
                for name in sorted(names & {"events", "process", "resources"}):
                    found.append((node.lineno, f"imports repro.sim.{name}"))
            if module == "repro.sim" or module.startswith("repro.sim."):
                for name in sorted(names & LAYER):
                    found.append((node.lineno, f"imports {name}"))
            for name in sorted(names & GONE):
                found.append((node.lineno, f"imports {name}"))
            if "heappush" in names and not heap_owner:
                found.append((node.lineno, "imports heappush"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in LAYER_MODULES:
                    found.append((node.lineno, f"imports {alias.name}"))
        if not heap_owner and (
            (isinstance(node, ast.Name) and node.id == "heappush")
            or (isinstance(node, ast.Attribute) and node.attr == "heappush")
        ):
            found.append((node.lineno, "pushes onto a heap"))
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
import repro.sim.events
from repro.sim import process, resources
from repro.sim.process import Process
from repro.sim.events import AnyOf, Event
from repro.sim import Store, Timeout, Simulator
from heapq import heappush
import heapq
class Event:
    pass
def f(self, sim, runtime):
    sim.process(g())
    yield self.sim.timeout(1.0)
    yield runtime.sim.sleep(0.5)
    raise Interrupt()
    heapq.heappush(self._heap, (0.0, 0))
    return repro.sim.resources.PriorityResource
"""
    found = [what for _line, what in offences(ast.parse(source))]
    assert sorted(found) == sorted(
        [
            "imports repro.sim.process",
            "imports repro.sim.events",
            "imports repro.sim.process",
            "imports repro.sim.resources",
            "imports repro.sim.process",
            "imports Process",
            "imports repro.sim.events",
            "imports AnyOf",
            "imports Event",
            "imports Store",
            "imports Timeout",
            "imports heappush",
            "defines Event",
            "calls process() on a simulator",
            "calls timeout() on a simulator",
            "calls sleep() on a simulator",
            "names Interrupt",
            "pushes onto a heap",
            "names PriorityResource",
        ]
    )
    # The heap's owner may push; nothing else it does is let off.
    owned = [what for _line, what in offences(ast.parse(source), heap_owner=True)]
    assert "pushes onto a heap" not in owned and "imports heappush" not in owned
    assert "defines Event" in owned


def test_lookalikes_are_not_processes():
    source = """
import asyncio, heapq, time
from asyncio import Event
async def f(self, job):
    self.machine.process(job.size_mb, 1.0, done)
    await asyncio.sleep(0.1)
    stop = asyncio.Event()
    time.sleep(0.1)
    heapq.heappop(self._heap)
    self.sim.call_later(1.0, done)
    self.sim.call_soon(done, urgent=False)
    raise KeyboardInterrupt
class TraceEvent:
    pass
class ArrivalProcess:
    pass
"""
    assert offences(ast.parse(source)) == []


def test_model_code_starts_no_generator_process():
    modules = model_modules()
    assert SRC / "faults" / "injector.py" in modules, "the scan is not looking at src/repro"
    assert SRC / HEAP_OWNER in modules and SRC / "experiments" / "golden.py" in modules
    found = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in modules
        for line, what in offences(
            ast.parse(path.read_text(encoding="utf-8")),
            heap_owner=path.relative_to(SRC).as_posix() == HEAP_OWNER,
        )
    ]
    assert found == []
