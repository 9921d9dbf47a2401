"""Per-package layer ledger from a deterministic call tracer.

``cProfile`` (the C implementation of a ``sys.setprofile`` hook) is
installed around one call into the program and its raw table is
aggregated here, from outside -- nothing under ``src/`` is edited.  A
function's self time and call count go to the package its code lives
in; time inside C builtins and numpy is charged to the package of the
Python frame that called them.  The tracer slows call-heavy code more
than loop-heavy code, so the shares say where the *calls* are; the
untraced run beside it says what they cost.
"""

from __future__ import annotations

import cProfile
import os
from typing import Callable, TypeVar

#: The layers are the packages under ``src/repro``; everything else
#: (the standard library, numpy's Python side, asyncio, repro's
#: top-level modules, the benchmark itself) is ``other``.
LAYERS: tuple[str, ...] = (
    "sim",
    "net",
    "engine",
    "core",
    "schedulers",
    "fleet",
    "metrics",
    "obs",
    "check",
    "serve",
    "faults",
    "reconfig",
    "exec",
    "workload",
    "data",
    "cluster",
    "experiments",
    "other",
)

#: Boundary counters: public functions whose call counts are read off
#: the trace, as (layer, qualified name) pairs.
BOUNDARIES: dict[str, tuple[tuple[str, str], ...]] = {
    "sim.timers": (
        ("sim", "Simulator.call_at"),
        ("sim", "Simulator.call_later"),
        ("sim", "Simulator.sleep"),
        ("sim", "Simulator.timeout"),
    ),
    "sim.processes": (("sim", "Simulator.process"),),
    "net.messages": (("net", "Broker.publish"), ("net", "Broker.send")),
    # One per finished download.  (``Link.transfer`` is a generator, so
    # the tracer counts its resumes; ``FairSharePipe.transfer`` only
    # runs with a shared origin, which no workload configures.)
    "net.transfers": (("metrics", "MetricsCollector.record_download"),),
    "core.contests": (("metrics", "MetricsCollector.contest_opened"),),
}

T = TypeVar("T")


class Ledger:
    """Self time and calls per layer for one traced call."""

    def __init__(self, package_dir: str) -> None:
        #: ``<checkout>/src/repro`` -- code under it belongs to a layer.
        self.package_dir = os.path.join(os.path.realpath(package_dir), "")
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.boundaries: dict[str, int] = dict.fromkeys(BOUNDARIES, 0)
        self._layer_of_file: dict[str, str] = {}

    def trace(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` under the tracer and fold its table into the ledger."""
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = fn()
        finally:
            profiler.disable()
        self._fold(profiler.getstats())
        return result

    def layer_of(self, filename: str) -> str:
        layer = self._layer_of_file.get(filename)
        if layer is None:
            layer = "other"
            real = os.path.realpath(filename)
            if real.startswith(self.package_dir):
                head = real[len(self.package_dir):].split(os.sep, 1)
                if len(head) == 2 and head[0] in LAYERS:
                    layer = head[0]
            self._layer_of_file[filename] = layer
        return layer

    def _fold(self, stats: list) -> None:
        wanted = {
            target: counter
            for counter, targets in BOUNDARIES.items()
            for target in targets
        }
        for entry in stats:
            code = entry.code
            if isinstance(code, str):
                # A C builtin: its time arrives through its callers'
                # sub-entries below, so that it lands in their layer.
                continue
            layer = self.layer_of(code.co_filename)
            self.self_s[layer] += entry.inlinetime
            self.calls[layer] += entry.callcount
            counter = wanted.get((layer, code.co_qualname))
            if counter is not None:
                self.boundaries[counter] += entry.callcount
            for callee in entry.calls or ():
                if isinstance(callee.code, str):
                    self.self_s[layer] += callee.inlinetime
                    self.calls[layer] += callee.callcount

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def to_json(self, jobs: int) -> dict:
        """The ledger per completed job, keyed by metric name."""
        total = self.total_s
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.self_share"] = self.self_s[layer] / total if total else 0.0
            out[f"{layer}.calls_per_job"] = self.calls[layer] / jobs
        for counter, count in self.boundaries.items():
            out[f"{counter}_per_job"] = count / jobs
        return out
