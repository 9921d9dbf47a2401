"""Performance benchmark harness: ``repro bench``.

Measures the hot paths the kernel overhaul targets and writes a
machine-readable ``BENCH.json`` so performance can be tracked across
commits and gated in CI:

* ``kernel_timeouts``   -- pooled-timeout event throughput (events/s),
* ``timer_churn``       -- direct-callback timer arm/re-arm/cancel churn,
* ``process_pingpong``  -- generator trampoline context switches,
* ``pipe_churn``        -- fair-share pipe transfer starts+finishes (ops/s),
* ``broker_fanout``     -- pub/sub message deliveries (deliveries/s),
* ``fleet_scan``        -- struct-of-arrays scheduler selection scans
  over a 1k-worker load table (scans/s; see :mod:`repro.fleet`),
* ``contest_open_200`` / ``contest_open_400`` -- columnar bidding
  contests opened per second with 200 / 400 invited workers (every
  bid and its timetable computed from the cost planes),
* ``bidding_fleet``     -- the paper's scheduler end to end at fleet
  scale: 200 workers x 300 jobs, untraced (jobs/s; gated),
* ``pull_fleet``        -- the paper's comparator end to end: ``baseline``
  at 100 workers x 300 jobs, untraced -- 4.5 declines per job, settled
  at the master, then one real offer / accept / completion each, so
  this is the decline cascade plus the message path (jobs/s; gated),
* ``full_cell``         -- one end-to-end :func:`run_cell` (wall seconds).

Each benchmark reports the *best* of ``repeats`` runs (minimum wall
time), the standard way to suppress scheduler and allocator noise in
microbenchmarks.  ``--quick`` shrinks the workloads ~5x for CI;
``--check BASELINE.json`` fails the run when a gated throughput
(:data:`GATE_METRICS`) regresses more than ``--tolerance`` (default 10%)
against a committed baseline.  Throughputs are only comparable between runs on the same
hardware; the gate therefore compares quick-mode runs on the same CI
runner class.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

SCHEMA_VERSION = 1

#: Every metric the CI regression gate watches (rates, higher better).
#: Metrics absent from an older committed baseline are skipped, so the
#: gate tightens automatically once the baseline is regenerated.
GATE_METRICS = ("kernel_timeouts", "fleet_scan", "bidding_fleet", "pull_fleet")


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's outcome: best wall time and derived throughput."""

    name: str
    #: Best (minimum) wall-clock seconds over all repeats.
    wall_s: float
    #: Operations performed in one run (events, transfers, deliveries...).
    ops: int
    #: Throughput unit label, e.g. ``"events/s"``; ``"s"`` for wall-time
    #: benchmarks where lower is better and no rate is meaningful.
    unit: str
    repeats: int

    @property
    def rate(self) -> float:
        """Operations per second (0 for pure wall-time benchmarks)."""
        if self.unit == "s" or self.wall_s <= 0:
            return 0.0
        return self.ops / self.wall_s

    def to_dict(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "ops": self.ops,
            "unit": self.unit,
            "repeats": self.repeats,
            "rate": self.rate,
        }


def _time_best(fn: Callable[[], int], repeats: int) -> tuple[float, int]:
    """Best wall time of ``fn`` over ``repeats`` runs; fn returns its op
    count, or ``(op count, seconds)`` when it times its own measured
    region (set-up excluded)."""
    best = float("inf")
    ops = 0
    for _ in range(repeats):
        start = time.perf_counter()
        ops = fn()
        elapsed = time.perf_counter() - start
        if isinstance(ops, tuple):
            ops, elapsed = ops
        if elapsed < best:
            best = elapsed
    return best, ops


# -- individual benchmarks ------------------------------------------------


def _bench_kernel_timeouts(n: int) -> int:
    """One process yielding ``n`` pooled sleeps: the kernel's inner loop."""
    from repro.sim.kernel import Simulator

    sim = Simulator()

    def proc():
        sleep = sim.sleep
        for _ in range(n):
            yield sleep(0.001)

    sim.process(proc())
    sim.run()
    return n


def _bench_timer_churn(n: int) -> int:
    """Arm, re-arm and cancel direct-callback timers ``n`` times."""
    from repro.sim.kernel import Simulator, TimerHandle

    sim = Simulator()
    fired = [0]

    def tick():
        fired[0] += 1

    handle = TimerHandle()
    for i in range(n):
        sim.call_at(sim.now + 0.001 * (i + 1), tick, handle=handle)
        if i % 3 == 0:
            # Re-arm immediately: the previous occurrence goes stale in
            # the heap and must be skipped by the generation check.
            sim.call_at(sim.now + 0.002 * (i + 1), tick, handle=handle)
        if i % 7 == 0:
            handle.cancel()
            sim.call_at(sim.now + 0.001, tick, handle=handle)
        sim.run()
    return n


def _bench_process_pingpong(n: int) -> int:
    """Two processes exchanging ``n`` items through a pair of stores."""
    from repro.sim import Simulator, Store

    sim = Simulator()
    ping, pong = Store(sim), Store(sim)

    def left():
        for i in range(n):
            yield ping.put(i)
            yield pong.get()

    def right():
        for _ in range(n):
            value = yield ping.get()
            yield pong.put(value)

    sim.process(left())
    sim.process(right())
    sim.run()
    return 2 * n


def _bench_pipe_churn(n: int) -> int:
    """Staggered fair-share transfers: start/finish churn on one pipe."""
    from repro.net.bandwidth import FairSharePipe
    from repro.sim.kernel import Simulator

    sim = Simulator()
    pipe = FairSharePipe(sim, capacity_mbps=100.0)

    def spawn(i):
        def proc():
            yield sim.sleep(i * 0.01)
            yield pipe.transfer(5.0 + (i % 7))

        return proc

    for i in range(n):
        sim.process(spawn(i)())
    sim.run()
    return 2 * n  # each transfer is one start and one finish event


def _bench_broker_fanout(publishes: int, subscribers: int) -> int:
    """Batched pub/sub delivery throughput."""
    from repro.net.broker import Broker
    from repro.sim.kernel import Simulator

    sim = Simulator()
    broker = Broker(sim, base_latency=0.001)
    for i in range(subscribers):
        broker.subscribe("bench", f"sub-{i}")

    def pub():
        for i in range(publishes):
            broker.publish("bench", {"seq": i})
            yield sim.sleep(0.0001)

    sim.process(pub())
    sim.run()
    return publishes * subscribers


def _bench_fleet_scan(workers: int, rounds: int) -> int:
    """Struct-of-arrays scheduler selection scans over a big fleet.

    One round = one (load, name)-rank argmin over a load table --
    alternating full-domain and holder-masked, the two shapes every
    centralized scheduler pick takes -- plus the winner's accumulator
    update.
    """
    import numpy as np

    from repro.fleet import LoadTable

    table = LoadTable()
    table.reset({f"w{i:04d}": 0.0 for i in range(workers)})
    holders = np.zeros(workers, dtype=bool)
    holders[::7] = True
    for i in range(rounds):
        name = table.argmin_name(holders if i % 2 else None)
        table.add(name, 1.0 + (i % 5))
    return rounds


def _bench_contest_open(workers: int, contests: int) -> tuple[int, float]:
    """Open ``contests`` bidding contests against ``workers`` idle
    bidders: the per-job cost of the columnar contest itself."""
    from repro.experiments.golden import scale_runtime
    from repro.workload.job import Job
    from repro.workload.msr import TASK_ANALYZER

    runtime = scale_runtime(workers, observed=False)
    runtime.master.start()
    for worker in runtime.workers.values():
        worker.start()
    runtime.sim.run(until=3.0)  # every bidder has bid once
    policy = runtime.master.policy
    jobs = [
        Job(f"open-{index}", TASK_ANALYZER, repo_id=f"r{index % 7}", size_mb=100.0)
        for index in range(contests)
    ]
    start = time.perf_counter()
    for job in jobs:
        policy._open(job)
    return contests, time.perf_counter() - start


def _bench_bidding_fleet() -> int:
    """``bidding`` on the benchmark's fleet shape, 200 workers x 300 jobs."""
    from repro.experiments.golden import scale_runtime

    return scale_runtime(200, observed=False).run().jobs_completed


def _bench_pull_fleet() -> int:
    """``baseline`` on the benchmark's fleet shape, 100 workers x 300 jobs."""
    from repro.experiments.golden import scale_runtime

    return scale_runtime(100, observed=False, scheduler="baseline").run().jobs_completed


def _bench_full_cell() -> int:
    """One end-to-end experiment cell (the macro benchmark)."""
    from repro.experiments.runner import CellSpec, run_cell

    results = run_cell(
        CellSpec(
            scheduler="bidding",
            workload="80%_large",
            profile="fast-slow",
            seed=11,
            iterations=1,
        )
    )
    return sum(r.jobs_completed for r in results)


# -- harness --------------------------------------------------------------


def run_benchmarks(quick: bool = False, repeats: int = 3) -> list[BenchResult]:
    """Run the full suite; ``quick`` shrinks workloads ~5x for CI."""
    scale = 1 if not quick else 5
    suite: list[tuple[str, str, Callable[[], int]]] = [
        (
            "kernel_timeouts",
            "events/s",
            lambda: _bench_kernel_timeouts(50_000 // scale),
        ),
        ("timer_churn", "timers/s", lambda: _bench_timer_churn(20_000 // scale)),
        (
            "process_pingpong",
            "switches/s",
            lambda: _bench_process_pingpong(20_000 // scale),
        ),
        ("pipe_churn", "ops/s", lambda: _bench_pipe_churn(2_000 // scale)),
        (
            "broker_fanout",
            "deliveries/s",
            lambda: _bench_broker_fanout(10_000 // scale, 20),
        ),
        (
            "fleet_scan",
            "scans/s",
            lambda: _bench_fleet_scan(1_000, 10_000 // scale),
        ),
        (
            "contest_open_200",
            "contests/s",
            lambda: _bench_contest_open(200, 2_000 // scale),
        ),
        (
            "contest_open_400",
            "contests/s",
            lambda: _bench_contest_open(400, 2_000 // scale),
        ),
        # Not shrunk by --quick: 300 jobs is already the smallest run in
        # which the contests, not building 200 workers, set the rate.
        ("bidding_fleet", "jobs/s", _bench_bidding_fleet),
        ("pull_fleet", "jobs/s", _bench_pull_fleet),
        ("full_cell", "s", _bench_full_cell),
    ]
    results = []
    for name, unit, fn in suite:
        wall, ops = _time_best(fn, repeats)
        results.append(
            BenchResult(name=name, wall_s=wall, ops=ops, unit=unit, repeats=repeats)
        )
    return results


def to_report(results: list[BenchResult], quick: bool) -> dict:
    """The BENCH.json document for a benchmark run."""
    return {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "results": {r.name: r.to_dict() for r in results},
    }


def check_regression(
    report: dict, baseline_path: str, tolerance: float = 0.10
) -> Optional[str]:
    """Compare gated hot-path throughputs against a committed baseline.

    Returns an error string when any :data:`GATE_METRICS` rate fell more
    than ``tolerance`` below the baseline, ``None`` otherwise.  Gate
    metrics missing from an older baseline are skipped; the macro
    benchmarks are too machine-sensitive to block CI and are never
    gated.
    """
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    gated = False
    for metric in GATE_METRICS:
        base = baseline.get("results", {}).get(metric)
        if base is None:
            continue
        current = report.get("results", {}).get(metric)
        if current is None:
            return f"current report lacks the gated {metric!r} result"
        gated = True
        base_rate = base["rate"]
        current_rate = current["rate"]
        floor = base_rate * (1.0 - tolerance)
        if current_rate < floor:
            unit = current.get("unit", "ops/s")
            return (
                f"{metric} regressed: {current_rate:,.0f} {unit} vs baseline "
                f"{base_rate:,.0f} (floor {floor:,.0f} at {tolerance:.0%} tolerance)"
            )
    if not gated:
        return f"baseline lacks every gated metric {GATE_METRICS!r}"
    return None


def format_results(results: list[BenchResult]) -> str:
    """Human-readable summary table."""
    from repro.metrics.report import format_table

    rows = []
    for r in results:
        if r.unit == "s":
            value = f"{r.wall_s:.3f} s"
        else:
            value = f"{r.rate:,.0f} {r.unit}"
        rows.append([r.name, value, f"{r.wall_s * 1000:.1f}", str(r.repeats)])
    return format_table(
        ["benchmark", "throughput", "best wall [ms]", "repeats"],
        rows,
        title="kernel / network hot-path benchmarks",
    )


def main(
    out: str = "BENCH.json",
    quick: bool = False,
    repeats: int = 3,
    check: Optional[str] = None,
    tolerance: float = 0.10,
) -> int:
    """Run the suite, write ``out``, optionally gate against a baseline."""
    results = run_benchmarks(quick=quick, repeats=repeats)
    print(format_results(results))
    report = to_report(results, quick=quick)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"benchmark report written to {out}")
    if check is not None:
        error = check_regression(report, check, tolerance=tolerance)
        if error is not None:
            print(f"FAIL: {error}", file=sys.stderr)
            return 1
        for metric in GATE_METRICS:
            result = report["results"].get(metric)
            if result is not None:
                print(
                    f"OK: {metric} at {result['rate']:,.0f} {result['unit']} "
                    "within tolerance"
                )
    return 0
