"""One workload, measured in its own fresh interpreter.

``run.py`` launches this file once per measurement (and again, with
``--mode probe``, for every extra set-up sample).  It imports the
program, builds the workload from the seed, runs it, checks it, and
prints one JSON object as its last line of output.

Heavy imports happen inside :func:`main`: the real backend's spawned
worker processes re-import this file as their main module and must not
pay for (or be timed by) any of it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

MIN_REPS = 3
#: ``--quick`` only checks that two reps agree.
QUICK_REPS = 2
#: Upper limit on timed reps, for hosts much faster than the dev container.
MAX_REPS = 40


def digest(rows) -> str:
    """A stable hash of the program's result rows (floats by ``repr``)."""
    text = json.dumps(rows, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def summarise(outcomes) -> dict:
    """Fold the cells of one rep into its counts, sums and digest."""
    problems = [problem for outcome in outcomes for problem in outcome.problems]
    attempted = sum(o.attempted for o in outcomes)
    policies: dict[str, dict] = {}
    extra: dict[str, list] = {}
    for o in outcomes:
        entry = policies.setdefault(o.scheduler, {"completed": 0, "timed_s": 0.0})
        entry["completed"] += o.completed
        entry["timed_s"] += o.timed_s
        for key, value in o.extra.items():
            extra.setdefault(key, []).append(value)
    return {
        "attempted": attempted,
        "completed": sum(o.completed for o in outcomes),
        # A rep that fails any check counts all of its jobs as failed.
        "failed": attempted if problems else sum(o.failed for o in outcomes),
        "timed_s": sum(o.timed_s for o in outcomes),
        "problems": problems,
        "digest": digest([o.rows for o in outcomes]),
        "policies": policies,
        "cache_hits": sum(o.cache_hits for o in outcomes),
        "cache_misses": sum(o.cache_misses for o in outcomes),
        "data_load_mb": sum(o.data_load_mb for o in outcomes),
        "makespan_s": (
            sum(o.makespan_s for o in outcomes)
            if all(o.makespan_s is not None for o in outcomes)
            else None
        ),
        "extra": extra,
    }


def behaviour(rep: dict) -> dict:
    """The simulated (seed-pure) numbers of one rep, by metric name.

    Two runs of one commit and seed must agree on every one of these
    exactly; ``compare.py`` reports any that moved.  A number that does
    not exist for a workload is left out, never reported as 0.
    """
    extra = rep["extra"]
    jobs = rep["completed"]
    out = {
        "attempted": rep["attempted"],
        "completed": rep["completed"],
        "failed_share": rep["failed"] / rep["attempted"],
        "sim_data_load_mb": rep["data_load_mb"],
        "sim_cache_miss_rate": rep["cache_misses"] / (rep["cache_hits"] + rep["cache_misses"]),
        "engine.redispatches_per_job": sum(extra["redispatches"]) / jobs,
        "faults.crashes": sum(extra["crashes"]),
    }
    if rep["makespan_s"] is not None:
        out["sim_makespan_s"] = rep["makespan_s"]
    if "contest_sim_s" in extra:
        out["core.contest_sim_s_per_job"] = sum(extra["contest_sim_s"]) / jobs
        out["schedulers.rejections_per_job"] = sum(extra["rejections"]) / jobs
    if "latency_p50_s" in extra:  # serve-churn: averaged over its schedulers
        cells = len(extra["latency_p50_s"])
        out["sim_latency_p50_s"] = sum(extra["latency_p50_s"]) / cells
        out["sim_latency_p99_s"] = sum(extra["latency_p99_s"]) / cells
        out["shed_rate"] = sum(
            shed / arrivals for shed, arrivals in zip(extra["shed"], extra["arrivals"])
        ) / cells
        out["serve.scale_actions"] = sum(extra["scale_actions"])
        out["serve.queue_peak"] = max(extra["queue_peak"])
    return out


def host_rates(reps: list[dict]) -> dict:
    """Host-time numbers of single layers that an untraced run already
    has, by per-layer metric name: jobs/s of each scheduler inside the
    sweep and, on exec-real, spawn, plan capture and handoff.  Medians
    over the reps."""
    samples: dict[str, list] = {}
    for rep in reps:
        for scheduler, entry in rep["policies"].items():
            layer = "core" if scheduler == "bidding" else "schedulers"
            samples.setdefault(f"{layer}.{scheduler}.jobs_per_s", []).append(
                entry["completed"] / entry["timed_s"]
            )
        for name in ("spawn_s", "plan_capture_s", "handoff_p50_ms", "handoff_max_ms"):
            if name in rep["extra"]:
                samples.setdefault(f"exec.{name}", []).append(rep["extra"][name][0])
    return {name: statistics.median(values) for name, values in samples.items()}


class Measurement:
    """The reps of one child, and every correctness failure they hit."""

    def __init__(self, args, workloads, spans) -> None:
        self.args = args
        self.workloads = workloads
        self.spans = spans
        self.scale = workloads.QUICK_FACTOR if args.quick else 1.0
        self.problems: list[str] = []

    def build(self, scale: float = 1.0):
        return self.workloads.BUILDERS[self.args.workload](
            self.args.seed, self.scale * scale, self.spans
        )

    def rep(self, built, name: str, verify: bool = False, tracer=None) -> dict:
        """One checked rep.  GC stays on, as users run it; each rep
        starts from a collected heap."""
        gc.collect()
        run = lambda: self.workloads.run_rep(built, self.spans, name, verify)  # noqa: E731
        summary = summarise(tracer.trace(run) if tracer else run())
        self.problems.extend(f"{name}: {problem}" for problem in summary["problems"])
        return summary

    def timed_reps(self, workload) -> list[dict]:
        """Warm up at a tenth of the size, then rep until ``--seconds``
        have passed (at least ``MIN_REPS`` times)."""
        args = self.args
        if not args.quick:
            self.rep(self.build(self.workloads.WARMUP_SCALE), "warmup")
        wanted = 1 if args.mode == "trace" else (QUICK_REPS if args.quick else MIN_REPS)
        budget = 0.0 if args.quick or args.mode == "trace" else args.seconds
        reps: list[dict] = []
        started = time.perf_counter()
        while len(reps) < wanted or (
            time.perf_counter() - started < budget and len(reps) < MAX_REPS
        ):
            reps.append(self.rep(workload, f"rep.{len(reps)}"))
        for index, summary in enumerate(reps[1:], start=1):
            if summary["digest"] != reps[0]["digest"]:
                self.problems.append(f"rep.{index}: result rows differ from rep.0 (same seed)")
        return reps

    def traced_pass(self, full: dict) -> dict:
        """The per-layer numbers: quarter-size untraced, traced and oracle passes.

        ``full`` is the full-size untraced rep that ran just before; the
        counters the program reports itself (contests, rejections,
        crashes, latency) are read from it, the call counts from the
        traced quarter.
        """
        from ledger import Ledger

        workloads = self.workloads
        quarter = self.build(workloads.TRACE_SCALE)
        untraced = self.rep(quarter, "quarter.untraced")
        ledger = Ledger(os.path.dirname(sys.modules["repro"].__file__))
        traced = self.rep(quarter, "quarter.traced", tracer=ledger)
        if traced["digest"] != untraced["digest"]:
            self.problems.append("quarter.traced: result rows differ from quarter.untraced")
        metrics = ledger.to_json(traced["completed"])
        metrics["trace.overhead_ratio"] = (traced["timed_s"] / traced["completed"]) / (
            untraced["timed_s"] / untraced["completed"]
        )
        if isinstance(quarter, workloads.FleetWorkload):
            # The 200/400-worker oracle of ROADMAP item 4a, in miniature.
            self.rep(quarter, "quarter.verify", verify=True)

        metrics.update(host_rates([full]))
        for name, value in behaviour(full).items():
            if name in ("attempted", "completed", "sim_cache_miss_rate"):
                continue
            # The numbers ISSUE 12 wanted end to end but that exist on
            # some workloads only go under the layer that produces them.
            name = {
                "sim_makespan_s": "sim.makespan_s",
                "sim_data_load_mb": "sim.data_load_mb",
                "sim_latency_p50_s": "serve.sim_latency_p50_s",
                "sim_latency_p99_s": "serve.sim_latency_p99_s",
                "shed_rate": "serve.shed_rate",
            }.get(name, name)
            metrics[name] = value
        if isinstance(quarter, workloads.ExecReal):
            metrics["exec.redispatches"] = full["extra"]["redispatches"][0]

        if isinstance(quarter, workloads.PaperObserved):
            # Observer cost by ablation, all-but-one: an observer is worth
            # what switching only it off saves, as a share of the all-on
            # wall.  At quarter size, against the untraced quarter above.
            all_on = untraced["timed_s"]
            for name, flags in (
                ("obs.ablation_share", {"obs": False}),
                ("check.ablation_share", {"check": False}),
                ("metrics.trace_ablation_share", {"trace": False}),
                ("observers.none_speedup", {"obs": False, "check": False, "trace": False}),
            ):
                variant = workloads.PaperObserved(
                    self.args.seed, self.scale * workloads.TRACE_SCALE, **flags
                )
                wall = self.rep(variant, f"ablation.{name}")["timed_s"]
                metrics[name] = all_on / wall if name.endswith("speedup") else (all_on - wall) / all_on
        return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "trace", "probe"), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--t0", type=float, required=True, help="time.time() at launch")
    parser.add_argument("--out", required=True, help="directory for trace files")
    args = parser.parse_args()

    from spans import SpanRecorder

    # Span clock: 0 is the moment run.py launched this interpreter.
    spans = SpanRecorder(args.workload, time.perf_counter() - (time.time() - args.t0))
    with spans.span("setup.import"):
        import numpy
        import repro  # noqa: F401

        import workloads

    measurement = Measurement(args, workloads, spans)
    with spans.span("setup.build") as build_span:
        workload = measurement.build()
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "quick": args.quick,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        # Launch of this interpreter -> ready for the first timed call.
        "ready_s": build_span.end,
    }
    if args.mode == "probe":
        print(json.dumps(out))
        return 0

    reps: list[dict] = []
    trace_metrics: dict[str, float] = {}
    try:
        reps = measurement.timed_reps(workload)
        if args.mode == "trace":
            trace_metrics = measurement.traced_pass(reps[0])
    except Exception:
        # The program raised (a stalled workflow, a broken invariant, a
        # worker that never registered): a failed check, not a crash of
        # the benchmark.  Report it with whatever was measured.
        measurement.problems.append(f"the program raised:\n{traceback.format_exc()}")

    # This interpreter plus the largest process it waited for: a worker
    # of the real backend on exec-real, nothing (0) everywhere else.
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    out.update(
        {
            "reps": [
                {key: r[key] for key in ("attempted", "completed", "failed", "timed_s", "digest", "extra")}
                for r in reps
            ],
            "rates": host_rates(reps) if reps else {},
            "behaviour": behaviour(reps[0]) if reps else {},
            "problems": measurement.problems,
            "peak_rss_mb": rss_kb / 1024.0,
            "trace": trace_metrics,
        }
    )
    if args.mode == "trace":
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, f"trace_{args.workload}.json"), "w") as handle:
            json.dump({"spans": spans.to_json(), "ledger": trace_metrics}, handle, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
