"""Command-line interface: ``python -m repro`` / ``repro``.

Subcommands map one-to-one onto the experiment modules::

    repro fig2                 # Figure 2: Spark vs Crossflow Baseline
    repro fig3                 # Figures 3a/3b/3c + Section 6.3.2 claims
    repro fig4                 # Figure 4 grid + the 3.57x abstract claim
    repro tables               # Tables 1-3 (full MSR pipeline)
    repro ablations            # A1-A10 design-choice sweeps
    repro sensitivity          # S1-S4 scale/parameter sweeps
    repro all                  # everything above, in order
    repro run --scheduler bidding --workload 80%_large --profile one-slow
                               # a single cell, printed per iteration
    repro serve --scheduler bidding --arrival poisson --rate 2.0 --duration 600
                               # open-loop service run with SLO summary
    repro serve --backend real # same, executed on real worker processes
    repro exec                 # one real-backend replay, report printed
    repro exec --diff          # sim-vs-real differential smoke matrix
    repro golden --check       # drift-gate every pin
    repro golden perfetto      # deliberately re-record one pin
    repro faults               # degradation sweep: makespan vs crash rate
    repro fuzz --budget 60     # randomised scenario fuzzing with shrinking
    repro run --scenario r.json
                               # replay a (shrunk) fuzzer reproducer
    repro trace run.json       # traced cell -> Perfetto JSON (chrome://tracing)
    repro trace --timeline     # ASCII timeline + probe sparklines instead
    repro run --trace-out run.json
                               # any single cell, with the span trace exported
    repro explain              # critical-path summary of one traced cell
    repro explain --job J      # why job J landed where it did (decision ledger)
    repro explain --save A.json
                               # persist the explain document for diffing
    repro explain --diff A.json B.json
                               # where the makespan moved between two runs

``run`` and ``serve`` accept ``--faults`` with an inline JSON
:class:`~repro.faults.FaultPlan` or ``@path/to/plan.json``, and
``--check-invariants`` to run under the live
:class:`~repro.check.InvariantMonitor` (see :mod:`repro.check`).
``run`` accepts ``--profile-hot [N]`` to wrap the run in cProfile and
print the top N functions by cumulative time, then the cycle collector's
passes, finds and seconds per generation over the run, the last
iteration's exact counts (heap pushes, messages, transfers, contests
and offers; ``Deployment.counts``) and the process's peak RSS.

``--parallel N`` fans the independent simulation cells of a figure,
ablation or sweep grid across N processes (every grid command, ``all``
and ``report``; ``tables`` and ``faults`` run no grid worth splitting).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys
import time
from typing import Optional, Sequence

from repro.experiments.configs import JOB_CONFIG_NAMES, PROFILE_NAMES
from repro.experiments.runner import CellSpec, run_cell_observed
from repro.metrics.report import format_table
from repro.schedulers.registry import SCHEDULERS

#: The experiment commands: name -> (module under repro.experiments, help).
#: A module is imported only when its command runs.  ``all`` runs every
#: one but ``faults``, each under a banner made of its help's lead.
EXPERIMENTS = {
    "fig2": ("fig2_spark", "Figure 2: Spark vs Crossflow Baseline"),
    "fig3": ("fig3_aggregates", "Figure 3: per-workload aggregates + Section 6.3.2 claims"),
    "fig4": ("fig4_breakdown", "Figure 4: per-profile breakdown + abstract's 3.57x claim"),
    "tables": ("tables_msr", "Tables 1-3: full MSR pipeline runs"),
    "ablations": ("ablations", "Ablations: A1-A10 design-choice sweeps"),
    "sensitivity": (
        "sensitivity",
        "Sensitivity: S1-S4 scale/parameter sweeps (future-work scale-up)",
    ),
    "faults": ("faults_sweep", "degradation sweep: scheduler makespan under rising crash rates"),
}
#: The experiment commands that run no grid, so take no ``--parallel``.
_UNSPLIT = ("tables", "faults")


def _parse_faults(arg: Optional[str]):
    """``--faults`` value -> FaultPlan: inline JSON or ``@file.json``."""
    if arg is None:
        return None
    import json

    from repro.faults import FaultPlan

    text = arg
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as handle:
            text = handle.read()
    return FaultPlan.from_dict(json.loads(text))


def _add_faults_flag(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--faults",
        metavar="JSON|@FILE",
        default=None,
        help="fault plan as inline JSON or @path to a JSON file",
    )


def _parse_reconfig(args: argparse.Namespace):
    """``--reconfig``/``--migrate``/``--swap-at`` -> ReconfigPlan or None.

    ``--migrate AT[:MAX_JOBS]`` schedules one auto-targeted migration;
    ``--swap-at AT:SCHEDULER`` schedules one hot-swap; ``--reconfig``
    takes a full plan as inline JSON or ``@file.json``.  The shorthand
    flags compose with each other and extend a ``--reconfig`` plan.
    """
    reconfig_arg = getattr(args, "reconfig", None)
    migrate_args = getattr(args, "migrate", None) or []
    swap_args = getattr(args, "swap_at", None) or []
    if reconfig_arg is None and not migrate_args and not swap_args:
        return None
    import json

    from repro.reconfig import JobMigration, ReconfigPlan, SchedulerSwap

    migrations: list = []
    swaps: list = []
    if reconfig_arg is not None:
        text = reconfig_arg
        if reconfig_arg.startswith("@"):
            with open(reconfig_arg[1:], "r", encoding="utf-8") as handle:
                text = handle.read()
        plan = ReconfigPlan.from_dict(json.loads(text))
        migrations.extend(plan.migrations)
        swaps.extend(plan.swaps)
    for value in migrate_args:
        at_s, _, max_jobs = value.partition(":")
        migrations.append(
            JobMigration(
                at_s=float(at_s),
                max_jobs=int(max_jobs) if max_jobs else 1,
                include_running=True,
            )
        )
    for value in swap_args:
        at_s, sep, scheduler = value.partition(":")
        if not sep or not scheduler:
            raise SystemExit(f"--swap-at takes AT:SCHEDULER, got {value!r}")
        swaps.append(SchedulerSwap(at_s=float(at_s), scheduler=scheduler))
    return ReconfigPlan(migrations=tuple(migrations), swaps=tuple(swaps))


def _add_reconfig_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--reconfig",
        metavar="JSON|@FILE",
        default=None,
        help="live-reconfiguration plan as inline JSON or @path to a JSON file",
    )
    cmd.add_argument(
        "--migrate",
        metavar="AT[:MAX_JOBS]",
        action="append",
        default=None,
        help="migrate up to MAX_JOBS jobs (default 1, running included) off the "
        "most-loaded worker at simulated time AT; repeatable",
    )
    cmd.add_argument(
        "--swap-at",
        dest="swap_at",
        metavar="AT:SCHEDULER",
        action="append",
        default=None,
        help="hot-swap the scheduler to SCHEDULER at simulated time AT; repeatable",
    )


def _add_cell_flags(
    cmd: argparse.ArgumentParser,
    workload: str,
    profile: str,
    seed: int = 11,
    scheduler: bool = True,
) -> None:
    """The flags naming one experiment cell, with this command's defaults."""
    if scheduler:
        cmd.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="bidding")
    cmd.add_argument(
        "--workload",
        choices=sorted(set(JOB_CONFIG_NAMES) | {"all_small_strict", "zipf"}),
        default=workload,
    )
    cmd.add_argument("--profile", choices=sorted(PROFILE_NAMES), default=profile)
    cmd.add_argument("--seed", type=int, default=seed)


def _run_cell_flags(args: argparse.Namespace, **fields):
    """Run the cell :func:`_add_cell_flags` (plus ``--iterations`` and
    ``--faults``) named; returns its results and last runtime."""
    spec = CellSpec(
        scheduler=args.scheduler,
        workload=args.workload,
        profile=args.profile,
        seed=args.seed,
        iterations=args.iterations,
        faults=_parse_faults(args.faults),
        **fields,
    )
    return run_cell_observed(spec)


class _CollectorWatch:
    """A ``gc.callbacks`` entry: per generation, the cycle collector's
    passes, the unreachable objects they found and their seconds."""

    def __init__(self) -> None:
        self.rows = [[0, 0, 0.0] for _generation in range(3)]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        row = self.rows[info["generation"]]
        row[0] += 1
        row[1] += info["collected"]
        row[2] += time.perf_counter() - self._started


def _maybe_profiled(args: argparse.Namespace) -> None:
    """Run the cell ``repro run`` names -- under cProfile with a
    cumulative-time report, the cycle collector's work, the last
    iteration's counts and the peak RSS when ``--profile-hot`` was given."""
    top = args.profile_hot
    if top is None:
        _run_single(args)
        return
    import cProfile
    import gc
    import pstats
    import resource

    profiler = cProfile.Profile()
    watch = _CollectorWatch()
    gc.callbacks.append(watch)
    runtime = None
    profiler.enable()
    try:
        runtime = _run_single(args)
    finally:
        profiler.disable()
        gc.callbacks.remove(watch)
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.strip_dirs().sort_stats("cumulative").print_stats(top)
        for generation, (passes, found, seconds) in enumerate(watch.rows):
            print(
                f"cycle collector, generation {generation}: {passes} passes, "
                f"{found} objects found, {seconds:.3f} s"
            )
        if runtime is not None:
            counts = ", ".join(f"{name} {value}" for name, value in runtime.counts().items())
            print(f"counts, last iteration: {counts}")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"peak RSS: {peak_kb / 1024:.1f} MB")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: an argparse
    parser is a reference cycle, and one per call would leave it to the
    cycle collector each time."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Distributed Data Locality-Aware Job Allocation' "
            "(SC-W 2023): regenerate every table and figure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {name: help_text for name, (_module, help_text) in EXPERIMENTS.items()}
    commands["all"] = "run every experiment but faults, in order"
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        if name not in _UNSPLIT:
            cmd.add_argument(
                "--parallel", type=int, default=None, help="processes for independent cells"
            )
        if name == "faults":
            _add_cell_flags(cmd, "80%_large", "all-equal", scheduler=False)

    report = sub.add_parser("report", help="write a self-contained HTML report")
    report.add_argument("--out", default="report.html", help="output path")
    report.add_argument("--parallel", type=int, default=None)

    run = sub.add_parser("run", help="run a single experiment cell")
    run.add_argument(
        "--scenario",
        metavar="FILE",
        default=None,
        help="replay a fuzzer scenario JSON instead of an experiment cell",
    )
    _add_cell_flags(run, "80%_large", "all-equal")
    run.add_argument("--iterations", type=int, default=3)
    run.add_argument("--cold", action="store_true", help="do not persist caches across iterations")
    run.add_argument("--save-json", metavar="PATH", help="persist per-iteration results as JSON")
    run.add_argument("--save-csv", metavar="PATH", help="persist per-iteration results as CSV")
    _add_faults_flag(run)
    _add_reconfig_flags(run)
    run.add_argument(
        "--allow-partial",
        action="store_true",
        help="report permanently failed jobs instead of erroring out",
    )
    run.add_argument(
        "--check-invariants",
        dest="check_invariants",
        action="store_true",
        help="run under the live invariant monitor (repro.check)",
    )
    run.add_argument(
        "--trace-out",
        dest="trace_out",
        metavar="FILE",
        default=None,
        help="record spans/probes and export a Perfetto trace_event JSON",
    )
    run.add_argument(
        "--profile-hot",
        dest="profile_hot",
        metavar="N",
        nargs="?",
        type=int,
        const=25,
        default=None,
        help="run under cProfile and print the top N functions (default 25), "
        "the cycle collector's work, the run's counts and the peak RSS",
    )

    trace_cmd = sub.add_parser(
        "trace",
        help="run one traced cell: Perfetto export, ASCII timeline, attribution",
    )
    trace_cmd.add_argument(
        "out",
        nargs="?",
        default=None,
        help="Perfetto trace_event JSON output path (omit for console views)",
    )
    _add_cell_flags(trace_cmd, "80%_small", "all-equal")
    trace_cmd.add_argument(
        "--iterations",
        type=int,
        default=1,
        help="cell iterations; the last (warm-cache) one is exported",
    )
    trace_cmd.add_argument(
        "--perfetto",
        action="store_true",
        help="write Perfetto JSON even without OUT (defaults to trace.json)",
    )
    trace_cmd.add_argument(
        "--timeline", action="store_true", help="print the ASCII timeline view"
    )
    trace_cmd.add_argument(
        "--attribution",
        action="store_true",
        help="print the per-component sim-time attribution table",
    )
    trace_cmd.add_argument(
        "--csv", metavar="PATH", default=None, help="write probe time-series as CSV"
    )
    trace_cmd.add_argument(
        "--json", metavar="PATH", default=None, help="write probe time-series as JSON"
    )
    trace_cmd.add_argument(
        "--interval", type=float, default=1.0, help="probe cadence in simulated seconds"
    )
    _add_faults_flag(trace_cmd)

    explain_cmd = sub.add_parser(
        "explain",
        help="critical-path attribution + decision ledger for one traced cell, "
        "or --diff two saved explain documents",
    )
    _add_cell_flags(explain_cmd, "80%_small", "fast-slow", seed=7)
    explain_cmd.add_argument(
        "--iterations",
        type=int,
        default=1,
        help="cell iterations; the last one is explained",
    )
    explain_cmd.add_argument(
        "--job",
        metavar="JOB_ID",
        default=None,
        help="explain one job's allocation decision instead of the whole run",
    )
    explain_cmd.add_argument(
        "--save",
        metavar="FILE",
        default=None,
        help="write the explain document (JSON) for later --diff",
    )
    explain_cmd.add_argument(
        "--csv",
        metavar="FILE",
        default=None,
        help="write the critical chain as per-job CSV rows",
    )
    explain_cmd.add_argument(
        "--perfetto",
        metavar="FILE",
        default=None,
        help="Perfetto export with an extra critical-path track",
    )
    explain_cmd.add_argument(
        "--diff",
        nargs=2,
        metavar=("A.json", "B.json"),
        default=None,
        help="compare two saved explain documents instead of running a cell",
    )
    _add_faults_flag(explain_cmd)

    fuzzer = sub.add_parser(
        "fuzz",
        help="randomised scenario fuzzing: monitors + oracle on, shrink failures",
    )
    fuzzer.add_argument(
        "--budget",
        default="60s",
        help="wall-clock budget in seconds (a trailing 's' is accepted)",
    )
    fuzzer.add_argument("--seed", type=int, default=0, help="base scenario seed")
    fuzzer.add_argument(
        "--max-scenarios", type=int, default=None, help="stop after N scenarios"
    )
    fuzzer.add_argument(
        "--planted",
        choices=["double-allocate", "overdelivery", "buggy-migrator"],
        default=None,
        help="self-validation: fuzz a deliberately planted bug (exit 0 iff found)",
    )
    fuzzer.add_argument(
        "--reconfig",
        action="store_true",
        help="mix live migrations and scheduler hot-swaps into every scenario",
    )
    fuzzer.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write each shrunk reproducer as a JSON file in DIR",
    )

    serve = sub.add_parser(
        "serve", help="open-loop service run: arrivals, admission, SLO summary"
    )
    serve.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="bidding")
    serve.add_argument("--profile", choices=sorted(PROFILE_NAMES), default="all-equal")
    serve.add_argument(
        "--arrival", choices=["poisson", "diurnal", "burst"], default="poisson"
    )
    serve.add_argument("--rate", type=float, default=2.0, help="mean arrivals per second")
    serve.add_argument(
        "--duration", type=float, default=600.0, help="arrival window (simulated s)"
    )
    serve.add_argument("--seed", type=int, default=11)
    serve.add_argument("--queue-cap", type=int, default=64, help="admission queue bound")
    serve.add_argument(
        "--admission",
        choices=["reject", "delay"],
        default="reject",
        help="overload response: shed arrivals or backpressure them",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=None, help="token-bucket cap (jobs/s)"
    )
    serve.add_argument(
        "--deadline", type=float, default=None, help="per-job latency SLO (s)"
    )
    serve.add_argument(
        "--autoscale", action="store_true", help="enable the elastic worker pool"
    )
    serve.add_argument("--min-workers", type=int, default=2)
    serve.add_argument("--max-workers", type=int, default=10)
    serve.add_argument("--save-json", metavar="PATH", help="persist the report as JSON")
    serve.add_argument(
        "--backend",
        choices=["sim", "real"],
        default="sim",
        help="'real' executes the run on the repro.exec multi-process pool",
    )
    serve.add_argument(
        "--time-scale",
        dest="time_scale",
        type=float,
        default=0.02,
        help="real backend: wall seconds per simulated second (default 0.02)",
    )
    _add_faults_flag(serve)
    serve.add_argument(
        "--check-invariants",
        dest="check_invariants",
        action="store_true",
        help="run under the live invariant monitor (repro.check)",
    )
    serve.add_argument(
        "--trace-out",
        dest="trace_out",
        metavar="FILE",
        default=None,
        help="record spans/probes and export a Perfetto trace_event JSON",
    )

    exec_cmd = sub.add_parser(
        "exec",
        help="real execution backend: replay a sim plan on OS processes, "
        "or --diff it against the simulator",
    )
    exec_cmd.add_argument(
        "--diff",
        action="store_true",
        help="differential mode: assert sim and real agree (exit 1 on divergence)",
    )
    exec_cmd.add_argument(
        "--schedulers",
        nargs="+",
        choices=sorted(SCHEDULERS),
        default=None,
        help="schedulers to cover (default: --diff covers all, else bidding)",
    )
    exec_cmd.add_argument("--seed", type=int, default=11)
    exec_cmd.add_argument(
        "--jobs", type=int, default=18, help="smoke-scenario job count"
    )
    exec_cmd.add_argument(
        "--time-scale",
        dest="time_scale",
        type=float,
        default=0.01,
        help="wall seconds per simulated second (default 0.01)",
    )
    exec_cmd.add_argument(
        "--kill",
        metavar="WORKER:AFTER",
        default=None,
        help="SIGKILL WORKER once AFTER jobs completed (e.g. w1:2); "
        "--diff then checks conservation instead of sequence equality",
    )
    exec_cmd.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the (divergence) report as JSON",
    )

    golden = sub.add_parser(
        "golden", help="pinned fixed-seed outputs: re-record, or --check for drift"
    )
    golden.add_argument(
        "fixtures",
        nargs="*",
        metavar="NAME",
        help="pin names (default: all); see repro.experiments.golden",
    )
    golden.add_argument(
        "--check",
        action="store_true",
        help="drift gate: regenerate into memory and fail on mismatch",
    )
    golden.add_argument(
        "--dir",
        dest="directory",
        metavar="DIR",
        default=None,
        help="directory of the pinned files (default: the repo's tests/)",
    )
    return parser


def _replay_scenario(path: str) -> int:
    """Replay a fuzzer scenario JSON; exit 0 iff the run is clean."""
    from repro.check.fuzzer import Scenario, run_scenario

    scenario = Scenario.from_json(f"@{path}")
    print(
        f"replaying {path}: scheduler={scenario.scheduler} seed={scenario.seed} "
        f"{len(scenario.jobs)} jobs on {len(scenario.workers)} workers"
    )
    outcome = run_scenario(scenario)
    if outcome.signature is None:
        print("clean: monitors and oracle found nothing")
        return 0
    kind, detail = outcome.signature
    print(f"FAILURE {kind}{f' [{detail}]' if detail else ''}")
    if outcome.message:
        print(outcome.message)
    return 1


def _run_fuzz(args: argparse.Namespace) -> int:
    from repro.check.fuzzer import fuzz

    budget_s = float(str(args.budget).rstrip("s"))
    report = fuzz(
        budget_s=budget_s,
        seed=args.seed,
        planted=args.planted,
        max_scenarios=args.max_scenarios,
        reconfig=args.reconfig,
    )
    print(
        f"fuzz: {report.scenarios_run} scenarios in {report.elapsed_s:.1f}s, "
        f"{len(report.failures)} distinct failure(s)"
    )
    for index, failure in enumerate(report.failures):
        kind, detail = failure.signature
        shrunk = failure.shrunk
        print(
            f"  [{index}] {kind}{f' [{detail}]' if detail else ''}: "
            f"seed {shrunk.seed}, shrunk to {len(shrunk.jobs)} job(s) on "
            f"{len(shrunk.workers)} worker(s)"
        )
        if args.out:
            import os

            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"repro-{shrunk.seed}-{index}.json")
            shrunk.to_json(path)
            print(f"      reproducer written to {path}")
    if args.planted is not None:
        # Self-validation: the planted bug MUST be found.
        if report.failures:
            print(f"planted bug {args.planted!r} caught and shrunk")
            return 0
        print(f"planted bug {args.planted!r} was NOT caught", file=sys.stderr)
        return 1
    return 1 if report.failures else 0


def _export_trace(path: str, runtime) -> None:
    """Write the runtime's span trace as Perfetto JSON and say where."""
    from repro.obs import build_spans, span_coverage, write_perfetto

    trace = runtime.metrics.trace
    spans = build_spans(trace)
    coverage = span_coverage(trace, spans)
    write_perfetto(
        path,
        trace,
        spans=spans,
        probes=runtime.obs.probes,
        flows=runtime.obs.flows,
    )
    print(
        f"trace written to {path} ({len(spans)} spans, "
        f"{coverage.connected_jobs}/{coverage.completed_jobs} jobs end-to-end); "
        "load it in chrome://tracing or ui.perfetto.dev"
    )


def _run_single(args: argparse.Namespace):
    """Run and print the cell ``repro run`` names; returns its last runtime."""
    overrides: tuple = ()
    if args.check_invariants:
        overrides += (("check", True),)
    if args.trace_out:
        overrides += (("trace", True), ("obs", True))
    results, runtime = _run_cell_flags(
        args,
        keep_cache=not args.cold,
        reconfig=_parse_reconfig(args),
        allow_partial=args.allow_partial,
        engine_overrides=overrides,
    )
    if args.trace_out:
        _export_trace(args.trace_out, runtime)
    if args.save_json:
        from repro.experiments.report_io import save_json

        print(f"results written to {save_json(results, args.save_json)}")
    if args.save_csv:
        from repro.experiments.report_io import save_csv

        print(f"results written to {save_csv(results, args.save_csv)}")
    faulty = any(r.crashes or r.failed_jobs for r in results)
    headers = ["iteration", "makespan [s]", "misses", "hits", "data [MB]", "jobs"]
    if faulty:
        headers += ["crashes", "redispatches", "failed"]
    print(
        format_table(
            headers,
            [
                [
                    str(r.iteration),
                    f"{r.makespan_s:.1f}",
                    str(r.cache_misses),
                    str(r.cache_hits),
                    f"{r.data_load_mb:.1f}",
                    str(r.jobs_completed),
                ]
                + (
                    [str(r.crashes), str(r.redispatches), str(len(r.failed_jobs))]
                    if faulty
                    else []
                )
                for r in results
            ],
            title=(
                f"{args.scheduler} on {args.workload} / {args.profile} "
                f"(seed {args.seed}, caches {'cold' if args.cold else 'persisting'})"
            ),
        )
    )
    return runtime


def _run_trace(args: argparse.Namespace) -> None:
    from repro.obs import (
        ObsConfig,
        attribute,
        build_spans,
        render_attribution,
        render_timeline,
        span_coverage,
    )

    results, runtime = _run_cell_flags(
        args,
        engine_overrides=(("trace", True), ("obs", ObsConfig(probe_interval_s=args.interval))),
    )
    result = results[-1]
    trace = runtime.metrics.trace
    spans = build_spans(trace)
    coverage = span_coverage(trace, spans)
    print(
        f"{args.scheduler} on {args.workload} / {args.profile} (seed {args.seed}): "
        f"{result.jobs_completed} jobs, makespan {result.makespan_s:.1f}s, "
        f"{len(spans)} spans, "
        f"{coverage.connected_jobs}/{coverage.completed_jobs} jobs traced end-to-end"
    )
    out = args.out
    if out is None and args.perfetto:
        out = "trace.json"
    if out is not None:
        _export_trace(out, runtime)
    if args.csv:
        from repro.obs import write_timeseries_csv

        write_timeseries_csv(args.csv, runtime.obs.probes)
        print(f"probe time-series written to {args.csv}")
    if args.json:
        from repro.obs import write_timeseries_json

        write_timeseries_json(args.json, runtime.obs.probes)
        print(f"probe time-series written to {args.json}")
    # With no output file requested, default to the console views.
    console_default = out is None and not args.csv and not args.json
    if args.timeline or (console_default and not args.attribution):
        print()
        print(
            render_timeline(
                trace,
                result.makespan_s,
                probes=runtime.obs.probes,
                title=f"{args.scheduler} / {args.workload} / {args.profile}",
            )
        )
    if args.attribution or console_default:
        print()
        print(render_attribution(attribute(trace, result.makespan_s)))


def _run_explain(args: argparse.Namespace) -> int:
    from repro.obs import (
        ObsConfig,
        critical_path,
        diff_runs,
        explain_document,
        explain_job,
        load_explain,
        render_critical_path,
        render_diff,
        write_explain,
    )

    if args.diff is not None:
        path_a, path_b = args.diff
        doc_a = load_explain(path_a)
        doc_b = load_explain(path_b)
        diff = diff_runs(doc_a, doc_b, label_a=path_a, label_b=path_b)
        print(render_diff(diff))
        return 0

    results, runtime = _run_cell_flags(
        args, engine_overrides=(("trace", True), ("obs", ObsConfig()))
    )
    result = results[-1]
    trace = runtime.metrics.trace
    ledger = runtime.obs.ledger
    critical = critical_path(trace)
    if critical is None:
        print("no completed job in the trace; nothing to explain", file=sys.stderr)
        return 1
    document = explain_document(
        trace,
        ledger=ledger,
        meta={
            "scheduler": args.scheduler,
            "workload": args.workload,
            "profile": args.profile,
            "seed": args.seed,
        },
    )
    print(
        f"{args.scheduler} on {args.workload} / {args.profile} (seed {args.seed}): "
        f"{result.jobs_completed} jobs, makespan {result.makespan_s:.1f}s, "
        f"{len(ledger.records) if ledger else 0} allocation decisions recorded"
    )
    print()
    if args.job is not None:
        print(explain_job(document, args.job))
    else:
        print(render_critical_path(critical))
    if args.save:
        write_explain(args.save, document)
        print(f"\nexplain document written to {args.save}")
    if args.csv:
        from repro.obs import write_critical_path_csv

        write_critical_path_csv(args.csv, critical)
        print(f"critical chain written to {args.csv}")
    if args.perfetto:
        from repro.obs import build_spans, write_perfetto

        write_perfetto(
            args.perfetto,
            trace,
            spans=build_spans(trace),
            probes=runtime.obs.probes,
            flows=runtime.obs.flows,
            critical=critical,
        )
        print(f"Perfetto trace (with critical-path track) written to {args.perfetto}")
    return 0


def _run_serve(args: argparse.Namespace) -> None:
    from repro.cluster.profiles import profile_by_name
    from repro.engine.runtime import EngineConfig
    from repro.metrics.ascii_chart import bar_chart
    from repro.serve import (
        AdmissionConfig,
        AutoscalerConfig,
        ServiceConfig,
        ServiceRuntime,
        make_arrivals,
    )

    runtime = ServiceRuntime(
        profile=profile_by_name(args.profile),
        scheduler=SCHEDULERS[args.scheduler](),
        arrivals=make_arrivals(args.arrival, rate=args.rate),
        admission_config=AdmissionConfig(
            queue_cap=args.queue_cap,
            policy=args.admission,
            rate_limit=args.rate_limit,
        ),
        autoscaler_config=(
            AutoscalerConfig(min_workers=args.min_workers, max_workers=args.max_workers)
            if args.autoscale
            else None
        ),
        service_config=ServiceConfig(duration_s=args.duration, deadline_s=args.deadline),
        config=EngineConfig(
            seed=args.seed,
            check=args.check_invariants,
            obs=bool(args.trace_out),
        ),
        faults=_parse_faults(args.faults),
    )
    if args.backend == "real":
        from dataclasses import replace

        from repro.exec import ExecBackend, ExecConfig, capture_service_plan

        plan, report = capture_service_plan(runtime)
        print(
            f"plan captured: {len(plan.jobs)} jobs, {len(plan.decisions)} "
            f"decisions across {len(plan.workers)} workers; executing for real "
            f"(time scale {args.time_scale})..."
        )
        real = ExecBackend(plan, ExecConfig(time_scale=args.time_scale)).run()
        report = replace(
            report,
            completed=real.completed,
            failed=real.failed,
            cache_hits=real.cache_hits,
            cache_misses=real.cache_misses,
            data_load_mb=real.data_load_mb,
            crashes=real.crashes,
            redispatches=real.redispatches,
            duplicates_suppressed=real.duplicates_suppressed,
        )
        print(
            f"real pool: {real.completed} completed in {real.wall_s:.1f}s wall "
            f"({real.throughput_jobs_per_s:.1f} jobs/s, handoff p50 "
            f"{real.handoff_p50_s * 1000:.1f}ms); latency percentiles below "
            "remain simulated"
        )
    else:
        report = runtime.run()
    if args.trace_out:
        _export_trace(args.trace_out, runtime)
    if args.save_json:
        import json

        with open(args.save_json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"report written to {args.save_json}")
    rows = [
        ["arrivals", str(report.arrivals)],
        ["admitted", str(report.admitted)],
        ["completed", str(report.completed)],
        ["shed", f"{report.shed} ({report.shed_rate:.1%})"],
        ["throughput [jobs/s]", f"{report.throughput_jobs_per_s:.3f}"],
        ["latency p50 [s]", f"{report.latency_p50_s:.2f}"],
        ["latency p95 [s]", f"{report.latency_p95_s:.2f}"],
        ["latency p99 [s]", f"{report.latency_p99_s:.2f}"],
        ["latency mean / max [s]", f"{report.latency_mean_s:.2f} / {report.latency_max_s:.2f}"],
        ["queue peak", str(report.queue_peak)],
        ["workers initial/peak/final", f"{report.workers_initial}/{report.workers_peak}/{report.workers_final}"],
        ["scale ups / downs", f"{report.scale_ups} / {report.scale_downs}"],
        ["cache hits / misses", f"{report.cache_hits} / {report.cache_misses}"],
        ["data load [MB]", f"{report.data_load_mb:.1f}"],
    ]
    if report.crashes or report.failed:
        rows += [
            ["failed", str(report.failed)],
            ["crashes / restarts", f"{report.crashes} / {report.restarts}"],
            ["redispatches", str(report.redispatches)],
            ["duplicates suppressed", str(report.duplicates_suppressed)],
            [
                "recovery p50/p95/max [s]",
                f"{report.recovery_p50_s:.2f} / {report.recovery_p95_s:.2f} / "
                f"{report.recovery_max_s:.2f}",
            ],
        ]
    if report.deadline_misses or args.deadline is not None:
        rows.insert(9, ["deadline misses", str(report.deadline_misses)])
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"service: {args.scheduler} under {args.arrival} arrivals @ "
                f"{args.rate}/s for {args.duration:.0f}s (seed {args.seed})"
            ),
        )
    )
    if report.completed:
        print()
        print(
            bar_chart(
                [
                    ("p50", report.latency_p50_s),
                    ("p95", report.latency_p95_s),
                    ("p99", report.latency_p99_s),
                ],
                title="end-to-end latency",
                unit="s",
                fmt="{:.2f}",
            )
        )


def _parse_kill(arg: Optional[str]):
    """``--kill`` value ``WORKER:AFTER`` -> KillSpec."""
    if arg is None:
        return None
    from repro.exec import KillSpec

    worker, _, after = arg.partition(":")
    if not worker or not after:
        raise SystemExit(f"--kill expects WORKER:AFTER, got {arg!r}")
    return KillSpec(worker=worker, after_done=int(after))


def _run_exec(args: argparse.Namespace) -> int:
    from repro.exec import diff_matrix, run_diff

    kill = _parse_kill(args.kill)
    if args.diff:
        report = diff_matrix(
            schedulers=tuple(args.schedulers or ()),
            seed=args.seed,
            n_jobs=args.jobs,
            time_scale=args.time_scale,
            kill=kill,
        )
        mode = "conservation-under-crash" if kill else "sequence + accounting"
        print(
            f"sim-vs-real differential ({mode}; seed {args.seed}, "
            f"{args.jobs} jobs):"
        )
        for line in report.summary_lines():
            print(line)
        if args.out:
            print(f"report written to {report.write(args.out)}")
        if report.ok:
            print("backends agree")
            return 0
        print("DIVERGED", file=sys.stderr)
        return 1
    # Single real replay: run one scheduler's plan and show the report.
    schedulers = args.schedulers or ["bidding"]
    status = 0
    for name in schedulers:
        cell = run_diff(
            name,
            seed=args.seed,
            n_jobs=args.jobs,
            time_scale=args.time_scale,
            kill=kill,
        )
        real = cell.real
        print(
            f"{name}: {real['completed']}/{real['admitted']} jobs on "
            f"{len(real['per_worker_completed'])} real workers in "
            f"{real['wall_s']:.1f}s wall ({real['throughput_jobs_per_s']:.1f} "
            f"jobs/s); handoff p50 {real['handoff_p50_s'] * 1000:.1f}ms "
            f"max {real['handoff_max_s'] * 1000:.1f}ms; "
            f"{real['crashes']} crash(es), {real['redispatches']} redispatch(es)"
        )
        if not cell.ok:
            status = 1
            for divergence in cell.divergences:
                print(f"  DIVERGED: {divergence}", file=sys.stderr)
        if args.out:
            import json

            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(cell.to_dict(), handle, indent=2, sort_keys=True)
            print(f"report written to {args.out}")
    return status


def _run_golden(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.golden import run as run_golden

    directory = Path(args.directory) if args.directory else None
    return run_golden(args.fixtures, do_check=args.check, directory=directory)


def _run_experiment(name: str, **options) -> None:
    """Import one experiment command's module and run its ``main``."""
    module, _help = EXPERIMENTS[name]
    importlib.import_module(f"repro.experiments.{module}").main(**options)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command in EXPERIMENTS:
        options = {key: value for key, value in vars(args).items() if key != "command"}
        _run_experiment(args.command, **options)
    elif args.command == "all":
        for name, (_module, help_text) in EXPERIMENTS.items():
            if name == "faults":
                continue
            print(f"\n{'=' * 72}\n{help_text.split(':')[0].upper()}\n{'=' * 72}")
            _run_experiment(name, **({} if name in _UNSPLIT else {"parallel": args.parallel}))
    elif args.command == "report":
        from repro.experiments.html_report import generate

        path = generate(args.out, parallel=args.parallel)
        print(f"report written to {path}")
    elif args.command == "run":
        if args.scenario is not None:
            return _replay_scenario(args.scenario)
        _maybe_profiled(args)
    elif args.command == "trace":
        _run_trace(args)
    elif args.command == "explain":
        return _run_explain(args)
    elif args.command == "fuzz":
        return _run_fuzz(args)
    elif args.command == "serve":
        _run_serve(args)
    elif args.command == "exec":
        return _run_exec(args)
    elif args.command == "golden":
        return _run_golden(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
