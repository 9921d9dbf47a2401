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

Every command is one row of :data:`COMMANDS`: its help line, the
function that adds its flags and its handler.  A command's flags are
added, and what they and its handler name imported, only when that
command is parsed: ``repro --help`` reads nothing but the table's help
lines, and ``import repro.cli`` loads no simulator.

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
from typing import Callable, NamedTuple, Optional, Sequence

from repro.config import read_json

# -- flags: each adds its flags to one command's parser -------------------------


def _parallel_flag(cmd, help_text: Optional[str] = "processes for independent cells") -> None:
    cmd.add_argument("--parallel", type=int, help=help_text)


def _no_flags(cmd) -> None:
    """A command that takes no flags."""


def _scheduler_flag(cmd) -> None:
    from repro.schedulers.registry import SCHEDULERS

    cmd.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="bidding")


def _cell_flags(cmd, workload: str, profile: str, seed: int = 11, scheduler: bool = True) -> None:
    """The flags naming one experiment cell, with this command's defaults."""
    from repro.experiments.configs import JOB_CONFIG_NAMES, PROFILE_NAMES

    if scheduler:
        _scheduler_flag(cmd)
    cmd.add_argument(
        "--workload",
        choices=sorted(set(JOB_CONFIG_NAMES) | {"all_small_strict", "zipf"}),
        default=workload,
    )
    cmd.add_argument("--profile", choices=sorted(PROFILE_NAMES), default=profile)
    cmd.add_argument("--seed", type=int, default=seed)


def _faults_flag(cmd) -> None:
    cmd.add_argument(
        "--faults", metavar="JSON|@FILE", help="fault plan as inline JSON or @path to a JSON file"
    )


def _save_json_flag(cmd, what: str) -> None:
    cmd.add_argument("--save-json", metavar="PATH", help=f"persist {what} as JSON")


def _observe_flags(cmd) -> None:
    """``--check-invariants`` and ``--trace-out``."""
    cmd.add_argument(
        "--check-invariants",
        action="store_true",
        help="run under the live invariant monitor (repro.check)",
    )
    cmd.add_argument(
        "--trace-out",
        metavar="FILE",
        help="record spans/probes and export a Perfetto trace_event JSON",
    )


def _report_flags(cmd) -> None:
    cmd.add_argument("--out", default="report.html", help="output path")
    _parallel_flag(cmd, help_text=None)


def _run_flags(cmd) -> None:
    cmd.add_argument(
        "--scenario",
        metavar="FILE",
        help="replay a fuzzer scenario JSON instead of an experiment cell",
    )
    _cell_flags(cmd, "80%_large", "all-equal")
    cmd.add_argument("--iterations", type=int, default=3)
    cmd.add_argument("--cold", action="store_true", help="do not persist caches across iterations")
    _save_json_flag(cmd, "per-iteration results")
    cmd.add_argument("--save-csv", metavar="PATH", help="persist per-iteration results as CSV")
    _faults_flag(cmd)
    cmd.add_argument(
        "--reconfig",
        metavar="JSON|@FILE",
        help="live-reconfiguration plan as inline JSON or @path to a JSON file",
    )
    cmd.add_argument(
        "--migrate",
        metavar="AT[:MAX_JOBS]",
        action="append",
        help="migrate up to MAX_JOBS jobs (default 1, running included) off the "
        "most-loaded worker at simulated time AT; repeatable",
    )
    cmd.add_argument(
        "--swap-at",
        metavar="AT:SCHEDULER",
        action="append",
        help="hot-swap the scheduler to SCHEDULER at simulated time AT; repeatable",
    )
    cmd.add_argument(
        "--allow-partial",
        action="store_true",
        help="report permanently failed jobs instead of erroring out",
    )
    _observe_flags(cmd)
    cmd.add_argument(
        "--profile-hot",
        metavar="N",
        nargs="?",
        type=int,
        const=25,
        help="run under cProfile and print the top N functions (default 25), "
        "the cycle collector's work, the run's counts and the peak RSS",
    )


def _trace_flags(cmd) -> None:
    cmd.add_argument(
        "out", nargs="?", help="Perfetto trace_event JSON output path (omit for console views)"
    )
    _cell_flags(cmd, "80%_small", "all-equal")
    cmd.add_argument(
        "--iterations",
        type=int,
        default=1,
        help="cell iterations; the last (warm-cache) one is exported",
    )
    cmd.add_argument(
        "--perfetto",
        action="store_true",
        help="write Perfetto JSON even without OUT (defaults to trace.json)",
    )
    cmd.add_argument("--timeline", action="store_true", help="print the ASCII timeline view")
    cmd.add_argument(
        "--attribution",
        action="store_true",
        help="print the per-component sim-time attribution table",
    )
    cmd.add_argument("--csv", metavar="PATH", help="write probe time-series as CSV")
    cmd.add_argument("--json", metavar="PATH", help="write probe time-series as JSON")
    cmd.add_argument(
        "--interval", type=float, default=1.0, help="probe cadence in simulated seconds"
    )
    _faults_flag(cmd)


def _explain_flags(cmd) -> None:
    _cell_flags(cmd, "80%_small", "fast-slow", seed=7)
    cmd.add_argument(
        "--iterations", type=int, default=1, help="cell iterations; the last one is explained"
    )
    cmd.add_argument(
        "--job",
        metavar="JOB_ID",
        help="explain one job's allocation decision instead of the whole run",
    )
    cmd.add_argument(
        "--save", metavar="FILE", help="write the explain document (JSON) for later --diff"
    )
    cmd.add_argument("--csv", metavar="FILE", help="write the critical chain as per-job CSV rows")
    cmd.add_argument(
        "--perfetto", metavar="FILE", help="Perfetto export with an extra critical-path track"
    )
    cmd.add_argument(
        "--diff",
        nargs=2,
        metavar=("A.json", "B.json"),
        help="compare two saved explain documents instead of running a cell",
    )
    _faults_flag(cmd)


def _fuzz_flags(cmd) -> None:
    cmd.add_argument(
        "--budget", default="60s", help="wall-clock budget in seconds (a trailing 's' is accepted)"
    )
    cmd.add_argument("--seed", type=int, default=0, help="base scenario seed")
    cmd.add_argument("--max-scenarios", type=int, help="stop after N scenarios")
    cmd.add_argument(
        "--planted",
        choices=["double-allocate", "overdelivery", "buggy-migrator"],
        help="self-validation: fuzz a deliberately planted bug (exit 0 iff found)",
    )
    cmd.add_argument(
        "--reconfig",
        action="store_true",
        help="mix live migrations and scheduler hot-swaps into every scenario",
    )
    cmd.add_argument(
        "--out", metavar="DIR", help="write each shrunk reproducer as a JSON file in DIR"
    )


def _serve_flags(cmd) -> None:
    from repro.experiments.configs import PROFILE_NAMES

    _scheduler_flag(cmd)
    cmd.add_argument("--profile", choices=sorted(PROFILE_NAMES), default="all-equal")
    cmd.add_argument("--arrival", choices=["poisson", "diurnal", "burst"], default="poisson")
    cmd.add_argument("--rate", type=float, default=2.0, help="mean arrivals per second")
    cmd.add_argument("--duration", type=float, default=600.0, help="arrival window (simulated s)")
    cmd.add_argument("--seed", type=int, default=11)
    cmd.add_argument("--queue-cap", type=int, default=64, help="admission queue bound")
    cmd.add_argument(
        "--admission",
        choices=["reject", "delay"],
        default="reject",
        help="overload response: shed arrivals or backpressure them",
    )
    cmd.add_argument("--rate-limit", type=float, help="token-bucket cap (jobs/s)")
    cmd.add_argument("--deadline", type=float, help="per-job latency SLO (s)")
    cmd.add_argument("--autoscale", action="store_true", help="enable the elastic worker pool")
    cmd.add_argument("--min-workers", type=int, default=2)
    cmd.add_argument("--max-workers", type=int, default=10)
    _save_json_flag(cmd, "the report")
    cmd.add_argument(
        "--backend",
        choices=["sim", "real"],
        default="sim",
        help="'real' executes the run on the repro.exec multi-process pool",
    )
    cmd.add_argument(
        "--time-scale",
        type=float,
        default=0.02,
        help="real backend: wall seconds per simulated second (default 0.02)",
    )
    _faults_flag(cmd)
    _observe_flags(cmd)


def _exec_flags(cmd) -> None:
    from repro.schedulers.registry import SCHEDULERS

    cmd.add_argument(
        "--diff",
        action="store_true",
        help="differential mode: assert sim and real agree (exit 1 on divergence)",
    )
    cmd.add_argument(
        "--schedulers",
        nargs="+",
        choices=sorted(SCHEDULERS),
        help="schedulers to cover (default: --diff covers all, else bidding)",
    )
    cmd.add_argument("--seed", type=int, default=11)
    cmd.add_argument("--jobs", type=int, default=18, help="smoke-scenario job count")
    cmd.add_argument(
        "--time-scale",
        type=float,
        default=0.01,
        help="wall seconds per simulated second (default 0.01)",
    )
    cmd.add_argument(
        "--kill",
        metavar="WORKER:AFTER",
        help="SIGKILL WORKER once AFTER jobs completed (e.g. w1:2); "
        "--diff then checks conservation instead of sequence equality",
    )
    cmd.add_argument("--out", metavar="FILE", help="write the (divergence) report as JSON")


def _golden_flags(cmd) -> None:
    cmd.add_argument(
        "fixtures",
        nargs="*",
        metavar="NAME",
        help="pin names (default: all); see repro.experiments.golden",
    )
    cmd.add_argument(
        "--check",
        action="store_true",
        help="drift gate: regenerate into memory and fail on mismatch",
    )
    cmd.add_argument(
        "--dir",
        dest="directory",
        metavar="DIR",
        help="directory of the pinned files (default: the repo's tests/)",
    )


# -- what the flags say -----------------------------------------------------------


def _parse_faults(arg: Optional[str]):
    """``--faults`` value -> FaultPlan: inline JSON or ``@file.json``."""
    if arg is None:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.from_dict(read_json(arg))


def _parse_reconfig(args: argparse.Namespace):
    """``--reconfig``/``--migrate``/``--swap-at`` -> ReconfigPlan or None.

    ``--migrate AT[:MAX_JOBS]`` schedules one auto-targeted migration;
    ``--swap-at AT:SCHEDULER`` schedules one hot-swap; ``--reconfig``
    takes a full plan as inline JSON or ``@file.json``.  The shorthand
    flags compose with each other and extend a ``--reconfig`` plan.
    """
    if args.reconfig is None and not args.migrate and not args.swap_at:
        return None
    from repro.reconfig import JobMigration, ReconfigPlan, SchedulerSwap

    migrations: list = []
    swaps: list = []
    if args.reconfig is not None:
        plan = ReconfigPlan.from_dict(read_json(args.reconfig))
        migrations.extend(plan.migrations)
        swaps.extend(plan.swaps)
    for value in args.migrate or ():
        at_s, _, max_jobs = value.partition(":")
        migrations.append(
            JobMigration(
                at_s=float(at_s),
                max_jobs=int(max_jobs) if max_jobs else 1,
                include_running=True,
            )
        )
    for value in args.swap_at or ():
        at_s, sep, scheduler = value.partition(":")
        if not sep or not scheduler:
            raise SystemExit(f"--swap-at takes AT:SCHEDULER, got {value!r}")
        swaps.append(SchedulerSwap(at_s=float(at_s), scheduler=scheduler))
    return ReconfigPlan(migrations=tuple(migrations), swaps=tuple(swaps))


def _parse_kill(arg: Optional[str]):
    """``--kill`` value ``WORKER:AFTER`` -> KillSpec."""
    if arg is None:
        return None
    from repro.exec import KillSpec

    worker, _, after = arg.partition(":")
    if not worker or not after:
        raise SystemExit(f"--kill expects WORKER:AFTER, got {arg!r}")
    return KillSpec(worker=worker, after_done=int(after))


def _run_cell_flags(args: argparse.Namespace, **fields):
    """Run the cell :func:`_cell_flags` (plus ``--iterations`` and
    ``--faults``) named; returns its results and last runtime."""
    from repro.experiments.runner import CellSpec, run_cell_observed

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


def _cell_line(args: argparse.Namespace, result) -> str:
    """The lead of ``trace``'s and ``explain``'s first line."""
    return (
        f"{args.scheduler} on {args.workload} / {args.profile} (seed {args.seed}): "
        f"{result.jobs_completed} jobs, makespan {result.makespan_s:.1f}s, "
    )


def _export_trace(path: str, runtime) -> None:
    """Write the runtime's span trace as Perfetto JSON and say where."""
    from repro.obs import build_spans, span_coverage, write_perfetto

    trace = runtime.metrics.trace
    spans = build_spans(trace)
    coverage = span_coverage(trace, spans)
    write_perfetto(path, trace, spans=spans, probes=runtime.obs.probes, flows=runtime.obs.flows)
    print(
        f"trace written to {path} ({len(spans)} spans, "
        f"{coverage.connected_jobs}/{coverage.completed_jobs} jobs end-to-end); "
        "load it in chrome://tracing or ui.perfetto.dev"
    )


def _write_report(path: str, payload: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"report written to {path}")


# -- handlers: each takes the parsed flags and returns the exit code -------------


class Experiment(NamedTuple):
    """An experiment command's handler: ``main`` of its module under
    :mod:`repro.experiments`, given the parsed flags.  ``all`` runs every
    one with ``in_all`` set."""

    module: str
    in_all: bool = True

    def __call__(self, args: argparse.Namespace) -> int:
        options = {key: value for key, value in vars(args).items() if key != "command"}
        importlib.import_module(f"repro.experiments.{self.module}").main(**options)
        return 0


def _run_all(args: argparse.Namespace) -> int:
    """Every experiment ``all`` runs, in table order, each under a banner
    made of its help's lead, at its default flags but ``--parallel``."""
    for name, command in COMMANDS.items():
        if not (isinstance(command.handler, Experiment) and command.handler.in_all):
            continue
        print(f"\n{'=' * 72}\n{command.help.split(':')[0].upper()}\n{'=' * 72}")
        options = _build_parser().parse_args([name])
        if "parallel" in options:
            options.parallel = args.parallel
        command.handler(options)
    return 0


def _run_report(args: argparse.Namespace) -> int:
    from repro.experiments.html_report import generate

    print(f"report written to {generate(args.out, parallel=args.parallel)}")
    return 0


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


def _run(args: argparse.Namespace) -> int:
    """``repro run``: replay a fuzzer scenario, or run the cell it names --
    under cProfile with a cumulative-time report, the cycle collector's
    work, the last iteration's counts and the peak RSS when
    ``--profile-hot`` was given."""
    if args.scenario is not None:
        return _replay_scenario(args.scenario)
    if args.profile_hot is None:
        _run_single(args)
        return 0
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
        stats.strip_dirs().sort_stats("cumulative").print_stats(args.profile_hot)
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
    return 0


def _replay_scenario(path: str) -> int:
    """Replay a fuzzer scenario JSON; exit 0 iff the run is clean."""
    from repro.fuzz.fuzzer import Scenario, run_scenario

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


def _run_single(args: argparse.Namespace):
    """Run and print the cell ``repro run`` names; returns its last runtime."""
    from repro.metrics.report import format_table

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
    rows = [
        [str(r.iteration), f"{r.makespan_s:.1f}", str(r.cache_misses), str(r.cache_hits)]
        + [f"{r.data_load_mb:.1f}", str(r.jobs_completed)]
        + ([str(r.crashes), str(r.redispatches), str(len(r.failed_jobs))] if faulty else [])
        for r in results
    ]
    title = (
        f"{args.scheduler} on {args.workload} / {args.profile} "
        f"(seed {args.seed}, caches {'cold' if args.cold else 'persisting'})"
    )
    print(format_table(headers, rows, title=title))
    return runtime


def _run_trace(args: argparse.Namespace) -> int:
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
        f"{_cell_line(args, result)}{len(spans)} spans, "
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
    return 0


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
        print(render_diff(diff_runs(doc_a, doc_b, label_a=path_a, label_b=path_b)))
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
        f"{_cell_line(args, result)}"
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


def _run_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz.fuzzer import fuzz

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


def _run_serve(args: argparse.Namespace) -> int:
    from repro.metrics.ascii_chart import bar_chart
    from repro.metrics.report import format_table
    from repro.serve import build_service

    scaler = {"min_workers": args.min_workers, "max_workers": args.max_workers}
    runtime = build_service(
        args.scheduler,
        args.profile,
        args.arrival,
        args.rate,
        args.seed,
        faults=_parse_faults(args.faults),
        autoscale=args.autoscale,
        duration_s=args.duration,
        deadline_s=args.deadline,
        queue_cap=args.queue_cap,
        policy=args.admission,
        rate_limit=args.rate_limit,
        check=args.check_invariants,
        obs=bool(args.trace_out),
        **(scaler if args.autoscale else {}),
    )
    if args.backend == "real":
        from repro.exec import execute_service

        plan, real, report = execute_service(runtime, args.time_scale)
        print(
            f"plan captured: {len(plan.jobs)} jobs, {len(plan.decisions)} "
            f"decisions across {len(plan.workers)} workers; executing for real "
            f"(time scale {args.time_scale})..."
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
        _write_report(args.save_json, report.to_dict())
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
        bars = [(p, getattr(report, f"latency_{p}_s")) for p in ("p50", "p95", "p99")]
        print()
        print(bar_chart(bars, title="end-to-end latency", unit="s", fmt="{:.2f}"))
    return 0


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
        print(f"sim-vs-real differential ({mode}; seed {args.seed}, {args.jobs} jobs):")
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
    status = 0
    for name in args.schedulers or ["bidding"]:
        cell = run_diff(
            name, seed=args.seed, n_jobs=args.jobs, time_scale=args.time_scale, kill=kill
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
            _write_report(args.out, cell.to_dict())
    return status


def _run_golden(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.golden import run as run_golden

    directory = Path(args.directory) if args.directory else None
    return run_golden(args.fixtures, do_check=args.check, directory=directory)


# -- the command table --------------------------------------------------------------


class Command(NamedTuple):
    """One sub-command: its line in ``repro --help``, the function that
    adds its flags (called the first time the command is parsed) and its
    handler, which takes the parsed flags and returns the exit code."""

    help: str
    flags: Callable[[argparse.ArgumentParser], None]
    handler: Callable[[argparse.Namespace], int]


#: Every sub-command, in ``repro --help`` order.
COMMANDS: dict[str, Command] = {
    "fig2": Command(
        "Figure 2: Spark vs Crossflow Baseline", _parallel_flag, Experiment("fig2_spark")
    ),
    "fig3": Command(
        "Figure 3: per-workload aggregates + Section 6.3.2 claims",
        _parallel_flag,
        Experiment("fig3_aggregates"),
    ),
    "fig4": Command(
        "Figure 4: per-profile breakdown + abstract's 3.57x claim",
        _parallel_flag,
        Experiment("fig4_breakdown"),
    ),
    "tables": Command("Tables 1-3: full MSR pipeline runs", _no_flags, Experiment("tables_msr")),
    "ablations": Command(
        "Ablations: A1-A10 design-choice sweeps", _parallel_flag, Experiment("ablations")
    ),
    "sensitivity": Command(
        "Sensitivity: S1-S4 scale/parameter sweeps (future-work scale-up)",
        _parallel_flag,
        Experiment("sensitivity"),
    ),
    "faults": Command(
        "degradation sweep: scheduler makespan under rising crash rates",
        functools.partial(_cell_flags, workload="80%_large", profile="all-equal", scheduler=False),
        Experiment("faults_sweep", in_all=False),
    ),
    "all": Command("run every experiment but faults, in order", _parallel_flag, _run_all),
    "report": Command("write a self-contained HTML report", _report_flags, _run_report),
    "run": Command("run a single experiment cell", _run_flags, _run),
    "trace": Command(
        "run one traced cell: Perfetto export, ASCII timeline, attribution",
        _trace_flags,
        _run_trace,
    ),
    "explain": Command(
        "critical-path attribution + decision ledger for one traced cell, "
        "or --diff two saved explain documents",
        _explain_flags,
        _run_explain,
    ),
    "fuzz": Command(
        "randomised scenario fuzzing: monitors + oracle on, shrink failures",
        _fuzz_flags,
        _run_fuzz,
    ),
    "serve": Command(
        "open-loop service run: arrivals, admission, SLO summary", _serve_flags, _run_serve
    ),
    "exec": Command(
        "real execution backend: replay a sim plan on OS processes, "
        "or --diff it against the simulator",
        _exec_flags,
        _run_exec,
    ),
    "golden": Command(
        "pinned fixed-seed outputs: re-record, or --check for drift", _golden_flags, _run_golden
    ),
}


class _Commands(argparse._SubParsersAction):
    """The sub-command argument.  The first time a command is parsed, its
    row's ``flags`` adds its flags to its parser, so a parser that has
    parsed nothing knows only :data:`COMMANDS`' help lines."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._flagged: set[str] = set()

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        name = values[0]
        if name not in self._flagged:
            self._flagged.add(name)
            COMMANDS[name].flags(self.choices[name])
        super().__call__(parser, namespace, values, option_string)


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
    commands = parser.add_subparsers(dest="command", required=True, action=_Commands)
    for name, command in COMMANDS.items():
        commands.add_parser(name, help=command.help)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return COMMANDS[args.command].handler(args)
