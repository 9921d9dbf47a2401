"""The repo benchmark: one command, every metric by name, outputs checked.

    python bench/run.py                       # all six workloads, untraced
    python bench/run.py --workload bid-fleet  # one workload
    python bench/run.py --trace               # the per-layer ledger
    python bench/run.py --quick               # schema check, never comparable

Each workload runs in its own fresh child interpreter, one at a time
(``PYTHONHASHSEED=0``; the box has two cores, nothing runs beside the
measurement).  The last line of output is one JSON object per workload
in the form ``BENCHMARK.json`` describes; everything measured is also
written to ``bench/out/result.json``.  Exits non-zero when any
correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Extra set-up samples per run, each a fresh interpreter.
SETUP_PROBES = 2
#: A child that takes longer than this is stuck, not slow.
CHILD_TIMEOUT_S = 170


def load_catalogue() -> dict:
    """``BENCHMARK.json``: the one list of workload and metric names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def run_child(workload: str, mode: str, args, out_dir: str) -> dict:
    """Launch one child interpreter, wait for it, parse its last line."""
    command = [
        sys.executable,
        os.path.join(BENCH_DIR, "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--out", out_dir,
    ]
    if args.quick:
        command.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    command += ["--t0", repr(time.time())]
    # Its own session, so that a stuck child can be stopped together
    # with the worker processes it spawned.
    child = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise RuntimeError(f"{workload} ({mode}) child did not finish in {CHILD_TIMEOUT_S} s") from None
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} ({mode}) child exited with code {child.returncode}")
    return json.loads(lines[-1])


def fingerprint(args) -> dict:
    """Where and how this result was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    host = {
        "nproc": nproc,
        "platform": platform.platform(),
        "commit": commit,
        "seed": args.seed,
        "load1_at_start": load1,
        "gc": "enabled; gc.collect() before each rep",
        "warnings": [],
    }
    if load1 > nproc / 2:
        host["warnings"].append(
            f"1-min load average {load1:.2f} > nproc/2 at start: timings are suspect"
        )
    return host


def measure(workload: str, catalogue: dict, args, out_dir: str, host: dict) -> dict:
    """Run one workload and fold its children into named metrics."""
    trace = bool(args.trace)
    main = run_child(workload, "trace" if trace else "measure", args, out_dir)
    host.setdefault("python", main["python"])
    host.setdefault("numpy", main["numpy"])
    reps = main["reps"]
    problems = list(main["problems"])
    if not reps:
        problems.append("no rep completed")
    attempted = sum(rep["attempted"] for rep in reps) or 1
    failed = sum(rep["failed"] for rep in reps)
    if problems and not failed:
        failed = attempted  # a check that failed outside any one rep fails them all
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "reps": len(reps),
        "problems": problems,
        "behaviour": main["behaviour"],
        "digest": reps[0]["digest"] if reps else None,
        "rates": main["rates"],
        "metrics": {},
    }
    result["failed_share"] = result["failed"] / result["attempted"]
    if not reps:
        return result

    def put(name: str, unit: str, samples: list[float]) -> None:
        q1, median, q3 = quartiles(samples)
        result["metrics"][name] = {
            "value": median, "unit": unit, "q1": q1, "q3": q3, "samples": samples,
        }

    if trace:
        for spec in catalogue["per_layer"]:
            # A layer a workload never enters did no work there: 0.
            put(spec["name"], spec["unit"], [main["trace"].get(spec["name"], 0.0)])
        unknown = sorted(set(main["trace"]) - {spec["name"] for spec in catalogue["per_layer"]})
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
        return result

    # Set-up is launch -> ready for the first timed call; on exec-real
    # each rep also spawns and registers its workers before its timed
    # region, and that is set-up too.
    spawn_s = main["rates"].get("exec.spawn_s", 0.0)
    ready = [main["ready_s"]]
    if not args.quick:
        ready += [run_child(workload, "probe", args, out_dir)["ready_s"] for _ in range(SETUP_PROBES)]
    units = {spec["name"]: spec["unit"] for spec in catalogue["end_to_end"]}
    put("setup_s", units["setup_s"], [seconds + spawn_s for seconds in ready])
    put("jobs_per_s", units["jobs_per_s"], [rep["completed"] / rep["timed_s"] for rep in reps])
    put("peak_rss_mb", units["peak_rss_mb"], [main["peak_rss_mb"]])
    put("sim_cache_miss_rate", units["sim_cache_miss_rate"], [main["behaviour"]["sim_cache_miss_rate"]])
    return result


def report(workload: str, result: dict, catalogue: dict) -> None:
    """Every metric by name, with its unit; then ``=`` the simulated
    numbers that must repeat exactly, and ``~`` host-time numbers of
    single layers (informational in an untraced run)."""
    print(f"== {workload}: {result['reps']} rep(s), "
          f"ops_attempted {result['attempted']}, ops_failed {result['failed']}, "
          f"failed_share {result['failed_share']:.4g}, "
          f"{'correct' if result['correct'] else 'INCORRECT'}")
    for name, metric in result["metrics"].items():
        spread = f"  [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, n={len(metric['samples'])}]" \
            if len(metric["samples"]) > 1 else ""
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}{spread}")
    for name, value in result["behaviour"].items():
        print(f"  {'= ' + name:34s} {value:14.6g}")
    units = {spec["name"]: spec["unit"] for spec in catalogue["per_layer"]}
    for name, value in result["rates"].items():
        print(f"  {'~ ' + name:34s} {value:14.6g} {units[name]}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def contract_line(result: dict) -> str:
    """The one-line JSON object the driver reads."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in result["metrics"].items()
            },
        }
    )


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    catalogue = load_catalogue()
    names = [spec["name"] for spec in catalogue["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=11, help="every input is generated from it")
    parser.add_argument("--seconds", type=float, default=float(catalogue["run_seconds"]),
                        help="how long the timed reps of one workload go on")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: per-layer metrics from a traced quarter-size pass")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes; checks the schema, never comparable with a full run")
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "out", "result.json"))
    args = parser.parse_args()

    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    host = fingerprint(args)
    for warning in host["warnings"]:
        print(f"WARNING: {warning}")
    document = {
        "schema": 1,
        "quick": args.quick,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host,
        "workloads": {},
    }
    selected = [args.workload] if args.workload else names
    for workload in selected:
        started = time.perf_counter()
        result = measure(workload, catalogue, args, out_dir, host)
        result["wall_s"] = time.perf_counter() - started
        document["workloads"][workload] = result
        report(workload, result, catalogue)
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1)
    for workload in selected:
        print(contract_line(document["workloads"][workload]))
    return 0 if all(result["correct"] for result in document["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
