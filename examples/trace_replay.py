"""Replay your own workload trace with statistical comparison.

Demonstrates the downstream-user path end to end:

1. export a paper workload as an editable JSON trace,
2. reload it (as you would with your own production trace),
3. race all locality-aware schedulers on it across several seeds,
4. report means, bootstrap confidence intervals and significance of the
   bidding-vs-baseline comparison -- not just bare numbers.

Run with::

    python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

from repro.cluster.profiles import profile_by_name
from repro.host import EngineConfig, WorkflowRuntime
from repro.metrics.ascii_chart import bar_chart
from repro.metrics.report import format_table
from repro.metrics.stats import compare
from repro.schedulers.registry import make_scheduler
from repro.workload.generators import job_config_by_name
from repro.workload.replay import load_trace, save_trace

SEEDS = (1, 2, 3, 4, 5)


def run_trace(stream, scheduler_name, seed):
    """One 2-iteration warm run of the trace under one scheduler."""
    caches = None
    results = []
    for iteration in range(2):
        runtime = WorkflowRuntime(
            profile=profile_by_name("fast-slow"),
            stream=stream,
            scheduler=make_scheduler(scheduler_name),
            config=EngineConfig(seed=seed),
            initial_caches=caches,
            iteration=iteration,
        )
        results.append(runtime.run())
        caches = runtime.cache_snapshot()
    return sum(r.makespan_s for r in results)


def main() -> None:
    # 1-2. Export a paper workload and reload it as a user trace.
    _corpus, stream = job_config_by_name("80%_large").build(seed=99)
    with tempfile.TemporaryDirectory() as tmp:
        path = save_trace(stream, Path(tmp) / "my_workload.json")
        _corpus, replayed = load_trace(path)
    print(f"Replaying {len(replayed)} jobs from an exported JSON trace.\n")

    # 3. Race the schedulers across seeds.
    totals = {}
    for scheduler in ("baseline", "bidding", "matchmaking", "bar"):
        totals[scheduler] = [run_trace(replayed, scheduler, seed) for seed in SEEDS]

    means = [(name, sum(values) / len(values)) for name, values in totals.items()]
    means.sort(key=lambda pair: pair[1])
    print(bar_chart(means, title="Mean total time over 5 seeds (2 warm iterations)", unit="s"))

    # 4. Is bidding's win over the baseline more than seed noise?
    result = compare(totals["baseline"], totals["bidding"])
    lo, hi = result.speedup_ci
    print(
        format_table(
            ["statistic", "value"],
            [
                ["baseline mean +- std", f"{result.baseline_mean:.1f} +- {result.baseline_std:.1f} s"],
                ["bidding mean +- std", f"{result.candidate_mean:.1f} +- {result.candidate_std:.1f} s"],
                ["speedup", f"{result.speedup:.2f}x"],
                ["95% bootstrap CI", f"[{lo:.2f}x, {hi:.2f}x]"],
                ["rank-sum p-value", f"{result.pvalue:.4f}"],
                ["significant", str(result.significant)],
            ],
            title="\nBidding vs Baseline across seeds",
        )
    )


if __name__ == "__main__":
    main()
