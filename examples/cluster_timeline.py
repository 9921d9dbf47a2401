"""Visualise cluster timelines: where does the time actually go?

Runs the same heterogeneous workload under the centralized round-robin
policy and the Bidding Scheduler with tracing enabled, then renders
per-worker execution timelines (``#`` = executing, ``.`` = idle) plus
utilization numbers.  The round-robin chart shows the slow worker (w1)
dragging a long straggler tail while the rest idle -- the Figure 2
phenomenon -- and the bidding chart shows the tail gone.

Run with::

    python examples/cluster_timeline.py
"""

from repro.cluster.profiles import one_slow
from repro.host import EngineConfig, WorkflowRuntime
from repro.metrics.analysis import ascii_gantt, summarize
from repro.schedulers.registry import make_scheduler
from repro.workload.generators import job_config_by_name


def main() -> None:
    _corpus, stream = job_config_by_name("all_diff_large").build(seed=17)
    for scheduler in ("round-robin", "bidding"):
        runtime = WorkflowRuntime(
            profile=one_slow(),
            stream=stream,
            scheduler=make_scheduler(scheduler),
            config=EngineConfig(seed=17, trace=True),
        )
        result = runtime.run()
        analysis = summarize(runtime.metrics.trace, result.makespan_s)
        print(f"\n=== {scheduler}: makespan {result.makespan_s:.0f}s ===")
        print(ascii_gantt(runtime.metrics.trace, result.makespan_s))
        utilization = ", ".join(
            f"{name}={value:.0%}" for name, value in sorted(analysis.utilization.items())
        )
        print(f"utilization: {utilization}")
        print(
            f"imbalance (max/min): {analysis.utilization_imbalance:.2f}; "
            f"mean allocation delay: {analysis.allocation_delay.mean:.2f}s"
        )


if __name__ == "__main__":
    main()
