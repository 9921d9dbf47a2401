"""Live demo: the bidding protocol's plan on real worker processes.

Everything else in the examples runs inside the discrete-event
simulator; this one runs the same two schedulers on the *real*
execution backend (:mod:`repro.exec`) -- the simulator makes every
allocation decision, then one OS process per worker replays the frozen
plan over real sockets, with real caches and wall-clock sleeps scaled
at 1 simulated second = 0.5 ms -- so you can watch the protocol produce
the same qualitative outcome outside the simulator.

Run with::

    python examples/live_bidding_demo.py
"""

from repro.cluster.profiles import fast_slow
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.exec import ExecBackend, ExecConfig, capture_workflow_plan
from repro.metrics.report import format_table
from repro.schedulers.registry import make_scheduler
from repro.workload.generators import job_config_by_name


def main() -> None:
    rows = []
    distributions = []
    for scheduler in ("baseline", "bidding"):
        # 120 jobs, repetitive large-repository pattern, same for both runs.
        _corpus, stream = job_config_by_name("80%_large").build(seed=99)
        runtime = WorkflowRuntime(
            profile=fast_slow(),
            stream=stream,
            scheduler=make_scheduler(scheduler),
            config=EngineConfig(seed=99, trace=False),
        )
        plan, _sim_result = capture_workflow_plan(runtime)
        # 1 simulated second = 0.5 ms wall time.
        result = ExecBackend(plan, ExecConfig(time_scale=0.0005)).run()
        rows.append(
            [
                scheduler,
                f"{result.wall_s:.2f}",
                str(result.cache_misses),
                str(result.cache_hits),
                f"{result.data_load_mb:.0f}",
            ]
        )
        distributions.append(
            format_table(
                ["worker", "jobs executed"],
                [
                    [name, str(len(done))]
                    for name, done in sorted(result.per_worker_completed.items())
                ],
                title=f"\n{scheduler}: job distribution (w1 fast, w2 slow)",
            )
        )

    print(
        format_table(
            ["scheduler", "wall time [s]", "misses", "hits", "data [MB]"],
            rows,
            title="Real backend: 120 jobs on 5 real worker processes",
        )
    )
    for table in distributions:
        print(table)


if __name__ == "__main__":
    main()
