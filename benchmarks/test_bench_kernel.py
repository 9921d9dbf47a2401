"""Engine microbenchmarks: DES kernel, pipe, broker and full-run throughput.

Not a paper figure -- these track the *simulator's* own performance so
regressions in the substrate are visible (the experiment matrices run
hundreds of simulations; kernel slowdowns multiply).
"""

import numpy as np

from repro.net.bandwidth import FairSharePipe
from repro.net.broker import Broker
from repro.sim import Simulator, TimerHandle
from repro.experiments.runner import CellSpec, run_cell


def _noop(*_args) -> None:
    pass


class Sink:
    """A subscription owner that drops what it is handed."""

    def deliver(self, message) -> None:
        pass


def test_bench_kernel_timeout_throughput(benchmark):
    """Schedule-and-run 50k timers."""

    def run():
        sim = Simulator()
        for index in range(50_000):
            sim.call_later(float(index % 997) / 10.0, _noop)
        sim.run()
        return sim.now

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result > 0


def test_bench_timer_handle_churn(benchmark):
    """20k direct-callback timer arm/re-arm/fire cycles on one handle."""

    def run():
        sim = Simulator()
        fired = [0]
        handle = TimerHandle()

        def tick():
            fired[0] += 1
            if fired[0] < 20_000:
                # Re-arm twice: the first occurrence goes stale and must
                # be skipped by the generation check (the lazy-deletion
                # hot path of the fluid network model).
                sim.call_later(0.001, tick, handle=handle)
                sim.call_later(0.002, tick, handle=handle)

        sim.call_later(0.001, tick, handle=handle)
        sim.run()
        return fired[0]

    assert benchmark.pedantic(run, rounds=3, iterations=1) == 20_000


def test_bench_fair_share_pipe_churn(benchmark):
    """2k overlapping transfers through one processor-sharing pipe."""

    def run():
        sim = Simulator()
        pipe = FairSharePipe(sim, capacity_mbps=100.0)
        rng = np.random.default_rng(0)

        for index in range(2_000):
            sim.call_later(index * 0.05, pipe.transfer, float(rng.uniform(1.0, 50.0)), _noop)
        sim.run()
        return sim.now

    assert benchmark.pedantic(run, rounds=3, iterations=1) > 0


def test_bench_broker_fanout(benchmark):
    """10k messages fanned out to 20 subscribers."""

    def run():
        sim = Simulator()
        broker = Broker(sim, base_latency=0.001)
        subs = [broker.subscribe("t", f"s{i}", latency=0.01) for i in range(20)]
        for sub in subs:
            sub.owner = Sink()
        for index in range(10_000):
            broker.publish("t", index)
        sim.run()
        return sum(sub.delivered for sub in subs)

    assert benchmark.pedantic(run, rounds=3, iterations=1) == 200_000


def test_bench_full_cell_throughput(benchmark):
    """One complete 3-iteration bidding cell (the experiment unit)."""

    def run():
        return run_cell(
            CellSpec(
                scheduler="bidding",
                workload="80%_large",
                profile="fast-slow",
                seed=11,
            )
        )

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert results[-1].jobs_completed == 120
