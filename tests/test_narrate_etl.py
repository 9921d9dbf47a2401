"""The ETL example's pipeline shape."""

import pytest

from repro.host import EngineConfig, WorkflowRuntime
from repro.schedulers.registry import make_scheduler


class TestETLExampleShape:
    def test_pipeline_produces_identical_stats_under_all_schedulers(self):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "etl_pipeline", Path(__file__).parent.parent / "examples" / "etl_pipeline.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        shard_sizes, stream = module.build_workload()
        outputs = []
        from repro.cluster.profiles import all_equal

        for scheduler in ("round-robin", "bidding"):
            stats = {}
            runtime = WorkflowRuntime(
                profile=all_equal(),
                stream=stream,
                scheduler=make_scheduler(scheduler),
                pipeline=module.build_pipeline(stats),
                config=EngineConfig(seed=77),
            )
            runtime.run()
            outputs.append(stats)
        # Aggregated MB sums in completion order, which differs per
        # scheduler -- equal up to float summation order.
        assert outputs[0].keys() == outputs[1].keys()
        for pass_index in outputs[0]:
            a, b = outputs[0][pass_index], outputs[1][pass_index]
            assert a["shards"] == b["shards"] == module.N_SHARDS
            assert a["mb"] == pytest.approx(b["mb"])
