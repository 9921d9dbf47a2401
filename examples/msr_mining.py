"""The paper's motivating scenario: mining co-occurring NPM libraries.

Builds the full Figure-1 pipeline -- library stream -> GitHub search ->
repository cloning/analysis -> co-occurrence aggregation -- over a
synthetic corpus of large GitHub repositories, runs it under the
Bidding Scheduler, and prints:

* the workflow's actual *output* (the most co-occurring library pairs),
* the locality metrics that motivated the scheduler in the first place.

Run with::

    python examples/msr_mining.py
"""

from repro.cluster.profiles import fast_slow
from repro.data.github import GitHubService
from repro.data.repository import Repository, RepositoryCorpus
from repro.host import EngineConfig, WorkflowRuntime
from repro.metrics.report import format_table
from repro.schedulers.registry import make_scheduler
from repro.sim.rng import substream
from repro.workload.msr import (
    MSRPipelineSpec,
    build_msr_pipeline,
    library_stream,
)

SEED = 2023
LIBRARIES = ("lodash", "react", "axios", "express", "chalk", "webpack", "vue", "jquery")


def build_corpus(seed: int, n: int = 80) -> RepositoryCorpus:
    """A small synthetic population of favoured large-scale repositories."""
    rng = substream(seed, "corpus")
    corpus = RepositoryCorpus()
    for index in range(n):
        corpus.add(
            Repository(
                repo_id=f"gh-{index:03d}",
                size_mb=float(rng.uniform(500.0, 2000.0)),
                stars=int(rng.integers(5000, 80_000)),
                forks=int(rng.integers(5000, 40_000)),
            )
        )
    return corpus


def main() -> None:
    spec = MSRPipelineSpec(libraries=LIBRARIES, query_min_size_mb=500.0)
    corpus = build_corpus(SEED)
    stream = library_stream(spec, mean_interarrival_s=10.0, rng=substream(SEED, "arrivals"))

    matrix_holder = {}

    def pipeline_factory(sim):
        github = GitHubService(sim, corpus, match_fraction=0.3, seed=SEED)
        pipeline, matrix = build_msr_pipeline(github, spec)
        matrix_holder["matrix"] = matrix
        return pipeline

    runtime = WorkflowRuntime(
        profile=fast_slow(),
        stream=stream,
        scheduler=make_scheduler("bidding"),
        pipeline_factory=pipeline_factory,
        config=EngineConfig(seed=SEED),
    )
    result = runtime.run()
    matrix = matrix_holder["matrix"]

    print(
        format_table(
            ["library pair", "co-occurrences"],
            [[f"{a} + {b}", str(count)] for (a, b), count in matrix.top(8)],
            title="Most co-occurring NPM libraries in favoured large-scale repositories",
        )
    )
    print(
        f"\nWorkflow: {result.jobs_completed} jobs in {result.makespan_s:.1f}s "
        f"simulated -- {result.cache_misses} clones ({result.data_load_mb:.0f} MB "
        f"downloaded), {result.cache_hits} cache hits."
    )
    print(
        format_table(
            ["worker", "jobs", "MB downloaded"],
            [
                [name, str(result.per_worker_jobs.get(name, 0)), f"{mb:.0f}"]
                for name, mb in sorted(result.per_worker_mb.items())
            ],
            title="\nPer-worker breakdown (w1 is 4x fast, w2 is 4x slow)",
        )
    )


if __name__ == "__main__":
    main()
