"""Tables 1-3: the full MSR pipeline on cold caches (Section 6.4).

The paper's "non-simulated" experiments run the complete
mining-software-repositories workflow of Figure 1 against the live
GitHub API, three times per scheduler, with every worker starting
*cold* ("none of the workers have any locally downloaded repositories")
and speeds learned as the historic average of measured speeds.

Reported results (the rows we regenerate):

* Table 1 -- execution times: Bidding 10.3 %-25.5 % faster per run,
* Table 2 -- data load: Bidding downloads ~62-63 % less
  (~330 GB vs ~880 GB),
* Table 3 -- cache misses: Bidding roughly halves them (~200 vs ~400).

Substitution (DESIGN.md Section 1): the live GitHub API becomes the
:class:`~repro.data.github.GitHubService` model over a synthetic corpus
whose clone sizes are uniform 0.5-4 GB -- matching the paper's implied
~2.2 GB average clone (Table 2 MB / Table 3 misses) -- and "favoured
large-scale repositories" filters.  Workers are five equal machines at
the measured-speed anchor of a warmed-up t3.micro.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.profiles import WorkerProfile
from repro.cluster.worker_spec import WorkerSpec
from repro.core.learning import HistoricAverageSpeedModel
from repro.data.github import GitHubService
from repro.data.repository import Repository, RepositoryCorpus
from repro.experiments.configs import default_engine_config
from repro.experiments.grid import Sweep, Table, compared, render
from repro.experiments.runner import ResultSet
from repro.host import WorkflowRuntime
from repro.metrics.report import RunResult
from repro.schedulers.registry import make_scheduler
from repro.sim.rng import substream
from repro.workload.msr import (
    MSRPipelineSpec,
    POPULAR_NPM_LIBRARIES,
    build_msr_pipeline,
    library_stream,
)

#: Corpus scale: ~250 qualifying repositories with a per-library match
#: probability such that 30 libraries expand to ~480 analysis jobs over
#: ~215 distinct repositories -- reproducing the paper's implied ratio of
#: ~405 baseline misses to ~205 bidding misses (~= distinct repos).
CORPUS_SIZE = 250
MATCH_FRACTION = 0.065

#: Clone sizes: uniform 0.5-4 GB (mean ~2.25 GB; the paper's Table 2 /
#: Table 3 imply ~2.2 GB per clone).
MIN_CLONE_MB = 500.0
MAX_CLONE_MB = 4000.0

#: The Section 6.4 machines: equal workers at measured t3.micro speeds
#: (the paper pre-measures with a 100 MB probe; ~25 MB/s download and
#: ~80 MB/s scan are typical burst-mode values).
MSR_NETWORK_MBPS = 25.0
MSR_RW_MBPS = 80.0

#: Three runs per scheduler, as in the paper.
RUN_SEEDS: tuple[int, ...] = (101, 202, 303)


def msr_profile() -> WorkerProfile:
    """Five equal workers at the Section 6.4 speed anchor."""
    specs = tuple(
        WorkerSpec(
            name=f"w{i + 1}",
            network_mbps=MSR_NETWORK_MBPS,
            rw_mbps=MSR_RW_MBPS,
        )
        for i in range(5)
    )
    return WorkerProfile("msr-equal", specs)


def msr_corpus(seed: int) -> RepositoryCorpus:
    """The synthetic large-repository corpus for one run."""
    rng = substream(seed, "msr-corpus")
    corpus = RepositoryCorpus()
    for index in range(CORPUS_SIZE):
        corpus.add(
            Repository(
                repo_id=f"gh-{index:04d}",
                size_mb=float(rng.uniform(MIN_CLONE_MB, MAX_CLONE_MB)),
                stars=int(rng.integers(5000, 150_000)),
                forks=int(rng.integers(5000, 60_000)),
            )
        )
    return corpus


def run_one(scheduler_name: str, seed: int) -> RunResult:
    """One cold MSR pipeline run under one scheduler."""
    return msr_runtime(scheduler_name, seed).run()


def msr_runtime(
    scheduler_name: str, seed: int, rate_limit_per_minute: int = 600, faults=None
) -> WorkflowRuntime:
    """The runtime of :func:`run_one`; a lower API rate limit or a
    :class:`~repro.faults.FaultPlan` make the searches wait or die."""
    spec = MSRPipelineSpec(
        libraries=POPULAR_NPM_LIBRARIES,
        query_min_size_mb=MIN_CLONE_MB,
        query_min_stars=5000,
        query_min_forks=5000,
    )
    corpus = msr_corpus(seed)
    stream = library_stream(spec, mean_interarrival_s=5.0, rng=substream(seed, "msr-arrivals"))

    def pipeline_factory(sim):
        github = GitHubService(
            sim,
            corpus,
            request_latency=0.25,
            rate_limit_per_minute=rate_limit_per_minute,
            match_fraction=MATCH_FRACTION,
            seed=seed,
        )
        pipeline, _matrix = build_msr_pipeline(github, spec)
        return pipeline

    if scheduler_name == "bidding":
        # Section 6.4: speeds learned as historic averages of measurements.
        scheduler = make_scheduler(
            "bidding", speed_model_factory=HistoricAverageSpeedModel
        )
    else:
        scheduler = make_scheduler(scheduler_name)

    return WorkflowRuntime(
        profile=msr_profile(),
        stream=stream,
        scheduler=scheduler,
        pipeline_factory=pipeline_factory,
        config=default_engine_config(seed),
        faults=faults,
    )


def run_tables(seeds: Sequence[int] = RUN_SEEDS) -> Sweep:
    """Every run under both schedulers, cold caches each run: one row per
    run, one column per scheduler."""
    bidding = [run_one("bidding", seed) for seed in seeds]
    baseline = [run_one("baseline", seed) for seed in seeds]
    return {
        f"run {index + 1}": {"bidding": ResultSet([bid]), "baseline": ResultSet([base])}
        for index, (bid, base) in enumerate(zip(bidding, baseline))
    }


def tables(sweep: Sweep) -> list[Table]:
    """Tables 1-3 in the paper's layout, with reduction columns."""
    headers = ["MSR", "Bidding", "Baseline", "reduction [%]"]
    order = ("bidding", "baseline")
    return [
        compared(
            "Table 1: MSR execution times (paper: bidding 10.3%-25.5% faster)",
            headers, sweep, "makespan_s", "{:.2f}s", order,
        ),
        compared(
            "Table 2: data load in MB (paper: ~62-63% less for bidding)",
            headers, sweep, "data_load_mb", "{:.2f} MB", order,
        ),
        compared(
            "Table 3: cache miss count (paper: ~49-52% fewer for bidding)",
            headers, sweep, "cache_misses", "{:.0f}", order,
        ),
    ]


def main() -> None:
    """Run and print Tables 1-3 (the CLI entry point)."""
    print(render(tables(run_tables())))
