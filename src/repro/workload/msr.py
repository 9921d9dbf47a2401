"""The mining-software-repositories pipeline of the motivating example.

Reproduces Figure 1 / Section 2's four-step protocol:

1. capture the libraries to look for (the workflow *source*:
   ``Library`` jobs),
2. search GitHub for favoured large-scale repositories
   (``RepositorySearcher`` task -- cheap per job, API-latency bound),
3. clone found repositories and inspect their ``package.json``
   dependencies (``RepositoryAnalyzer`` task -- the data-heavy stage
   every scheduler fights over),
4. count library co-occurrences and store them
   (``CooccurrenceCalculator`` -- a master-side aggregation sink).

Which repositories mention which libraries is decided by the
deterministic membership function of
:class:`~repro.data.github.GitHubService`, so a given corpus + seed
always produces the same pipeline expansion -- a requirement for
comparing schedulers on identical work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.data.github import GitHubService, SearchQuery
from repro.data.repository import RepositoryCorpus
from repro.workload.job import Job, JobStream
from repro.workload.pipeline import Pipeline, Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Job kinds flowing through the MSR pipeline (the rounded boxes of Fig. 1).
KIND_LIBRARY = "Library"
KIND_ANALYSIS = "RepositoryAnalysisJob"
KIND_RECORD = "DependencyRecord"

#: Task names (the rectangles of Fig. 1).
TASK_SEARCHER = "RepositorySearcher"
TASK_ANALYZER = "RepositoryAnalyzer"
TASK_CALCULATOR = "CooccurrenceCalculator"


@dataclass
class CooccurrenceMatrix:
    """The workflow's final output: library co-occurrence counts.

    ``counts[(a, b)]`` (with ``a < b``) is the number of repositories in
    which libraries ``a`` and ``b`` were both found.  Built up
    incrementally by the calculator task as dependency records arrive.
    """

    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    #: repo_id -> set of libraries found in it so far.
    _found: dict[str, set[str]] = field(default_factory=dict)
    #: Total dependency records processed.
    records: int = 0

    def record(self, library: str, repo_id: str, present: bool) -> None:
        """Fold one analysis result into the matrix."""
        self.records += 1
        if not present:
            return
        seen = self._found.setdefault(repo_id, set())
        for other in seen:
            if other == library:
                continue
            key = (min(library, other), max(library, other))
            self.counts[key] = self.counts.get(key, 0) + 1
        seen.add(library)

    def top(self, n: int = 10) -> list[tuple[tuple[str, str], int]]:
        """The ``n`` most co-occurring library pairs."""
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


@dataclass(frozen=True)
class MSRPipelineSpec:
    """Parameters of an MSR workflow instance.

    Attributes
    ----------
    libraries:
        The NPM library names to search for (protocol step 1).
    query_min_size_mb / query_min_stars / query_min_forks:
        The "favoured large-scale repositories" filters (step 2).
    searcher_compute_s:
        Fixed worker-side compute per search job on top of API latency.
    analysis_compute_s:
        Fixed worker-side compute per analysis job on top of the
        size-proportional scan.
    """

    libraries: tuple[str, ...]
    query_min_size_mb: float = 500.0
    query_min_stars: int = 5000
    query_min_forks: int = 5000
    searcher_compute_s: float = 0.5
    analysis_compute_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.libraries:
            raise ValueError("at least one library is required")
        if len(set(self.libraries)) != len(self.libraries):
            raise ValueError("library names must be unique")


def build_msr_pipeline(
    github: GitHubService,
    spec: MSRPipelineSpec,
) -> tuple[Pipeline, CooccurrenceMatrix]:
    """Construct the Figure-1 pipeline bound to a GitHub service model.

    Returns the validated pipeline and the (initially empty) result
    matrix the calculator task will populate.
    """
    matrix = CooccurrenceMatrix()
    analysis_ids = itertools.count()

    def searcher_handle(job: Job) -> list[Job]:
        """Expand a library into one analysis job per matching repository."""
        (library,) = job.payload
        query = SearchQuery(
            library=library,
            min_size_mb=spec.query_min_size_mb,
            min_stars=spec.query_min_stars,
            min_forks=spec.query_min_forks,
        )
        children = []
        for repo in github.evaluate(query):
            children.append(
                Job(
                    job_id=f"analysis-{next(analysis_ids):05d}",
                    task=TASK_ANALYZER,
                    repo_id=repo.repo_id,
                    size_mb=repo.size_mb,
                    base_compute_s=spec.analysis_compute_s,
                    payload=(library, repo.repo_id),
                )
            )
        return children

    def searcher_work(job: Job, machine, sim, done):
        """Worker-side cost of a search job: the paginated API calls."""
        (library,) = job.payload
        query = SearchQuery(
            library=library,
            min_size_mb=spec.query_min_size_mb,
            min_stars=spec.query_min_stars,
            min_forks=spec.query_min_forks,
        )
        github.search(query, done)

    def analyzer_handle(job: Job) -> list[Job]:
        """Turn an analysis completion into a dependency record."""
        library, repo_id = job.payload
        present = github._matches_library(library, github.corpus.get(repo_id))
        return [
            Job(
                job_id=f"record-{job.job_id}",
                task=TASK_CALCULATOR,
                payload=(library, repo_id, present),
            )
        ]

    def calculator_handle(job: Job) -> list[Job]:
        """Fold a dependency record into the co-occurrence matrix."""
        library, repo_id, present = job.payload
        matrix.record(library, repo_id, present)
        return []

    pipeline = Pipeline(name="msr")
    pipeline.add_task(
        Task(
            name=TASK_SEARCHER,
            consumes=(KIND_LIBRARY,),
            produces=(KIND_ANALYSIS,),
            handle=searcher_handle,
            sim_work=searcher_work,
        )
    )
    pipeline.add_task(
        Task(
            name=TASK_ANALYZER,
            consumes=(KIND_ANALYSIS,),
            produces=(KIND_RECORD,),
            handle=analyzer_handle,
        )
    )
    pipeline.add_task(
        Task(
            name=TASK_CALCULATOR,
            consumes=(KIND_RECORD,),
            handle=calculator_handle,
            on_master=True,
        )
    )
    pipeline.connect(KIND_LIBRARY, None, TASK_SEARCHER)
    pipeline.connect(KIND_ANALYSIS, TASK_SEARCHER, TASK_ANALYZER)
    pipeline.connect(KIND_RECORD, TASK_ANALYZER, TASK_CALCULATOR)
    pipeline.validate()
    return pipeline, matrix


def library_stream(
    spec: MSRPipelineSpec,
    searcher_compute_s: Optional[float] = None,
    mean_interarrival_s: float = 5.0,
    rng=None,
) -> JobStream:
    """The workflow source: a stream of ``Library`` jobs (protocol step 1).

    Libraries arrive over time ("an incoming stream of libraries l_i to
    be searched", Section 2).
    """
    import numpy as np

    compute = spec.searcher_compute_s if searcher_compute_s is None else searcher_compute_s
    jobs = [
        Job(
            job_id=f"library-{index:03d}",
            task=TASK_SEARCHER,
            base_compute_s=compute,
            payload=(library,),
        )
        for index, library in enumerate(spec.libraries)
    ]
    rng = rng if rng is not None else np.random.default_rng(0)
    return JobStream.poisson(jobs, mean_interarrival_s, rng, name="msr-libraries")


#: The 30 popular NPM package names referenced by the paper's protocol
#: (reference [1]: "30 Most Popular NPM Packages").
POPULAR_NPM_LIBRARIES: tuple[str, ...] = (
    "lodash", "react", "chalk", "axios", "express", "moment", "tslib",
    "commander", "debug", "async", "fs-extra", "react-dom", "prop-types",
    "bluebird", "vue", "uuid", "classnames", "underscore", "inquirer",
    "webpack", "yargs", "rxjs", "mkdirp", "glob", "colors", "body-parser",
    "minimist", "dotenv", "jquery", "typescript",
)
