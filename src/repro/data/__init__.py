"""Data substrate: repositories, size distributions, caches, GitHub model.

The paper's workload is software-repository mining: jobs are
``(library, repository)`` pairs and the dominant cost is cloning the
repository.  This package provides the pieces that stand in for the
real data world:

* :mod:`repro.data.sizes` -- the small/medium/large size bands of
  Section 6.3.1 and mixture distributions over them,
* :mod:`repro.data.repository` -- repository identities and the
  synthetic corpus generator,
* :mod:`repro.data.cache` -- the worker-local clone store whose hit/miss
  behaviour defines the paper's *cache miss* and *data load* metrics,
* :mod:`repro.data.github` -- a GitHub-API-shaped search service with
  modelled latency, standing in for the live API used in Section 6.4.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.data.cache": ("CacheStats", "WorkerCache"),
        "repro.data.github": ("GitHubService", "SearchQuery"),
        "repro.data.repository": ("Repository", "RepositoryCorpus"),
        "repro.data.sizes": (
            "LARGE",
            "MEDIUM",
            "SMALL",
            "SizeBand",
            "SizeMixture",
            "equal_mixture",
            "mostly_large",
            "mostly_small",
        ),
    },
)
