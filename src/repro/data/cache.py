"""Worker-local clone cache.

Each Crossflow worker keeps clones of the repositories it has processed
so that "repeated computations involving the same files [are] allocated
to the same worker nodes, namely the ones that already possess them"
(Section 2).  The paper's evaluation metrics are defined directly on
this cache:

* **Cache miss** -- the worker did not have the data locally and had to
  download it.
* **Data load** -- the megabytes downloaded on misses.

The paper implicitly assumes unbounded caches that persist across
workflow iterations.  :class:`WorkerCache` supports that default, plus a
bounded capacity with LRU eviction as an extension (ablation A4 in
DESIGN.md).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    mb_downloaded: float = 0.0
    mb_evicted: float = 0.0


@dataclass
class WorkerCache:
    """LRU cache of repository clones, keyed by repository id.

    Parameters
    ----------
    capacity_mb:
        Maximum total size of cached clones; ``float('inf')`` (the
        paper's implicit assumption) disables eviction.  A single item
        larger than the capacity is stored alone, evicting everything
        else -- the worker must hold the clone while processing it.
    """

    capacity_mb: float = float("inf")
    _items: "OrderedDict[str, float]" = field(default_factory=OrderedDict)
    stats: CacheStats = field(default_factory=CacheStats)
    #: Optional membership observer (``on_insert(repo_id)``,
    #: ``on_evict(repo_id)``, ``on_clear()``) -- the seam the
    #: struct-of-arrays cache plane (:mod:`repro.fleet`) hangs off.
    #: Only *membership* changes notify; recency moves do not.
    observer: object = None

    def __post_init__(self) -> None:
        if self.capacity_mb <= 0:
            raise ValueError("capacity_mb must be positive")

    # -- queries ---------------------------------------------------------

    def __contains__(self, repo_id: str) -> bool:
        return repo_id in self._items

    def __len__(self) -> int:
        return len(self._items)

    @property
    def used_mb(self) -> float:
        """Total size of currently cached clones.

        Computed exactly from the contents on every call: an incremental
        accumulator drifts under float addition/subtraction and can flip
        eviction decisions at capacity boundaries (found by the
        property-based cache/model test).
        """
        return sum(self._items.values())

    def contents(self) -> dict[str, float]:
        """Snapshot of cached items (id -> size), LRU-oldest first."""
        return dict(self._items)

    # -- the lookup that defines the paper's metrics ---------------------

    def lookup(self, repo_id: str) -> bool:
        """Record a locality check: hit refreshes recency, miss counts.

        Returns ``True`` on hit.  On a miss the caller is expected to
        download and then :meth:`insert` the clone; the download size is
        accounted by :meth:`insert`.
        """
        if repo_id in self._items:
            self._items.move_to_end(repo_id)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def peek(self, repo_id: str) -> bool:
        """Check presence *without* recording a hit/miss (for estimates).

        Bids and scheduling decisions probe the cache speculatively; only
        actual executions should move the metric counters.
        """
        return repo_id in self._items

    def insert(self, repo_id: str, size_mb: float) -> list[str]:
        """Store a freshly downloaded clone, evicting LRU items if needed.

        Returns the ids evicted to make room (empty for unbounded
        caches).  Re-inserting a present id refreshes recency and size
        without counting a download.
        """
        if size_mb <= 0:
            raise ValueError("size_mb must be positive")
        if repo_id in self._items:
            self._items.move_to_end(repo_id)
            self._items[repo_id] = size_mb
            return []
        self.stats.mb_downloaded += size_mb
        evicted: list[str] = []
        # Evict LRU-oldest until the new clone fits.  The new clone always
        # goes in, even if alone it exceeds capacity (the worker needs it
        # on disk to process the job at all).
        while self._items and self.used_mb + size_mb > self.capacity_mb:
            old_id, old_size = self._items.popitem(last=False)
            self.stats.evictions += 1
            self.stats.mb_evicted += old_size
            evicted.append(old_id)
        self._items[repo_id] = size_mb
        if self.observer is not None:
            for old_id in evicted:
                self.observer.on_evict(old_id)
            self.observer.on_insert(repo_id)
        return evicted

    def preload(self, contents: dict[str, float]) -> None:
        """Warm the cache with prior contents (cross-iteration persistence).

        Does not touch the stats counters: preloaded clones were paid for
        in a previous run.
        """
        for repo_id in contents:
            size_mb = contents[repo_id]
            if size_mb <= 0:
                raise ValueError("preloaded sizes must be positive")
            if repo_id in self._items:
                continue
            while self._items and self.used_mb + size_mb > self.capacity_mb:
                old_id, _ = self._items.popitem(last=False)
                if self.observer is not None:
                    self.observer.on_evict(old_id)
            if size_mb <= self.capacity_mb:
                self._items[repo_id] = size_mb
                if self.observer is not None:
                    self.observer.on_insert(repo_id)

    def clear(self) -> None:
        """Drop all contents (cold restart); stats are preserved."""
        self._items.clear()
        if self.observer is not None:
            self.observer.on_clear()
