"""Vectorized fleet state: numpy struct-of-arrays planes.

Every allocation decision in the engine reads one view of the fleet --
who is idle, who holds which repository, who is loaded how.  Walking
per-object Python state for it (schedulers scanning ``dict``/``set``
views worker-by-worker, the master's straggler tick iterating all
outstanding assignments, the observability probes re-walking the fleet
each sample) is what caps a cell at a few thousand workers (ROADMAP
item 2).  This module keeps that view in flat numpy arrays --
struct-of-arrays, one plane per field -- so the scans are single
vectorised C operations.

Design rules (the bit-identity discipline of PR 3 applies throughout):

* **The planes are the state.**  Every runtime builds a
  :class:`FleetState`; master and workers take it at construction.
  What a scheduler or the master asks of the fleet (assignment ages,
  holdings, planner loads and counts, the pull queue's locality) lives
  in exactly one structure here, and the workers' own counters and
  caches feed the shared planes at the seams (worker join/retire/fail,
  cache insert/evict, job enqueue/start/finish), always as absolute
  values; nothing is rebuilt per event.
* **float64 == Python float.**  numpy float64 arithmetic is IEEE-754
  double, the same as Python's ``float``; ``values[i] += cost`` yields
  the bit pattern ``load[w] += cost`` over a dict would, so argmin over
  the array selects the same worker as ``min`` over such a dict (the
  scalar planners kept as ``tests/reference_planners.py`` are the
  oracle).  What is *not* allowed is reassociating operations (e.g.
  settling one subtraction as two): only element-wise ports of the
  original op sequence preserve bit-identity.
* **Tie-breaks are explicit.**  ``min(..., key=lambda w: (value, w))``
  breaks ties by *name*; ``min(enumerate(...))`` breaks by *position*.
  The helpers here implement both exactly: name ties resolve through a
  precomputed lexicographic rank plane, position ties through
  ``np.argmin``'s first-occurrence guarantee.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.job import Job


# -- tie-break helpers -----------------------------------------------------


def name_ranks(names: list[str]) -> np.ndarray:
    """Lexicographic rank of each name (rank 0 = smallest name).

    ``argmin`` over ``(value, rank)`` then equals
    ``min(names, key=lambda n: (value[n], n))`` exactly.
    """
    ranks = np.empty(len(names), dtype=np.int64)
    ranks[np.argsort(np.array(names, dtype=object), kind="stable")] = np.arange(
        len(names)
    )
    return ranks


def argmin_value_rank(
    values: np.ndarray, ranks: np.ndarray, mask: Optional[np.ndarray] = None
) -> int:
    """Index of the smallest value, ties broken by smallest rank.

    Exactly ``min(domain, key=lambda i: (values[i], names[i]))`` when
    ``ranks`` is the lexicographic name rank.  ``mask`` restricts the
    domain; returns -1 when the masked domain is empty.
    """
    if mask is not None:
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            return -1
        sub = values[idx]
        ties = idx[sub == sub.min()]
    else:
        if values.size == 0:
            raise ValueError("argmin over an empty domain")
        ties = np.nonzero(values == values.min())[0]
    if ties.size == 1:
        return int(ties[0])
    return int(ties[np.argmin(ranks[ties])])


def argmax_value_rank(values: np.ndarray, ranks: np.ndarray) -> int:
    """Index of the largest value, ties broken by smallest rank.

    Exactly ``max(domain, key=lambda i: (values[i], names[i]))``: for
    the *max* of tuples Python prefers the lexicographically largest
    name among ties, so the rank tie-break flips to ``argmax``.
    """
    if values.size == 0:
        raise ValueError("argmax over an empty domain")
    ties = np.nonzero(values == values.max())[0]
    if ties.size == 1:
        return int(ties[0])
    return int(ties[np.argmax(ranks[ties])])


def _grow(array: np.ndarray, needed: int) -> np.ndarray:
    """Return ``array`` with capacity >= needed (amortised doubling)."""
    if array.shape[0] >= needed:
        return array
    cap = max(needed, array.shape[0] * 2, 8)
    fresh = np.zeros((cap,) + array.shape[1:], dtype=array.dtype)
    fresh[: array.shape[0]] = array
    return fresh


# -- dynamic worker x repo bit matrix --------------------------------------


class BitMatrix:
    """A growable (workers x repos) boolean membership matrix.

    Rows are worker slots, columns are repo slots; both grow by
    amortised doubling so per-event maintenance is O(1).  Used for the
    live cache-membership plane of :class:`FleetState` and for the
    completion-derived ``holdings`` views of the matchmaking/delay
    policies (separate planes: the views deliberately diverge from the
    live caches -- holdings never evict, plan-time views never update).
    """

    def __init__(self) -> None:
        self.repo_cols: dict[str, int] = {}
        self._bits = np.zeros((8, 8), dtype=bool)

    @property
    def n_repos(self) -> int:
        return len(self.repo_cols)

    def col(self, repo_id: str, create: bool = True) -> int:
        """The column of ``repo_id`` (-1 if unknown and not creating)."""
        column = self.repo_cols.get(repo_id)
        if column is None:
            if not create:
                return -1
            column = len(self.repo_cols)
            self.repo_cols[repo_id] = column
            if column >= self._bits.shape[1]:
                fresh = np.zeros(
                    (self._bits.shape[0], max(column + 1, self._bits.shape[1] * 2)),
                    dtype=bool,
                )
                fresh[:, : self._bits.shape[1]] = self._bits
                self._bits = fresh
        return column

    def _ensure_row(self, row: int) -> None:
        if row >= self._bits.shape[0]:
            fresh = np.zeros(
                (max(row + 1, self._bits.shape[0] * 2), self._bits.shape[1]),
                dtype=bool,
            )
            fresh[: self._bits.shape[0]] = self._bits
            self._bits = fresh

    def set(self, row: int, repo_id: str, value: bool) -> None:
        # Resolve the column *before* indexing: creating it may
        # reallocate ``_bits``, and Python binds the indexed object
        # before evaluating the index expression.
        column = self.col(repo_id, create=value)
        self._ensure_row(row)
        if value:
            self._bits[row, column] = True
        elif column >= 0:
            self._bits[row, column] = False

    def clear_row(self, row: int) -> None:
        self._ensure_row(row)
        self._bits[row, :] = False

    def test(self, row: int, repo_id: str) -> bool:
        column = self.col(repo_id, create=False)
        if column < 0 or row >= self._bits.shape[0]:
            return False
        return bool(self._bits[row, column])

    def column_mask(self, repo_id: str, n_rows: int) -> Optional[np.ndarray]:
        """The holder mask of ``repo_id`` over the first ``n_rows`` rows,
        or ``None`` when the repo has never been seen (nobody holds it)."""
        column = self.col(repo_id, create=False)
        if column < 0:
            return None
        self._ensure_row(max(n_rows - 1, 0))
        return self._bits[:n_rows, column]

    def row_contents(self, row: int) -> set[str]:
        """The repos set on ``row`` (test/diagnostic helper)."""
        if row >= self._bits.shape[0]:
            return set()
        bits = self._bits[row]
        return {repo for repo, column in self.repo_cols.items() if bits[column]}


# -- the shared fleet planes -----------------------------------------------


class _CacheObserver:
    """Hooks a :class:`~repro.data.cache.WorkerCache` into the cache plane."""

    __slots__ = ("fleet", "slot")

    def __init__(self, fleet: "FleetState", slot: int) -> None:
        self.fleet = fleet
        self.slot = slot

    def on_insert(self, repo_id: str) -> None:
        self.fleet.cache.set(self.slot, repo_id, True)

    def on_evict(self, repo_id: str) -> None:
        self.fleet.cache.set(self.slot, repo_id, False)

    def on_clear(self) -> None:
        self.fleet.cache.clear_row(self.slot)


class FleetState:
    """The struct-of-arrays planes of fleet-wide hot state.

    One slot per worker *name*, append-only (a restarted worker reuses
    its slot); planes are flat arrays indexed by slot:

    ``alive``
        node-side liveness (cleared by :meth:`WorkerNode.kill`).
    ``active``
        master-side membership of ``Master.active_workers`` (cleared on
        retire/failure, restored on revive).
    ``outstanding`` / ``queued``
        the worker's accepted-unfinished count and FIFO depth, reported
        absolutely at every enqueue/start/finish seam so the planes can
        never drift from the node's own counters.
    ``link_busy``
        whether any transfer holds or waits on the worker's link.
    ``cache``
        the live (workers x repos) cache-membership :class:`BitMatrix`,
        maintained by cache observers at insert/evict/preload/clear.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.slots: dict[str, int] = {}
        #: The node attached to each slot (``None`` before the first
        #: attach): a restarted worker replaces its dead incarnation.
        self.nodes: list = []
        self.alive = np.zeros(0, dtype=bool)
        self.active = np.zeros(0, dtype=bool)
        self.outstanding = np.zeros(0, dtype=np.int64)
        self.queued = np.zeros(0, dtype=np.int64)
        self.link_busy = np.zeros(0, dtype=bool)
        self.cache = BitMatrix()

    def __len__(self) -> int:
        return len(self.names)

    # -- membership seams -------------------------------------------------

    def ensure_worker(self, name: str) -> int:
        """The slot of ``name``, creating it (inactive, dead) if new."""
        slot = self.slots.get(name)
        if slot is None:
            slot = len(self.names)
            self.names.append(name)
            self.nodes.append(None)
            self.slots[name] = slot
            needed = slot + 1
            self.alive = _grow(self.alive, needed)
            self.active = _grow(self.active, needed)
            self.outstanding = _grow(self.outstanding, needed)
            self.queued = _grow(self.queued, needed)
            self.link_busy = _grow(self.link_busy, needed)
        return slot

    def slot_of(self, name: str) -> int:
        return self.slots[name]

    def on_join(self, name: str) -> int:
        """Master seam: ``add_worker`` / ``revive_worker``."""
        slot = self.ensure_worker(name)
        self.active[slot] = True
        return slot

    def on_retire(self, name: str) -> None:
        """Master seam: ``retire_worker`` (drain; node stays alive)."""
        self.active[self.slot_of(name)] = False

    def on_fail(self, name: str) -> None:
        """Master seam: ``_on_worker_failure``."""
        slot = self.slots.get(name)
        if slot is not None:
            self.active[slot] = False

    # -- node seams -------------------------------------------------------

    def attach_node(self, node) -> int:
        """Wire a (possibly restarted) worker node into the planes
        (:class:`~repro.engine.worker.WorkerNode` calls this as it is
        built) and return its slot.

        Resets the slot's node-side planes from the node's actual state
        -- counts, liveness, cache contents (warm restarts preload
        before this attach), link occupancy -- and installs the cache
        and link observers so subsequent mutations stream in.
        """
        slot = self.ensure_worker(node.name)
        self.nodes[slot] = node
        self.alive[slot] = node.alive
        self.outstanding[slot] = node._outstanding_jobs
        self.queued[slot] = len(node.queue)
        self.cache.clear_row(slot)
        for repo_id in node.cache.contents():
            self.cache.set(slot, repo_id, True)
        node.cache.observer = _CacheObserver(self, slot)
        link = node.machine.link
        self.link_busy[slot] = link.busy
        link.observer = self._link_observer(slot)
        return slot

    def detach_nodes(self) -> None:
        """End of the run: forget the attached nodes, whose cache and
        link observers point back at these planes.  The planes stay
        readable."""
        self.nodes = [None] * len(self.nodes)

    def _link_observer(self, slot: int) -> Callable[[bool], None]:
        def observe(busy: bool, _slot: int = slot) -> None:
            self.link_busy[_slot] = busy

        return observe

    def report(self, slot: int, outstanding: int, queued: int) -> None:
        """Node seam: absolute counts at enqueue/start/finish/kill."""
        self.outstanding[slot] = outstanding
        self.queued[slot] = queued

    def set_alive(self, slot: int, flag: bool) -> None:
        self.alive[slot] = flag

    # -- vectorised queries -----------------------------------------------

    def busy_count(self) -> int:
        """Workers alive with accepted-unfinished work (``fleet.busy``)."""
        n = len(self.names)
        return int(np.count_nonzero(self.alive[:n] & (self.outstanding[:n] > 0)))

    def active_busy_count(self) -> int:
        """Active workers with accepted-unfinished work (autoscaler gauge)."""
        n = len(self.names)
        return int(np.count_nonzero(self.active[:n] & (self.outstanding[:n] > 0)))

    def probe_row(self, slots: np.ndarray) -> list:
        """Every plane gauge of one probe tick as one list: ``fleet.busy``,
        ``links.busy``, then the queue depth and the busy flag of each
        of ``slots``.  One ``alive & (outstanding > 0)`` mask serves the
        count and the flags (capacity past the last worker is never
        alive, so the planes are read unsliced)."""
        busy = self.alive & (self.outstanding > 0)
        return [
            np.count_nonzero(busy),
            np.count_nonzero(self.alive & self.link_busy),
            *self.queued[slots].tolist(),
            *busy[slots].tolist(),
        ]

    def candidate_snapshot(
        self, names: list, repo_id: Optional[str] = None
    ) -> list[tuple]:
        """Read-only per-candidate facts for the decision ledger.

        Returns ``(name, queued, outstanding, holds_repo, link_busy)``
        per name; ``holds_repo`` is against the *live* cache plane
        (``True`` for repo-less jobs), and names the planes have never
        seen yield all-``None`` facts.  Pure gathers -- no plane is
        touched, so ledger-on runs stay bit-identical to ledger-off.
        """
        rows: list[tuple] = []
        for name in names:
            slot = self.slots.get(name)
            if slot is None:
                rows.append((name, None, None, None, None))
                continue
            holds = True if repo_id is None else self.cache.test(slot, repo_id)
            rows.append(
                (
                    name,
                    int(self.queued[slot]),
                    int(self.outstanding[slot]),
                    bool(holds),
                    bool(self.link_busy[slot]),
                )
            )
        return rows


# -- per-bidder cost planes for columnar bidding contests ------------------


class BidPlanes:
    """What every bidder would bid with, one row per bidder.

    The Bidding Scheduler's contest computes all bids of a job in one
    pass over these planes (:meth:`estimate`, :meth:`schedule`) instead
    of running one process per worker.  One append-only row per bidder
    *incarnation* -- a restarted or hot-swapped-in worker registers a
    fresh row, so nothing of a dead incarnation is inherited -- in
    announce-subscription order.  Like :class:`FleetState`'s, the planes
    are fed at the seams: each row is written by the worker's own scalar
    code (its ``CostEstimator``) at the worker's mutation seams, always
    as an absolute value and never as a ``+=`` delta, so a cell holds
    exactly the float the per-object code would have computed at that
    instant.

    ``announce_delay`` / ``compute_s``
        broker leg to the bidder and the time its bid takes to compute.
    ``busy_until``
        when the bidder's serial bid thread frees up (announcements
        queue behind the bid being computed).
    ``draining``
        the bidder abstains (scale-down drain).
    ``committed`` / ``network`` / ``rw`` / ``cpu`` / ``link_latency`` / ``factor``
        the inputs of Listing 2: ``totalCostOfUnfinishedJobs()``, the
        speed model's current outputs, the spec constants, and the
        adaptive correction (1.0 without a corrector).
    ``local``
        (bidders x repos) "the data will be local by the time the job
        runs" bits, the estimator's ``holds`` predicate.
    ``bids``
        bid arrivals not yet flushed into the metrics collector.
    """

    _PLANES = (
        "announce_delay",
        "compute_s",
        "busy_until",
        "committed",
        "network",
        "rw",
        "cpu",
        "link_latency",
        "factor",
    )

    def __init__(self) -> None:
        #: row -> the worker-side policy that writes it.
        self.bidders: list = []
        for name in self._PLANES:
            setattr(self, name, np.zeros(0, dtype=np.float64))
        self.draining = np.zeros(0, dtype=bool)
        self.bids = np.zeros(0, dtype=np.int64)
        self.local = BitMatrix()
        #: Whether any bidder learns a correction (``factor`` != 1).
        self.corrected = False

    def __len__(self) -> int:
        return len(self.bidders)

    def add(self, bidder) -> int:
        """Append a row for ``bidder`` (zeroed; the bidder fills it)."""
        row = len(self.bidders)
        self.bidders.append(bidder)
        for name in self._PLANES + ("draining", "bids"):
            setattr(self, name, _grow(getattr(self, name), row + 1))
        self.factor[row] = 1.0
        return row

    def estimate(self, rows, job: "Job") -> tuple:
        """Listing 2 for every bidder in ``rows`` (a slice or an index
        array) at once: ``(workload, transfer, processing, own, cost)``,
        element-wise and in ``CostEstimator``'s exact operation order."""
        size = job.size_mb
        workload = np.array(self.committed[rows])
        processing = size / self.rw[rows]
        if job.base_compute_s:  # (0 / cpu + x is exactly x)
            processing = job.base_compute_s / self.cpu[rows] + processing
        transfer = self.link_latency[rows] + size / self.network[rows]
        if job.repo_id is None:
            transfer = np.zeros_like(transfer)
        else:
            held = self.local.column_mask(job.repo_id, len(self.bidders))
            if held is not None:
                transfer = np.where(held[rows], 0.0, transfer)
        own = transfer + processing
        if self.corrected:
            own = own * self.factor[rows]
        return workload, transfer, processing, own, workload + own

    def schedule(self, rows, now: float, reply_delay: float) -> tuple:
        """When each bidder in ``rows`` takes an announcement published
        ``now`` off its mailbox, finishes computing the bid, and when
        that bid reaches the master -- plus who bids at all:
        ``(dequeue, evaluate, arrive, bidding)``.  Bidders that are not
        draining go busy until their evaluation time."""
        dequeue = np.maximum(now + self.announce_delay[rows], self.busy_until[rows])
        evaluate = dequeue + self.compute_s[rows]
        bidding = ~self.draining[rows]
        self.busy_until[rows] = np.where(bidding, evaluate, self.busy_until[rows])
        return dequeue, evaluate, evaluate + reply_delay, bidding


# -- dynamic load/count tables for the planner policies --------------------


class LoadTable:
    """An ordered ``{worker: value}`` table with vectorised argmin.

    The planner policies' per-worker accumulators (BAR's float load
    estimates, Spark's integer planned counts).  Names keep their
    insertion order through removals, as a dict's keys do; every cell
    sees the scalar operation a dict entry would, so the float64 cells
    hold the bit-identical values and ``argmin_name``/``argmax_name``/
    ``argmin_first`` select exactly the worker ``min``/``max`` over such
    a dict selects.
    """

    def __init__(self, dtype=np.float64) -> None:
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.values = np.zeros(0, dtype=dtype)
        self._ranks = np.zeros(0, dtype=np.int64)
        self._ranks_stale = False

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def reset(self, table: dict[str, float]) -> None:
        """Replace the contents with ``table``'s, in its order."""
        self.names = list(table)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.values = np.fromiter(
            table.values(), dtype=self.values.dtype, count=len(self.names)
        )
        self._ranks_stale = True

    def ensure(self, name: str, value) -> None:
        """Append ``name`` (no-op if present, as ``dict.setdefault``)."""
        if name in self.index:
            return
        self.index[name] = len(self.names)
        self.names.append(name)
        if len(self.names) > self.values.shape[0]:
            self.values = _grow(self.values, len(self.names))
        self.values[len(self.names) - 1] = value
        self._ranks_stale = True

    def pop(self, name: str) -> None:
        """Remove ``name``; later names move up one position (removals
        are fleet churn, so the O(n) shift is off the hot path)."""
        i = self.index.pop(name, None)
        if i is None:
            return
        last = len(self.names) - 1
        self.values[i:last] = self.values[i + 1 : last + 1]
        del self.names[i]
        for moved in self.names[i:]:
            self.index[moved] -= 1
        self._ranks_stale = True

    def add(self, name: str, delta) -> None:
        # In-place += on a float64 cell is the identical IEEE-754
        # operation a Python-float += performs.
        self.values[self.index[name]] += delta

    def set(self, name: str, value) -> None:
        self.values[self.index[name]] = value

    def get(self, name: str):
        return self.values[self.index[name]]

    def _live(self) -> np.ndarray:
        return self.values[: len(self.names)]

    def _rank_plane(self) -> np.ndarray:
        if self._ranks_stale:
            self._ranks = name_ranks(self.names)
            self._ranks_stale = False
        return self._ranks

    def max_value(self):
        return self._live().max()

    def argmin_first(self) -> str:
        """``min(enumerate(names), key=lambda p: (table[p[1]], p[0]))`` --
        ties go to the earliest position."""
        return self.names[int(np.argmin(self._live()))]

    def argmin_name(self, mask: Optional[np.ndarray] = None) -> Optional[str]:
        """``min(table, key=lambda n: (table[n], n))`` -- or None when the
        masked domain is empty."""
        i = argmin_value_rank(self._live(), self._rank_plane(), mask)
        return None if i < 0 else self.names[i]

    def argmax_name(self) -> str:
        """``max(table, key=lambda n: (table[n], n))``."""
        return self.names[argmax_value_rank(self._live(), self._rank_plane())]


class HolderMatrix:
    """A frozen plan-time (workers x repos) locality snapshot.

    Built once per planning pass from a policy's ``cache_view`` --
    deliberately *not* from the live cache plane: upfront planners (BAR,
    Spark) price locality against what was cached when the run started
    and never react to clones made during execution.  Column -1 (repo
    ``None``) is local everywhere, mirroring ``_is_local``.
    """

    def __init__(self, names: list[str], view: dict[str, set[str]]) -> None:
        self.index = {name: i for i, name in enumerate(names)}
        self.repo_cols: dict[str, int] = {}
        for name in names:
            for repo in view.get(name, ()):
                self.repo_cols.setdefault(repo, len(self.repo_cols))
        self.bits = np.zeros((len(names), len(self.repo_cols)), dtype=bool)
        for name in names:
            row = self.index[name]
            for repo in view.get(name, ()):
                self.bits[row, self.repo_cols[repo]] = True
        self._all_local = np.ones(len(names), dtype=bool)
        self._none_local = np.zeros(len(names), dtype=bool)

    def job_col(self, repo_id: Optional[str]) -> int:
        """The matrix column for a job's repo: -1 = no data (local
        everywhere), -2 = unknown repo (local nowhere)."""
        if repo_id is None:
            return -1
        return self.repo_cols.get(repo_id, -2)

    def holders(self, col: int) -> np.ndarray:
        """The locality mask for a :meth:`job_col` column."""
        if col == -1:
            return self._all_local
        if col == -2:
            return self._none_local
        return self.bits[:, col]

    def job_cols(self, jobs: list["Job"]) -> np.ndarray:
        return np.fromiter(
            (self.job_col(job.repo_id) for job in jobs),
            dtype=np.int64,
            count=len(jobs),
        )

    def local_for_row(self, row: int, cols: np.ndarray) -> np.ndarray:
        """Locality of many jobs (as :meth:`job_col` columns) on *one*
        worker row -- the phase-2 candidate gather of the BAR planner."""
        local = cols == -1
        known = cols >= 0
        local[known] = self.bits[row, cols[known]]
        return local


# -- the master's straggler table ------------------------------------------


class JobAgeTable:
    """The master's in-flight assignments: job -> (worker, assigned-at).

    Feeds orphan recovery and the straggler scan.  Ordered like a dict
    keyed by job id -- new ids append, updates of a live id stay in
    place, removals free the slot -- so the vectorised overdue scan
    yields (job, worker) pairs in first-assignment order (the order
    recovery timers are armed in, which the determinism contract pins).
    Dead slots are compacted once they outnumber live ones.
    """

    def __init__(self) -> None:
        self._jobs: list = []
        self._workers: list[str] = []
        self._at = np.zeros(0, dtype=np.float64)
        self._live = np.zeros(0, dtype=bool)
        self._slot: dict[str, int] = {}
        self._dead = 0

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._slot

    def add(self, job_id: str, job, worker: str, at: float) -> None:
        slot = self._slot.get(job_id)
        if slot is not None:
            # Update-in-place: a re-assigned job keeps its position.
            self._jobs[slot] = job
            self._workers[slot] = worker
            self._at[slot] = at
            return
        slot = len(self._jobs)
        self._jobs.append(job)
        self._workers.append(worker)
        needed = slot + 1
        self._at = _grow(self._at, needed)
        self._live = _grow(self._live, needed)
        self._at[slot] = at
        self._live[slot] = True
        self._slot[job_id] = slot

    def remove(self, job_id: str) -> None:
        slot = self._slot.pop(job_id, None)
        if slot is None:
            return
        self._live[slot] = False
        self._jobs[slot] = None
        self._dead += 1
        if self._dead > 64 and self._dead > len(self._slot):
            self._compact()

    def _compact(self) -> None:
        keep = [i for i in range(len(self._jobs)) if self._live[i]]
        self._jobs = [self._jobs[i] for i in keep]
        self._workers = [self._workers[i] for i in keep]
        at = np.zeros(max(len(keep), 8), dtype=np.float64)
        at[: len(keep)] = self._at[keep]
        self._at = at
        self._live = np.zeros(max(len(keep), 8), dtype=bool)
        self._live[: len(keep)] = True
        job_ids = {slot: job_id for job_id, slot in self._slot.items()}
        self._slot = {job_ids[old]: new for new, old in enumerate(keep)}
        self._dead = 0

    def overdue(self, now: float, timeout: float) -> list[tuple[object, str]]:
        """Assignments with ``now - at >= timeout``, in insertion order."""
        n = len(self._jobs)
        if n == 0:
            return []
        hits = np.nonzero(self._live[:n] & (now - self._at[:n] >= timeout))[0]
        return [(self._jobs[i], self._workers[i]) for i in hits]


# -- holdings-aware job queues (matchmaking / delay) -----------------------


class HoldingsIndex:
    """A pull master's ``{worker: {repo}}`` holdings view, as a bit matrix.

    The completions-derived block map of the matchmaking/delay masters:
    insert-only per worker (a worker's row is wiped only when the node
    dies).  This is intentionally a *separate* plane from the live cache
    matrix -- the policies' knowledge lags reality (no evictions, no
    prefetches), and this is their view, not a corrected one.
    """

    def __init__(self) -> None:
        self.matrix = BitMatrix()
        self.rows: dict[str, int] = {}

    def _row(self, worker: str) -> int:
        row = self.rows.get(worker)
        if row is None:
            row = len(self.rows)
            self.rows[worker] = row
        return row

    def add(self, worker: str, repo_id: str) -> None:
        self.matrix.set(self._row(worker), repo_id, True)

    def drop_worker(self, worker: str) -> None:
        row = self.rows.get(worker)
        if row is not None:
            self.matrix.clear_row(row)

    def holds(self, worker: str, repo_id: str) -> bool:
        row = self.rows.get(worker)
        return row is not None and self.matrix.test(row, repo_id)

    def col(self, repo_id: str) -> int:
        return self.matrix.col(repo_id, create=True)

    def local_mask(self, worker: str, cols: np.ndarray) -> np.ndarray:
        """Locality of each queued job for ``worker``: repo-less jobs
        (col -1) are local everywhere, the rest by row membership."""
        local = cols < 0
        row = self.rows.get(worker)
        if row is None:
            return local
        bits = self.matrix._bits
        if row >= bits.shape[0]:
            return local
        has_repo = ~local
        out = local.copy()
        out[has_repo] = bits[row, cols[has_repo]]
        return out


class LocalityQueue:
    """A FIFO of jobs with a parallel repo-column array.

    The job queue of the matchmaking/delay masters: a ``deque``'s
    append/appendleft/popleft plus delete-at-index, and a vectorised
    first-local scan against a :class:`HoldingsIndex` (one boolean
    gather instead of a per-job ``set`` probe).
    """

    def __init__(self, index: HoldingsIndex) -> None:
        self.index = index
        self._jobs: list = []
        self._cols = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __iter__(self):
        return iter(self._jobs)

    def __getitem__(self, i: int):
        return self._jobs[i]

    def _col_of(self, job) -> int:
        if job.repo_id is None:
            return -1
        return self.index.col(job.repo_id)

    def append(self, job) -> None:
        n = len(self._jobs)
        self._jobs.append(job)
        self._cols = _grow(self._cols, n + 1)
        self._cols[n] = self._col_of(job)

    def appendleft(self, job) -> None:
        n = len(self._jobs)
        self._jobs.insert(0, job)
        self._cols = _grow(self._cols, n + 1)
        self._cols[1 : n + 1] = self._cols[:n]
        self._cols[0] = self._col_of(job)

    def popleft(self):
        return self.delete(0)

    def delete(self, i: int):
        job = self._jobs.pop(i)
        n = len(self._jobs)
        self._cols[i:n] = self._cols[i + 1 : n + 1]
        return job

    def local_mask(self, worker: str) -> np.ndarray:
        """Per-queued-job locality for ``worker``."""
        return self.index.local_mask(worker, self._cols[: len(self._jobs)])

    def first_local(self, worker: str) -> int:
        """Index of the first job local to ``worker``, or -1."""
        mask = self.local_mask(worker)
        if not mask.any():
            return -1
        return int(mask.argmax())


__all__ = [
    "name_ranks",
    "argmin_value_rank",
    "argmax_value_rank",
    "BitMatrix",
    "FleetState",
    "BidPlanes",
    "LoadTable",
    "HolderMatrix",
    "JobAgeTable",
    "HoldingsIndex",
    "LocalityQueue",
]
