"""Unit tests for the struct-of-arrays building blocks (:mod:`repro.fleet`).

The contract under test everywhere: each vectorised helper must select
*exactly* what the Python scan it replaced selected, including the
tie-breaks the determinism fixture pins (lexicographic names for
``min``/``max`` over dicts, first occurrence for ``np.argmin`` over the
executor order, insertion order for dict walks).
"""

from collections import deque

import numpy as np
import pytest

from repro.fleet import (
    BitMatrix,
    HolderMatrix,
    HoldingsIndex,
    JobAgeTable,
    LoadTable,
    LocalityQueue,
    argmax_value_rank,
    argmin_value_rank,
    name_ranks,
)
from repro.workload.job import Job


def _job(job_id, repo=None):
    if repo is None:
        return Job(job_id=job_id, task="t")
    return Job(job_id=job_id, task="t", repo_id=repo, size_mb=1.0)


class TestRankHelpers:
    def test_ranks_are_lexicographic(self):
        names = ["w10", "w2", "w1", "a"]
        ranks = name_ranks(names)
        by_rank = [names[i] for i in np.argsort(ranks)]
        assert by_rank == sorted(names)

    def test_argmin_matches_tuple_min(self):
        names = ["w3", "w1", "w2", "w10"]
        values = np.array([2.0, 5.0, 2.0, 2.0])
        ranks = name_ranks(names)
        table = dict(zip(names, values))
        expected = min(table, key=lambda n: (table[n], n))
        assert names[argmin_value_rank(values, ranks)] == expected == "w10"

    def test_argmax_matches_tuple_max(self):
        # Python's max over (value, name) tuples prefers the *largest*
        # name among value ties -- the flip side of the min tie-break.
        names = ["w3", "w1", "w2", "w10"]
        values = np.array([5.0, 5.0, 2.0, 5.0])
        ranks = name_ranks(names)
        table = dict(zip(names, values))
        expected = max(table, key=lambda n: (table[n], n))
        assert names[argmax_value_rank(values, ranks)] == expected == "w3"

    def test_masked_argmin_and_empty_domain(self):
        values = np.array([3.0, 1.0, 2.0])
        ranks = name_ranks(["a", "b", "c"])
        mask = np.array([True, False, True])
        assert argmin_value_rank(values, ranks, mask) == 2
        assert argmin_value_rank(values, ranks, np.zeros(3, dtype=bool)) == -1

    def test_empty_unmasked_domain_rejected(self):
        empty = np.zeros(0)
        with pytest.raises(ValueError):
            argmin_value_rank(empty, np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            argmax_value_rank(empty, np.zeros(0, dtype=np.int64))


class TestBitMatrix:
    def test_growth_past_initial_capacity(self):
        matrix = BitMatrix()
        for row in range(20):
            for k in range(12):
                matrix.set(row, f"r{(row + k) % 25}", True)
        for row in range(20):
            assert matrix.row_contents(row) == {f"r{(row + k) % 25}" for k in range(12)}

    def test_clear_and_unset(self):
        matrix = BitMatrix()
        matrix.set(0, "r1", True)
        matrix.set(0, "r2", True)
        matrix.set(0, "r1", False)
        assert matrix.row_contents(0) == {"r2"}
        matrix.clear_row(0)
        assert matrix.row_contents(0) == set()

    def test_unset_of_unknown_repo_creates_no_column(self):
        matrix = BitMatrix()
        matrix.set(0, "ghost", False)
        assert matrix.n_repos == 0
        assert not matrix.test(0, "ghost")

    def test_column_mask(self):
        matrix = BitMatrix()
        matrix.set(2, "r1", True)
        mask = matrix.column_mask("r1", 4)
        assert list(mask) == [False, False, True, False]
        assert matrix.column_mask("ghost", 4) is None


class TestHolderMatrix:
    def setup_method(self):
        self.names = ["w1", "w2", "w3"]
        self.view = {"w1": {"r1"}, "w3": {"r1", "r2"}}
        self.matrix = HolderMatrix(self.names, self.view)

    def test_dataless_job_local_everywhere(self):
        assert list(self.matrix.holders(self.matrix.job_col(None))) == [True] * 3

    def test_unknown_repo_local_nowhere(self):
        assert list(self.matrix.holders(self.matrix.job_col("ghost"))) == [False] * 3

    def test_holders_mirror_view(self):
        assert list(self.matrix.holders(self.matrix.job_col("r1"))) == [
            True,
            False,
            True,
        ]

    def test_local_for_row_matches_per_job_probe(self):
        jobs = [_job("a", "r1"), _job("b"), _job("c", "ghost"), _job("d", "r2")]
        cols = self.matrix.job_cols(jobs)
        for name in self.names:
            row = self.matrix.index[name]
            expected = [
                job.repo_id is None or job.repo_id in self.view.get(name, ())
                for job in jobs
            ]
            assert list(self.matrix.local_for_row(row, cols)) == expected


class TestJobAgeTable:
    def test_overdue_in_insertion_order(self):
        table = JobAgeTable()
        for i in range(5):
            table.add(f"j{i}", f"job-{i}", f"w{i % 2}", at=float(i))
        hits = table.overdue(now=10.0, timeout=7.5)
        assert hits == [("job-0", "w0"), ("job-1", "w1"), ("job-2", "w0")]

    def test_update_in_place_keeps_position(self):
        # Re-adding a live id mirrors a dict value update: the key keeps
        # its original iteration position.
        table = JobAgeTable()
        table.add("a", "A", "w1", at=0.0)
        table.add("b", "B", "w1", at=0.0)
        table.add("a", "A", "w2", at=1.0)
        assert table.overdue(now=100.0, timeout=1.0) == [("A", "w2"), ("B", "w1")]

    def test_compaction_preserves_order(self):
        table = JobAgeTable()
        for i in range(200):
            table.add(f"j{i}", f"job-{i}", "w", at=float(i))
        for i in range(0, 200, 2):
            table.remove(f"j{i}")  # > 64 dead triggers compaction
        assert len(table) == 100
        hits = table.overdue(now=1000.0, timeout=0.0)
        assert [job for job, _ in hits] == [f"job-{i}" for i in range(1, 200, 2)]
        table.add("late", "LATE", "w", at=0.0)
        assert table.overdue(now=1000.0, timeout=0.0)[-1] == ("LATE", "w")

    def test_remove_unknown_is_noop(self):
        table = JobAgeTable()
        table.remove("ghost")
        assert len(table) == 0


class TestLoadTable:
    def test_pop_swap_remove_keeps_scans_exact(self):
        table = LoadTable()
        ref = {"w1": 3.0, "w2": 1.0, "w3": 2.0, "w4": 1.0}
        table.reset(ref)
        table.pop("w2")
        del ref["w2"]
        assert table.argmin_name() == min(ref, key=lambda n: (ref[n], n)) == "w4"
        assert table.argmax_name() == max(ref, key=lambda n: (ref[n], n)) == "w1"
        assert "w2" not in table and "w4" in table

    def test_pop_keeps_insertion_order(self):
        # Position ties (Spark's registration order) survive removals.
        table = LoadTable(dtype=np.int64)
        table.reset(dict.fromkeys(["w3", "w1", "w4", "w2"], 0))
        assert table.argmin_first() == "w3"
        table.pop("w3")
        table.pop("ghost")
        assert table.names == ["w1", "w4", "w2"]
        assert [table.index[name] for name in table.names] == [0, 1, 2]
        table.add("w1", 2)
        assert table.argmin_first() == "w4"
        table.ensure("w5", table.max_value())
        assert table.names[-1] == "w5" and table.get("w5") == 2

    def test_integer_dtype_counts(self):
        table = LoadTable(dtype=np.int64)
        table.reset({"w1": 0, "w2": 0})
        table.add("w2", 3)
        assert table.get("w2") == 3
        assert table.argmin_name() == "w1"


class TestLocalityQueue:
    def _queue(self):
        hx = HoldingsIndex()
        hx.add("w1", "r1")
        hx.add("w2", "r2")
        queue = LocalityQueue(hx)
        return hx, queue

    def test_deque_parity(self):
        _, queue = self._queue()
        reference = deque()
        jobs = [_job(f"j{i}", f"r{i % 3}") for i in range(6)] + [_job("plain")]
        for job in jobs[:4]:
            queue.append(job)
            reference.append(job)
        queue.appendleft(jobs[4])
        reference.appendleft(jobs[4])
        assert list(queue) == list(reference)
        assert queue.popleft() is reference.popleft()
        queue.delete(1)
        del reference[1]
        assert list(queue) == list(reference)
        assert len(queue) == len(reference) and bool(queue)

    def test_local_mask_matches_holdings(self):
        hx, queue = self._queue()
        holdings = {"w1": {"r1"}, "w2": {"r2"}}
        for job in [_job("a", "r1"), _job("b", "r2"), _job("c"), _job("d", "r9")]:
            queue.append(job)
        for worker in ("w1", "w2", "stranger"):
            expected = [
                job.repo_id is None or job.repo_id in holdings.get(worker, ())
                for job in queue
            ]
            assert list(queue.local_mask(worker)) == expected

    def test_first_local(self):
        _, queue = self._queue()
        queue.append(_job("a", "r9"))
        queue.append(_job("b", "r2"))
        assert queue.first_local("w2") == 1
        assert queue.first_local("w1") == -1

    def test_drop_worker_wipes_row(self):
        hx, queue = self._queue()
        queue.append(_job("a", "r1"))
        assert queue.first_local("w1") == 0
        hx.drop_worker("w1")
        assert queue.first_local("w1") == -1
        # Re-learned holdings reuse the row.
        hx.add("w1", "r1")
        assert queue.first_local("w1") == 0

    def test_holds_reads_the_same_bits(self):
        hx, _ = self._queue()
        assert hx.holds("w1", "r1") and not hx.holds("w1", "r2")
        assert not hx.holds("stranger", "r1") and not hx.holds("w1", "ghost")
        hx.drop_worker("w1")
        assert not hx.holds("w1", "r1")
