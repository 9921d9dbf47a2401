"""Unit tests for deterministic stream splitting."""

import numpy as np
import pytest

from repro.sim import RandomStreams, split_seed, substream


class TestSplitSeed:
    def test_deterministic(self):
        assert split_seed(42, "a", 1) == split_seed(42, "a", 1)

    def test_different_keys_differ(self):
        assert split_seed(42, "a") != split_seed(42, "b")

    def test_different_seeds_differ(self):
        assert split_seed(1, "a") != split_seed(2, "a")

    def test_key_order_matters(self):
        assert split_seed(42, "a", "b") != split_seed(42, "b", "a")

    def test_mixed_key_types(self):
        assert split_seed(7, "worker", 3) == split_seed(7, "worker", "3")

    def test_result_is_64_bit(self):
        for seed in range(20):
            child = split_seed(seed, "x")
            assert 0 <= child < 2**64

    def test_no_separator_collision(self):
        """Keys ("ab", "c") and ("a", "bc") must produce different seeds."""
        assert split_seed(1, "ab", "c") != split_seed(1, "a", "bc")


class TestSubstream:
    def test_same_path_same_draws(self):
        a = substream(9, "noise", "w1").random(5)
        b = substream(9, "noise", "w1").random(5)
        assert np.array_equal(a, b)

    def test_different_paths_independent(self):
        a = substream(9, "noise", "w1").random(5)
        b = substream(9, "noise", "w2").random(5)
        assert not np.array_equal(a, b)


class TestRandomStreams:
    def test_get_memoises(self):
        streams = RandomStreams(5)
        assert streams.get("a") is streams.get("a")

    def test_distinct_keys_distinct_generators(self):
        streams = RandomStreams(5)
        assert streams.get("a") is not streams.get("b")

    def test_draws_advance_only_own_stream(self):
        streams = RandomStreams(5)
        streams.get("a").random(100)  # burn stream a
        fresh = RandomStreams(5)
        assert streams.get("b").random() == fresh.get("b").random()

    def test_fork_is_independent(self):
        parent = RandomStreams(5)
        child = parent.fork("sub")
        assert parent.get("x").random() != child.get("x").random()
