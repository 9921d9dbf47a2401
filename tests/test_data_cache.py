"""Unit tests for the worker-local clone cache."""

import pytest

from repro.data.cache import WorkerCache


class TestUnboundedCache:
    def test_miss_then_hit(self):
        cache = WorkerCache()
        assert not cache.lookup("r1")
        cache.insert("r1", 100.0)
        assert cache.lookup("r1")
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_peek_does_not_count(self):
        cache = WorkerCache()
        assert not cache.peek("r1")
        cache.insert("r1", 10.0)
        assert cache.peek("r1")
        assert cache.stats.misses == 0
        assert cache.stats.hits == 0

    def test_insert_tracks_download_volume(self):
        cache = WorkerCache()
        cache.insert("r1", 100.0)
        cache.insert("r2", 50.0)
        assert cache.stats.mb_downloaded == pytest.approx(150.0)
        assert cache.used_mb == pytest.approx(150.0)

    def test_reinsert_does_not_recount(self):
        cache = WorkerCache()
        cache.insert("r1", 100.0)
        cache.insert("r1", 100.0)
        assert cache.stats.mb_downloaded == pytest.approx(100.0)
        assert len(cache) == 1

    def test_reinsert_updates_size(self):
        cache = WorkerCache()
        cache.insert("r1", 100.0)
        cache.insert("r1", 120.0)
        assert cache.used_mb == pytest.approx(120.0)

    def test_contains(self):
        cache = WorkerCache()
        cache.insert("r1", 1.0)
        assert "r1" in cache
        assert "r2" not in cache

    def test_invalid_sizes_rejected(self):
        cache = WorkerCache()
        with pytest.raises(ValueError):
            cache.insert("r", 0.0)
        with pytest.raises(ValueError):
            WorkerCache(capacity_mb=0.0)


class TestLRUEviction:
    def test_evicts_oldest_first(self):
        cache = WorkerCache(capacity_mb=100.0)
        cache.insert("old", 60.0)
        cache.insert("new", 60.0)
        assert "old" not in cache
        assert "new" in cache
        assert cache.stats.evictions == 1

    def test_hit_refreshes_recency(self):
        cache = WorkerCache(capacity_mb=100.0)
        cache.insert("a", 40.0)
        cache.insert("b", 40.0)
        cache.lookup("a")  # refresh a
        cache.insert("c", 40.0)  # must evict b, not a
        assert "a" in cache
        assert "b" not in cache

    def test_oversized_item_still_stored(self):
        cache = WorkerCache(capacity_mb=50.0)
        cache.insert("small", 10.0)
        evicted = cache.insert("huge", 200.0)
        assert "huge" in cache
        assert evicted == ["small"]

    def test_eviction_volume_tracked(self):
        cache = WorkerCache(capacity_mb=100.0)
        cache.insert("a", 80.0)
        cache.insert("b", 80.0)
        assert cache.stats.mb_evicted == pytest.approx(80.0)

    def test_used_never_negative(self):
        cache = WorkerCache(capacity_mb=10.0)
        for index in range(20):
            cache.insert(f"r{index}", 7.0)
        assert cache.used_mb >= 0.0
        assert cache.used_mb <= 10.0 or len(cache) == 1


class TestPreload:
    def test_preload_restores_contents(self):
        cache = WorkerCache()
        cache.preload({"r1": 100.0, "r2": 50.0})
        assert cache.peek("r1") and cache.peek("r2")

    def test_preload_does_not_touch_stats(self):
        cache = WorkerCache()
        cache.preload({"r1": 100.0})
        assert cache.stats.mb_downloaded == 0.0
        assert cache.stats.misses == 0

    def test_preload_respects_capacity(self):
        cache = WorkerCache(capacity_mb=100.0)
        cache.preload({"a": 60.0, "b": 60.0, "c": 30.0})
        assert cache.used_mb <= 100.0

    def test_preload_skips_existing(self):
        cache = WorkerCache()
        cache.insert("r1", 100.0)
        cache.preload({"r1": 999.0})
        assert cache.contents()["r1"] == 100.0

    def test_preload_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            WorkerCache().preload({"r": -1.0})

    def test_roundtrip_contents(self):
        cache = WorkerCache()
        cache.insert("x", 10.0)
        cache.insert("y", 20.0)
        clone = WorkerCache()
        clone.preload(cache.contents())
        assert clone.contents() == cache.contents()


class TestClear:
    def test_clear_drops_contents_keeps_stats(self):
        cache = WorkerCache()
        cache.lookup("a")
        cache.insert("a", 5.0)
        cache.clear()
        assert len(cache) == 0
        assert cache.used_mb == 0.0
        assert cache.stats.misses == 1
