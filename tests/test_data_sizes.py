"""Unit tests for size bands and mixtures."""

import numpy as np
import pytest

from repro.data.sizes import (
    BANDS,
    LARGE,
    MEDIUM,
    SMALL,
    SizeBand,
    SizeMixture,
    band_by_name,
    band_of,
    equal_mixture,
    mostly_large,
    mostly_small,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestBands:
    def test_canonical_bands_cover_paper_range(self):
        assert SMALL.lo_mb == 1.0
        assert LARGE.hi_mb == 1024.0
        # Bands tile contiguously.
        assert SMALL.hi_mb == MEDIUM.lo_mb
        assert MEDIUM.hi_mb == LARGE.lo_mb

    def test_sample_within_band(self, rng):
        for band in BANDS:
            for _ in range(100):
                assert band.lo_mb <= band.sample(rng) < band.hi_mb

    def test_contains(self):
        assert SMALL.contains(25.0)
        assert not SMALL.contains(75.0)

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            SizeBand("bad", 10.0, 5.0)
        with pytest.raises(ValueError):
            SizeBand("bad", 0.0, 5.0)

    def test_band_by_name(self):
        assert band_by_name("medium") is MEDIUM
        with pytest.raises(KeyError):
            band_by_name("huge")

    def test_band_of_clamps_extremes(self):
        assert band_of(0.5) is SMALL
        assert band_of(2000.0) is LARGE
        assert band_of(100.0) is MEDIUM


class TestMixture:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SizeMixture.of(small=0.5, large=0.3)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SizeMixture.of(small=1.5, large=-0.5)

    def test_unknown_band_rejected(self):
        with pytest.raises(ValueError):
            SizeMixture((("gigantic", 1.0),))

    def test_sampling_respects_weights(self, rng):
        mixture = mostly_small()
        bands = [band_of(mixture.sample(rng)).name for _ in range(3000)]
        small_share = bands.count("small") / len(bands)
        assert 0.75 <= small_share <= 0.85

    def test_equal_mixture_is_balanced(self, rng):
        mixture = equal_mixture()
        bands = [mixture.sample_band(rng).name for _ in range(6000)]
        for name in ("small", "medium", "large"):
            assert 0.28 <= bands.count(name) / len(bands) <= 0.38

    def test_custom_share(self, rng):
        mixture = mostly_large(large_share=0.6)
        weights = dict(mixture.weights)
        assert weights["large"] == pytest.approx(0.6)
        assert weights["small"] == pytest.approx(0.2)
