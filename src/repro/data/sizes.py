"""Repository size bands and mixture distributions (Section 6.3.1).

The paper's job configurations draw repository sizes from three bands --
"small, medium or large, ranging between 1MB and 1GB" -- with the
boundaries implied elsewhere in the text: small repositories are
"smaller than 50MB" (Section 4) and large ones "larger than 500MB"
(Section 2).  We therefore use:

* ``SMALL``  : 1 -- 50 MB
* ``MEDIUM`` : 50 -- 500 MB
* ``LARGE``  : 500 -- 1024 MB

A :class:`SizeMixture` is a categorical distribution over bands; sizes
are drawn uniformly within the chosen band.  The three canonical
mixtures used by the workload generators are :func:`equal_mixture`,
:func:`mostly_large` and :func:`mostly_small`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.sim.rng import choice_cdf


@dataclass(frozen=True)
class SizeBand:
    """A contiguous size band ``[lo_mb, hi_mb)``."""

    name: str
    lo_mb: float
    hi_mb: float

    def __post_init__(self) -> None:
        if not 0 < self.lo_mb < self.hi_mb:
            raise ValueError(f"require 0 < lo < hi, got [{self.lo_mb}, {self.hi_mb})")

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one size uniformly from the band."""
        return float(rng.uniform(self.lo_mb, self.hi_mb))

    def contains(self, size_mb: float) -> bool:
        """Whether ``size_mb`` falls in this band."""
        return self.lo_mb <= size_mb < self.hi_mb


SMALL = SizeBand("small", 1.0, 50.0)
MEDIUM = SizeBand("medium", 50.0, 500.0)
LARGE = SizeBand("large", 500.0, 1024.0)

#: All bands in ascending order.
BANDS: tuple[SizeBand, ...] = (SMALL, MEDIUM, LARGE)


@dataclass(frozen=True)
class SizeMixture:
    """A categorical mixture over size bands.

    Parameters
    ----------
    weights:
        Mapping band name -> probability; must sum to 1 (within 1e-9)
        and reference known bands.
    """

    weights: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        names = {band.name for band in BANDS}
        total = 0.0
        for name, weight in self.weights:
            if name not in names:
                raise ValueError(f"unknown band {name!r}")
            if weight < 0:
                raise ValueError(f"negative weight for band {name!r}")
            total += weight
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")

    @classmethod
    def of(cls, **weights: float) -> "SizeMixture":
        """Build from keyword weights: ``SizeMixture.of(small=0.8, large=0.2)``."""
        return cls(tuple(sorted(weights.items())))

    @cached_property
    def _bands(self) -> tuple[np.ndarray, list[SizeBand]]:
        return (
            choice_cdf([weight for _, weight in self.weights]),
            [band_by_name(name) for name, _ in self.weights],
        )

    def sample_band(self, rng: np.random.Generator) -> SizeBand:
        """Draw a band according to the mixture weights."""
        cdf, bands = self._bands
        return bands[int(cdf.searchsorted(rng.random(), side="right"))]

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one size: first a band, then uniform within it."""
        return self.sample_band(rng).sample(rng)


def band_by_name(name: str) -> SizeBand:
    """Look up a canonical band by name."""
    for band in BANDS:
        if band.name == name:
            return band
    raise KeyError(f"unknown band {name!r}")


def band_of(size_mb: float) -> SizeBand:
    """The canonical band containing ``size_mb`` (clamps to extremes)."""
    for band in BANDS:
        if band.contains(size_mb):
            return band
    return LARGE if size_mb >= LARGE.hi_mb else SMALL


def equal_mixture() -> SizeMixture:
    """Equal thirds over small/medium/large ("All_diff_equal")."""
    third = 1.0 / 3.0
    return SizeMixture.of(small=third, medium=third, large=1.0 - 2 * third)


def mostly_large(large_share: float = 0.8) -> SizeMixture:
    """Mostly large repositories (default 80 % large, rest split evenly)."""
    rest = (1.0 - large_share) / 2.0
    return SizeMixture.of(small=rest, medium=rest, large=large_share)


def mostly_small(small_share: float = 0.8) -> SizeMixture:
    """Mostly small repositories (default 80 % small, rest split evenly)."""
    rest = (1.0 - small_share) / 2.0
    return SizeMixture.of(small=small_share, medium=rest, large=rest)
