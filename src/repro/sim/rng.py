"""Deterministic stream-split random number utilities.

Experiments in this repository spawn many stochastic components (one
noise process per worker, one size draw per repository, ...).  To keep
runs reproducible *and* statistically independent, every component
derives its own :class:`numpy.random.Generator` from a master seed plus
a structured key path, via SHA-256.

This mirrors the "stream splitting" discipline common in parallel
simulation: changing one component's draw count never perturbs another
component's stream.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np


def split_seed(seed: int, *keys: Any) -> int:
    """Derive a 64-bit child seed from ``seed`` and a key path.

    The derivation is stable across processes and Python versions (it
    avoids ``hash()``, which is salted).  Keys are stringified, so any
    mix of ints/strings works: ``split_seed(7, "worker", 3)``.
    """
    material = repr(int(seed)) + "\x1f" + "\x1f".join(str(k) for k in keys)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed: int, *keys: Any) -> np.random.Generator:
    """A fresh NumPy generator for the sub-stream named by ``keys``."""
    return np.random.default_rng(split_seed(seed, *keys))


class RandomStreams:
    """Factory handing out independent named random streams.

    >>> streams = RandomStreams(42)
    >>> a = streams.get("noise", "w1")
    >>> b = streams.get("noise", "w2")
    >>> a is streams.get("noise", "w1")   # cached per key path
    True

    Repeated ``get`` calls with the same key return the *same* generator
    object, so a component's stream advances as it draws -- while other
    components' streams are untouched.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: dict[tuple[str, ...], np.random.Generator] = {}

    def get(self, *keys: Any) -> np.random.Generator:
        """Return (and memoise) the generator for this key path."""
        path = tuple(str(k) for k in keys)
        generator = self._streams.get(path)
        if generator is None:
            generator = substream(self.seed, *path)
            self._streams[path] = generator
        return generator

    def fork(self, *keys: Any) -> "RandomStreams":
        """A child factory whose streams are independent of the parent's."""
        return RandomStreams(split_seed(self.seed, "fork", *keys))


def choice_cdf(p) -> np.ndarray:
    """The CDF ``rng.choice(len(p), p=p)`` searches.  Built once,
    ``int(cdf.searchsorted(rng.random(), side="right"))`` then draws the
    index ``choice`` would, from the same one ``rng.random()``, without
    re-checking ``p`` and rebuilding the CDF on every draw."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf
