"""Open-loop arrival processes for the service layer.

A closed-loop experiment (:class:`~repro.host.WorkflowRuntime`)
fixes the job list upfront; an open-loop *service* faces an unbounded
stream whose intensity it does not control.  Each
:class:`ArrivalProcess` here generates an increasing sequence of
absolute arrival times (simulated seconds); the service runtime mints
and offers one job per tick until its configured duration elapses.

Four processes cover the regimes the stream-processing literature
stresses (Eidenbenz & Locher; Madsen et al.):

* :class:`PoissonArrivals` -- memoryless constant-rate traffic,
* :class:`DiurnalArrivals` -- nonhomogeneous Poisson with sinusoidal
  day/night modulation (generated by Lewis-Shedler thinning),
* :class:`BurstArrivals` -- Poisson background plus periodic
  simultaneous batches (flash crowds),
* :class:`TraceArrivals` -- replay of recorded timestamps.

All draws come from the generator the caller passes in, so a service
seed reproduces the arrival sequence exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np


class ArrivalProcess:
    """Base: an iterator of increasing absolute arrival times."""

    #: Registry name (set by subclasses).
    kind = "abstract"

    def times(self, rng: np.random.Generator) -> Iterator[float]:
        """Yield absolute arrival times (seconds), non-decreasing.

        Infinite for the synthetic processes; finite for trace replay.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate`` jobs/second."""

    rate: float

    kind = "poisson"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def times(self, rng: np.random.Generator) -> Iterator[float]:
        at = 0.0
        while True:
            at += float(rng.exponential(1.0 / self.rate))
            yield at


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Nonhomogeneous Poisson with intensity
    ``rate * (1 + amplitude * sin(2 pi t / period_s))``.

    Generated by thinning: candidates are drawn at the peak intensity
    and accepted with probability ``lambda(t) / lambda_max``, the
    standard Lewis-Shedler construction.
    """

    rate: float
    amplitude: float = 0.5
    period_s: float = 240.0

    kind = "diurnal"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if not 0 <= self.amplitude < 1:
            raise ValueError("amplitude must be in [0, 1)")
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")

    def intensity(self, t: float) -> float:
        """The instantaneous rate lambda(t)."""
        return self.rate * (1.0 + self.amplitude * math.sin(2 * math.pi * t / self.period_s))

    def times(self, rng: np.random.Generator) -> Iterator[float]:
        lam_max = self.rate * (1.0 + self.amplitude)
        at = 0.0
        while True:
            at += float(rng.exponential(1.0 / lam_max))
            if float(rng.random()) < self.intensity(at) / lam_max:
                yield at


@dataclass(frozen=True)
class BurstArrivals(ArrivalProcess):
    """Poisson background traffic plus a burst of ``burst_size``
    simultaneous arrivals every ``burst_every_s`` seconds.

    The two components are merged in time order; a burst delivers all
    its jobs at the same instant (the admission queue's cap is what
    stands between such a flash crowd and the scheduler).
    """

    rate: float
    burst_size: int = 10
    burst_every_s: float = 60.0

    kind = "burst"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.burst_size < 1:
            raise ValueError("burst_size must be positive")
        if self.burst_every_s <= 0:
            raise ValueError("burst_every_s must be positive")

    def times(self, rng: np.random.Generator) -> Iterator[float]:
        next_background = float(rng.exponential(1.0 / self.rate))
        next_burst = self.burst_every_s
        while True:
            if next_background <= next_burst:
                yield next_background
                next_background += float(rng.exponential(1.0 / self.rate))
            else:
                for _ in range(self.burst_size):
                    yield next_burst
                next_burst += self.burst_every_s


@dataclass(frozen=True)
class TraceArrivals(ArrivalProcess):
    """Replay recorded arrival timestamps, optionally time-scaled.

    ``time_scale > 1`` stretches the trace (lighter load), ``< 1``
    compresses it (heavier load) -- the standard trace-acceleration
    knob for stress testing.
    """

    at: tuple[float, ...]
    time_scale: float = 1.0

    kind = "trace"

    def __post_init__(self) -> None:
        if not self.at:
            raise ValueError("trace must contain at least one arrival")
        if any(t < 0 for t in self.at):
            raise ValueError("trace times must be non-negative")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")

    def times(self, rng: np.random.Generator) -> Iterator[float]:
        for t in sorted(self.at):
            yield t * self.time_scale


#: Registry for the CLI: name -> constructor taking CLI-shaped kwargs.
ARRIVAL_KINDS: dict[str, type] = {
    "poisson": PoissonArrivals,
    "diurnal": DiurnalArrivals,
    "burst": BurstArrivals,
    "trace": TraceArrivals,
}


def make_arrivals(kind: str, **kwargs: object) -> ArrivalProcess:
    """Construct an arrival process by registry name.

    Unknown names raise ``KeyError`` listing the valid choices; invalid
    keyword arguments propagate from the specific constructor.
    """
    try:
        cls = ARRIVAL_KINDS[kind]
    except KeyError:
        valid = ", ".join(sorted(ARRIVAL_KINDS))
        raise KeyError(f"unknown arrival process {kind!r}; valid: {valid}") from None
    return cls(**kwargs)
