"""Reference oracle: the per-probe sample deques, kept in tests only.

This is ``repro.obs.probes`` as it stood before the registry became one
ring of rows: every :class:`Probe` owns a ``deque(maxlen=retention)`` of
``(time, value)`` tuples and each tick appends one tuple per probe.  The
classes are moved verbatim (only ``busy_fraction``, which never changed,
is left behind).  Slow and obviously right -- which is its whole job:
``test_obs_probes.py`` drives it and the ring through one script and
demands equal names, series, values, times and units.

One quirk of the original is steered around rather than mirrored:
registering a *vector* group again under the same names appended a
second group beside the first, so every member took two samples per
tick from then on.  The ring lets the newer group replace the older
one; the script never re-registers a vector name.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass
class Probe:
    """One named gauge plus its bounded sample history."""

    name: str
    unit: str
    fn: Callable[[], float]
    samples: deque = field(default_factory=deque)
    #: True when the probe is fed by a vector group's shared gather
    #: (see :meth:`ProbeRegistry.register_vector`); its ``fn`` is then a
    #: positional fallback only used if the group is torn down.
    grouped: bool = False

    def values(self) -> list[float]:
        return [value for _, value in self.samples]

    def times(self) -> list[float]:
        return [time for time, _ in self.samples]


class ProbeRegistry:
    """Samples registered probes every ``interval_s`` of sim time."""

    def __init__(self, sim, interval_s: float = 1.0, retention: int = 4096):
        if interval_s <= 0:
            raise ValueError("probe interval must be positive")
        if retention < 1:
            raise ValueError("retention must be positive")
        self.sim = sim
        self.interval_s = interval_s
        self.retention = retention
        self.probes: dict[str, Probe] = {}
        #: Vector groups: (member probes, gather fn) pairs sampled with
        #: one call producing all member values (see :meth:`register_vector`).
        self._groups: list[tuple[list[Probe], Callable[[], object]]] = []
        self._timer = None
        self._stopped = False

    def register(self, name: str, fn: Callable[[], float], unit: str = "") -> Probe:
        """Add a gauge; re-registering a name replaces its callable but
        keeps the history (worker restarts re-register their probes)."""
        existing = self.probes.get(name)
        if existing is not None:
            existing.fn = fn
            return existing
        probe = Probe(name, unit, fn, deque(maxlen=self.retention))
        self.probes[name] = probe
        return probe

    def register_vector(
        self, names: list[str], fn: Callable[[], object], unit: str = ""
    ) -> list[Probe]:
        """Add a *group* of gauges fed by one shared gather.

        ``fn`` returns a sequence of values, one per name in order; each
        sample tick calls it once and fans the result out to the member
        probes.  The members live in :attr:`probes` like any other probe
        (exporters see them unchanged) but are skipped by the scalar
        sampling loop.  This is the struct-of-arrays fast path for
        per-worker gauges: one vectorised array read replaces a
        per-worker Python walk.
        """
        members: list[Probe] = []
        for i, name in enumerate(names):
            probe = self.probes.get(name)
            if probe is None:
                probe = Probe(
                    name,
                    unit,
                    lambda fn=fn, i=i: float(fn()[i]),
                    deque(maxlen=self.retention),
                )
                self.probes[name] = probe
            probe.grouped = True
            members.append(probe)
        self._groups.append((members, fn))
        return members

    def unregister(self, name: str) -> None:
        self.probes.pop(name, None)

    def start(self) -> None:
        """Arm the sampling timer (idempotent)."""
        if self._timer is not None:
            return
        from repro.sim.kernel import TimerHandle

        self._timer = TimerHandle()
        # Sample once at t=0 so every series has an initial point.
        self._tick()

    def stop(self) -> None:
        """Stop future sampling (pending timer fires become no-ops)."""
        self._stopped = True

    def _sample(self, now: float) -> None:
        for probe in self.probes.values():
            if not probe.grouped:
                probe.samples.append((now, float(probe.fn())))
        for members, fn in self._groups:
            values = fn()
            for probe, value in zip(members, values):
                probe.samples.append((now, float(value)))

    def _tick(self) -> None:
        if self._stopped:
            return
        self._sample(self.sim.now)
        self.sim.call_later(self.interval_s, self._tick, handle=self._timer)

    def sample_once(self) -> None:
        """Take one immediate sample outside the cadence (e.g. at run end)."""
        self._sample(self.sim.now)

    def names(self) -> list[str]:
        return sorted(self.probes)

    def series(self, name: str) -> list[tuple[float, float]]:
        return list(self.probes[name].samples)

    def __iter__(self) -> Iterable[Probe]:
        return iter(self.probes.values())

    def __len__(self) -> int:
        return len(self.probes)
