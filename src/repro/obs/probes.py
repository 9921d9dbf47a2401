"""Periodic time-series probes over live simulation state.

A :class:`ProbeRegistry` samples a set of named gauges on a fixed
sim-time cadence, retaining the last ``retention`` ticks in one ring.
Probes are plain callables reading live state (queue depths, busy
flags, pipe occupancy) -- they never mutate anything, so sampling cannot
perturb the simulation beyond adding timer events, and the whole
registry only exists when observability is enabled
(zero-cost-when-off contract; see :mod:`repro.obs.recorder`).

Hooks write rows, readers build records (ARCHITECTURE.md section 12): a
tick appends one ``(now, row, columns)`` -- ``row`` the numbers as the
gauges returned them, scalar gauges first, then each vector group's
list; ``columns`` each sampled :class:`Probe`'s position in it, one dict
shared by every tick until the set of probes changes.  The per-probe
``(time, float)`` series are views computed when an exporter asks.

The sampling timer uses the kernel's re-armed direct-callback pattern
(same shape as the autoscaler tick): one :class:`TimerHandle` re-armed
from its own callback, so an idle registry costs one heap entry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union


@dataclass(eq=False)
class Probe:
    """One named gauge; its bounded history is a view over the ring."""

    name: str
    unit: str
    fn: Optional[Callable[[], float]]
    ring: deque = field(repr=False)
    #: True when the probe is fed by a vector group's shared gather
    #: (see :meth:`ProbeRegistry.register_vector`) and ``fn`` is unused.
    grouped: bool = False

    @property
    def samples(self) -> list[tuple[float, float]]:
        """``(time, value)`` of every retained tick that sampled this probe."""
        out = []
        layout = column = None
        for now, row, columns in self.ring:
            if columns is not layout:
                layout, column = columns, columns.get(self)
            if column is not None:
                out.append((now, float(row[column])))
        return out

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
        #: One ``(now, row, columns)`` per retained tick, and the layout
        #: of the next one (see :meth:`_relayout`).
        self._ring: deque = deque(maxlen=retention)
        self._scalars: list[Callable[[], float]] = []
        self._columns: dict[Probe, int] = {}
        self._timer = None
        self._stopped = False

    def register(self, name: str, fn: Callable[[], float], unit: str = "") -> Probe:
        """Add a gauge; re-registering a name replaces its callable but
        keeps the history (worker restarts re-register their probes)."""
        probe = self.probes.get(name)
        if probe is None:
            probe = self.probes[name] = Probe(name, unit, fn, self._ring)
        else:
            probe.fn = fn
        self._relayout()
        return probe

    def register_vector(
        self,
        names: list[str],
        fn: Callable[[], object],
        unit: Union[str, Sequence[str]] = "",
    ) -> list[Probe]:
        """Add a *group* of gauges fed by one shared gather.

        ``fn`` returns one number per name, in order (``unit``: one
        string for all, or one per name); each sample tick calls it once
        and its list goes into the row as it is.  The members live in
        :attr:`probes` like any other probe (exporters see them
        unchanged) but are skipped by the scalar sampling loop; one that
        an older group fed is fed by this one from now on.  This is the
        struct-of-arrays fast path for fleet gauges: one vectorised
        array read replaces a per-worker Python walk.
        """
        units = [unit] * len(names) if isinstance(unit, str) else list(unit)
        members: list[Probe] = []
        for i, name in enumerate(names):
            probe = self.probes.get(name)
            if probe is None:
                probe = self.probes[name] = Probe(name, units[i], None, self._ring)
            probe.grouped = True
            members.append(probe)
        self._groups.append((members, fn))
        self._relayout()
        return members

    def unregister(self, name: str) -> None:
        self.probes.pop(name, None)
        self._relayout()

    def _relayout(self) -> None:
        """The layout of the rows from now on: scalar gauges in
        registration order, then each group's members."""
        scalars = [probe for probe in self.probes.values() if not probe.grouped]
        self._scalars = [probe.fn for probe in scalars]
        order = scalars + [probe for members, _ in self._groups for probe in members]
        # (A probe in two groups keeps the later position.)
        self._columns = {probe: column for column, probe in enumerate(order)}

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
        row = [fn() for fn in self._scalars]
        for members, fn in self._groups:
            values = fn()
            if len(values) != len(members):
                raise ValueError(f"{len(values)} values for {len(members)} names")
            row.extend(values)
        self._ring.append((now, row, self._columns))

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
        return self.probes[name].samples

    def __iter__(self) -> Iterable[Probe]:
        return iter(self.probes.values())

    def __len__(self) -> int:
        return len(self.probes)


def busy_fraction(samples: Iterable[tuple[float, float]]) -> Optional[float]:
    """Mean of a 0/1 busy gauge -- the worker's sampled busy fraction."""
    values = [value for _, value in samples]
    if not values:
        return None
    return sum(values) / len(values)


__all__ = ["Probe", "ProbeRegistry", "busy_fraction"]
