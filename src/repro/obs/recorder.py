"""Run-scoped observability state: config, recorder, live hooks.

:class:`ObsConfig` is the user-facing knob block, normalised by
:func:`as_obs_config` exactly like ``repro.check``'s config: the engine
accepts ``obs=True`` / ``False`` / ``ObsConfig(...)``, and the host
builds an :class:`ObsRecorder` only when it is on.

:class:`ObsRecorder` is a subscriber on the run's observer seams
(:mod:`repro.hooks`): the host subscribes it, and its decision ledger,
to the one table the master, workers, broker and pipes emit on -- in
an unobserved run the seams only it watches are empty tuples.  It owns

* the :class:`~repro.obs.probes.ProbeRegistry` (time-series gauges),
* broker *flow* records -- publish -> deliver pairs per message, giving
  messaging latency tracks in the Perfetto export (``publish`` and
  ``deliver`` seams),
* bandwidth-pipe occupancy step series, exact, not sampled
  (``pipe_sample``),
* the :class:`~repro.obs.ledger.DecisionLedger`, which the host
  subscribes to the ``assigned`` seam itself.

Everything here is read-only with respect to the simulation: the
recorder never mutates engine state and draws no randomness, so metrics
from an observed run are bit-identical to an unobserved one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from repro.obs.ledger import DecisionLedger
from repro.obs.probes import ProbeRegistry


@dataclass(frozen=True)
class ObsConfig:
    """Observability knobs (all bounded; defaults suit full-cell runs)."""

    #: Sim-time seconds between probe samples.
    probe_interval_s: float = 1.0
    #: Ring-buffer length: probe ticks, flows, pipe steps, unpaired publishes.
    retention: int = 4096
    #: Record broker publish->deliver flow pairs (off for huge runs).
    flows: bool = True
    #: Record a :class:`~repro.obs.ledger.DecisionRecord` per allocation
    #: (observation-only; see :mod:`repro.obs.ledger`).
    ledger: bool = True

    def __post_init__(self) -> None:
        if self.probe_interval_s <= 0:
            raise ValueError("probe_interval_s must be positive")
        if self.retention < 1:
            raise ValueError("retention must be positive")


def as_obs_config(value: object) -> Optional[ObsConfig]:
    """Normalise ``EngineConfig.obs``: None/False -> None, True -> defaults."""
    if value is None or value is False:
        return None
    if value is True:
        return ObsConfig()
    if isinstance(value, ObsConfig):
        return value
    raise TypeError(f"obs must be bool or ObsConfig, got {type(value).__name__}")


@dataclass(frozen=True)
class FlowRecord:
    """One broker publish -> deliver pair."""

    topic: str
    message: str
    key: str
    published_at: float
    delivered_at: float
    receiver: str


class ObsRecorder:
    """Live observability state for one run (exists only when obs is on)."""

    def __init__(self, sim, config: ObsConfig):
        self.sim = sim
        self.config = config
        self.probes = ProbeRegistry(
            sim, interval_s=config.probe_interval_s, retention=config.retention
        )
        #: Completed publish->deliver pairs as tuples in
        #: :class:`FlowRecord` field order (bounded ring; see ``flows``).
        self._flow_rows: deque = deque(maxlen=config.retention)
        #: (topic, message type, key) -> publish time, for pairing; the
        #: oldest goes past ``retention`` (a publish lost or never
        #: subscribed to would otherwise stay for the life of the run).
        self._inflight: dict[tuple[str, str, str], float] = {}
        #: message type -> (its name, getter of the key attribute it has).
        self._flow_types: dict[type, tuple] = {}
        #: Pipe occupancy step series: (time, active_count) per pipe label.
        self.pipe_steps: dict[str, deque] = {}
        #: Per-allocation decision records (None when the knob is off).
        self.ledger = DecisionLedger() if config.ledger else None

    # -- broker flows --------------------------------------------------
    @property
    def flows(self) -> list[FlowRecord]:
        """The retained publish -> deliver pairs, oldest first."""
        return [FlowRecord(*row) for row in self._flow_rows]

    @staticmethod
    def _flow_key(message) -> str:
        job_id = getattr(message, "job_id", None)
        if job_id is None:
            job = getattr(message, "job", None)
            job_id = getattr(job, "job_id", None)
        if job_id is None:
            job_id = getattr(message, "worker", None) or ""
        return str(job_id)

    def _pair_key(self, topic: str, message) -> tuple[str, str, str]:
        """``(topic, type name, _flow_key(message))``; which attribute of
        that chain a type has is found once per type, and anything but a
        string there takes the whole chain."""
        cls = type(message)
        known = self._flow_types.get(cls)
        if known is None:
            attr = next((a for a in ("job_id", "job", "worker") if hasattr(message, a)), "worker")
            getter = attrgetter("job.job_id" if attr == "job" else attr)
            known = self._flow_types[cls] = (cls.__name__, getter)
        try:
            key = known[1](message)
        except AttributeError:
            key = None
        return topic, known[0], key if type(key) is str else self._flow_key(message)

    def on_publish(self, topic: str, message, sender: Optional[str], now: float) -> None:
        if not self.config.flows:
            return
        inflight = self._inflight
        # Last-writer-wins is fine: redeliveries of the same logical
        # message re-key to the newest publish, which is the pair a
        # latency track should show.
        inflight[self._pair_key(topic, message)] = now
        if len(inflight) > self.config.retention:
            del inflight[next(iter(inflight))]

    def on_deliver(self, topic: str, receiver: str, message, now: float) -> None:
        if not self.config.flows:
            return
        key = self._pair_key(topic, message)
        published_at = self._inflight.pop(key, None)
        if published_at is not None:
            self._flow_rows.append((*key, published_at, now, receiver))

    # -- pipe occupancy ------------------------------------------------
    def on_pipe_sample(self, label: str, active: int, now: float) -> None:
        steps = self.pipe_steps.get(label)
        if steps is None:
            steps = deque(maxlen=self.config.retention)
            self.pipe_steps[label] = steps
        steps.append((now, active))

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self.probes.start()

    def finish(self) -> None:
        """Final sample so series extend to the end of the run."""
        self.probes.stop()
        self.probes.sample_once()


__all__ = ["FlowRecord", "ObsConfig", "ObsRecorder", "as_obs_config"]
