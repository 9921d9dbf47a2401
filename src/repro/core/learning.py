"""Worker speed models feeding bid estimates.

The paper uses two regimes:

* **Preconfigured speeds** (Section 6.3): "workers were equipped with
  preconfigured speeds upon initiating the workflow.  These speeds were
  used to determine bid values" -- :class:`NominalSpeedModel`.
* **Measured speeds** (Section 6.4): "upon completion of each job,
  workers were tasked with calculating their latest network and
  read/write speeds ... by calculating the historic average for all
  speeds determined for previous jobs" -- :class:`HistoricAverageSpeedModel`.

:class:`EWMASpeedModel` implements the future-work direction of keeping
historic data "to learn from it and adjust their future bids": an
exponentially weighted average adapts faster to sustained speed drift
than the plain historic mean.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.worker import WorkerNode


class SpeedModel(Protocol):
    """What a worker believes its speeds are when constructing a bid."""

    def network_mbps(self, worker: "WorkerNode") -> float:
        """Believed download speed in MB/s."""
        ...

    def rw_mbps(self, worker: "WorkerNode") -> float:
        """Believed read/write (scan) speed in MB/s."""
        ...


class NominalSpeedModel:
    """Preconfigured speeds: the worker trusts its spec (Section 6.3)."""

    def network_mbps(self, worker: "WorkerNode") -> float:
        return worker.spec.network_mbps

    def rw_mbps(self, worker: "WorkerNode") -> float:
        return worker.spec.rw_mbps


class HistoricAverageSpeedModel:
    """Historic average of realised speeds (Section 6.4).

    The machine seeds its sample lists with the nominal speed (the
    paper pre-measures a 100 MB probe repository), so estimates are
    sensible from the very first bid.
    """

    def network_mbps(self, worker: "WorkerNode") -> float:
        return worker.machine.measured_network_mbps

    def rw_mbps(self, worker: "WorkerNode") -> float:
        return worker.machine.measured_rw_mbps


class EWMASpeedModel:
    """Exponentially weighted moving average of realised speeds.

    ``alpha`` is the weight of the newest sample.  Tracks the machine's
    sample lists lazily: each call folds in any samples recorded since
    the previous call, so the model needs no hook into the execution
    path.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._net_value: float | None = None
        self._net_seen = 0
        self._rw_value: float | None = None
        self._rw_seen = 0

    def _fold(self, current: float | None, samples: list[float], seen: int) -> tuple[float, int]:
        value = current
        for sample in samples[seen:]:
            value = sample if value is None else (self.alpha * sample + (1 - self.alpha) * value)
        return float(value), len(samples)  # type: ignore[arg-type]

    def network_mbps(self, worker: "WorkerNode") -> float:
        samples = worker.machine._network_samples
        self._net_value, self._net_seen = self._fold(self._net_value, samples, self._net_seen)
        return self._net_value

    def rw_mbps(self, worker: "WorkerNode") -> float:
        samples = worker.machine._rw_samples
        self._rw_value, self._rw_seen = self._fold(self._rw_value, samples, self._rw_seen)
        return self._rw_value

