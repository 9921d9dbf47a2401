"""The dynamic machine behind a worker node.

A :class:`Machine` realises a :class:`~repro.cluster.worker_spec.WorkerSpec`
inside the simulation: it performs downloads through a private
:class:`~repro.net.link.Link` and processing at the spec's read/write
speed, both perturbed by the run's noise model so that realised times
differ from nominal estimates (Section 6.3.1's noise scheme).

It also keeps the speed *measurements* used by the non-simulated mode of
Section 6.4: "upon completion of each job, workers were tasked with
calculating their latest network and read/write speeds ... by
calculating the historic average for all speeds determined for previous
jobs".  :attr:`measured_network_mbps` and :attr:`measured_rw_mbps`
expose those historic averages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.cluster.worker_spec import WorkerSpec
from repro.net.bandwidth import FairSharePipe
from repro.net.link import Link, Transfer
from repro.net.noise import NoiseModel, NoNoise
from repro.sim.kernel import TimerHandle

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Machine:
    """Simulated execution hardware for one worker.

    Parameters
    ----------
    sim:
        Owning simulator.
    spec:
        The worker's static description.
    network_noise / rw_noise:
        Multiplicative perturbations of the realised network and
        read/write speeds (independent models, as congestion and disk
        contention are unrelated).
    rng:
        Random stream feeding both noise models.
    upstream:
        Optional shared data-origin pipe contended by all workers.
    """

    def __init__(
        self,
        sim: "Simulator",
        spec: WorkerSpec,
        network_noise: Optional[NoiseModel] = None,
        rw_noise: Optional[NoiseModel] = None,
        rng: Optional[np.random.Generator] = None,
        upstream: Optional[FairSharePipe] = None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.rw_noise = rw_noise or NoNoise()
        self.link = Link(
            sim,
            bandwidth_mbps=spec.network_mbps,
            latency=spec.link_latency,
            noise=network_noise or NoNoise(),
            rng=self.rng,
            upstream=upstream,
        )
        # Historic speed measurements (Section 6.4): seeded with the
        # nominal speeds, as the paper pre-measures a 100 MB probe
        # repository before the first job.
        self._network_samples: list[float] = [spec.network_mbps]
        self._rw_samples: list[float] = [spec.rw_mbps]
        #: Cumulative busy seconds (downloading + processing), for
        #: utilisation reporting.
        self.busy_seconds = 0.0

    # -- measured speeds (learning mode) ----------------------------------

    @property
    def measured_network_mbps(self) -> float:
        """Historic average of realised download speeds."""
        return float(np.mean(self._network_samples))

    @property
    def measured_rw_mbps(self) -> float:
        """Historic average of realised read/write speeds."""
        return float(np.mean(self._rw_samples))

    def record_network_sample(self, mbps: float) -> None:
        """Record one realised download speed measurement."""
        if mbps <= 0:
            raise ValueError("measured speed must be positive")
        self._network_samples.append(mbps)

    def record_rw_sample(self, mbps: float) -> None:
        """Record one realised read/write speed measurement."""
        if mbps <= 0:
            raise ValueError("measured speed must be positive")
        self._rw_samples.append(mbps)

    # -- execution ---------------------------------------------------------

    def download(self, size_mb: float, priority: int, done: Callable) -> Transfer:
        """Clone ``size_mb`` through the worker's link, then call
        ``done(elapsed_s)``.

        ``priority`` forwards to the link (0 = foreground job download,
        1 = background prefetch).  Busy time and the network speed
        sample are recorded on ``done``'s turn; abandon the returned
        transfer and neither is.
        """

        def finished(elapsed: float) -> None:
            self.busy_seconds += elapsed
            if elapsed > 0 and size_mb > 0:
                self.record_network_sample(size_mb / elapsed)
            done(elapsed)

        return self.link.start(size_mb, priority, finished)

    def process(
        self,
        size_mb: float,
        base_compute_s: float,
        done: Callable,
        handle: Optional[TimerHandle] = None,
    ) -> TimerHandle:
        """Scan ``size_mb`` of local data plus fixed compute, then call
        ``done(duration_s)``; the timer (``handle`` re-armed, if given)
        is returned, and cancelling it abandons the work.

        Realised scan speed is the nominal ``rw_mbps`` times a noise
        factor; fixed compute scales with the CPU factor.  Busy time
        and the read/write speed sample are recorded when it ends.
        """
        if size_mb < 0:
            raise ValueError("size_mb must be non-negative")
        if base_compute_s < 0:
            raise ValueError("base_compute_s must be non-negative")
        sim = self.sim
        start = sim.now
        factor = self.rw_noise.factor(self.rng, start)
        realised_rw = self.spec.rw_mbps * max(factor, 1e-9)
        duration = base_compute_s / self.spec.cpu_factor + size_mb / realised_rw

        def finished() -> None:
            self.busy_seconds += sim.now - start
            if size_mb > 0 and duration > 0:
                self.record_rw_sample(size_mb / duration)
            done(duration)

        return sim.call_later(duration, finished, handle=handle)
