"""Point-to-point download links.

Each worker in the paper has its own internet connection with a nominal
download speed; :class:`Link` models such a dedicated connection:

* fixed propagation/setup ``latency`` per transfer (TCP + API handshake),
* a nominal ``bandwidth_mbps``,
* an optional :class:`~repro.net.noise.NoiseModel` perturbing the
  *realised* speed of each transfer (the paper's noise scheme),
* an optional shared upstream :class:`~repro.net.bandwidth.FairSharePipe`
  (the data origin's egress) that additionally caps throughput.

Transfers through a link are serialised: a worker clones one repository
at a time, matching the paper's FIFO job execution.

The link owns every transfer it was asked for, from :meth:`Link.start`
to the last byte: whoever asked may stop listening
(:meth:`Transfer.abandon`), the bytes keep moving, and the next transfer
waits its turn behind them.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.net.bandwidth import FairSharePipe
from repro.net.noise import NoiseModel, NoNoise
from repro.sim.kernel import TimerHandle

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Transfer(TimerHandle):
    """One transfer on a link, and the turn that tells whoever asked.

    ``done(elapsed_s)`` is called on a turn of its own, pushed the
    instant the last byte has moved (behind the grant of the transfer
    that was waiting for the link, if one was).
    """

    __slots__ = ("size_mb", "started_at", "done")

    def __init__(self, size_mb: float, started_at: float, done: Optional[Callable]) -> None:
        super().__init__()
        self.size_mb = size_mb
        self.started_at = started_at
        self.done = done

    def abandon(self) -> None:
        """Nobody waits for this transfer any more.  It still runs to
        its end: it keeps (or takes) the link, draws its noise factor
        and counts into the link's totals."""
        self.done = None
        self.cancel()


class Link:
    """A dedicated, serialised download link with noisy bandwidth.

    One transfer moves at a time; the others wait, foreground ones
    (priority 0, a job's own download) ahead of background ones
    (priority 1, prefetches), first come first served within a level.
    Non-preemptive: the holder finishes before the order is looked at
    again.

    Parameters
    ----------
    sim:
        Owning simulator.
    bandwidth_mbps:
        Nominal download speed in MB/s (the speed the worker *believes*
        it has and uses in bids).
    latency:
        Per-transfer fixed overhead in seconds.
    noise:
        Multiplicative speed perturbation applied per transfer.
    rng:
        Random stream feeding the noise model.
    upstream:
        Optional shared origin pipe; when set, the transfer also consumes
        upstream capacity and finishes when the *slower* of the two paths
        completes (an approximation of the min-rate bottleneck that keeps
        both models composable).
    """

    def __init__(
        self,
        sim: "Simulator",
        bandwidth_mbps: float,
        latency: float = 0.0,
        noise: Optional[NoiseModel] = None,
        rng: Optional[np.random.Generator] = None,
        upstream: Optional[FairSharePipe] = None,
    ) -> None:
        if bandwidth_mbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_mbps}")
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.sim = sim
        self.bandwidth_mbps = float(bandwidth_mbps)
        self.latency = float(latency)
        self.noise = noise or NoNoise()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.upstream = upstream
        #: The transfer that holds the link, and those waiting for it by
        #: priority level.
        self._holder: Optional[Transfer] = None
        self._waiting: tuple[deque, deque] = (deque(), deque())
        #: One re-armed timer walks the holder through grant -> latency
        #: -> flow -> release.
        self._timer = TimerHandle()
        #: With an upstream, which half of the holder's flow is over:
        #: the local timer, and the origin's completion turn.
        self._local_done = False
        self._origin_done = False
        #: Optional ``observer(busy: bool)`` called on 0<->1 occupancy
        #: transitions -- the seam the struct-of-arrays ``link_busy``
        #: plane (:mod:`repro.fleet`) hangs off.
        self.observer = None
        #: Total megabytes moved through this link (for metric cross-checks).
        self.total_mb = 0.0
        #: Total transfers performed.
        self.transfer_count = 0
        #: Realised speed of the most recent transfer (MB/s), for the
        #: measured-speed learning mode of Section 6.4.
        self.last_realised_mbps: Optional[float] = None

    @property
    def busy(self) -> bool:
        """Whether a transfer currently holds (or waits on) the link."""
        return self._holder is not None

    def start(self, size_mb: float, priority: int, done: Optional[Callable]) -> Transfer:
        """Move ``size_mb`` through the link, then call ``done(elapsed_s)``
        (on its own turn; see :class:`Transfer`).

        ``priority`` orders contending transfers: 0 for a job's own
        download, 1 for a background prefetch, so that a job is never
        queued behind prefetches that have not begun.
        """
        if size_mb < 0:
            raise ValueError(f"size must be non-negative, got {size_mb}")
        sim = self.sim
        transfer = Transfer(size_mb, sim.now, done)
        if self._holder is None:
            self._holder = transfer
            if self.observer is not None:
                self.observer(True)
            sim.call_at(sim.now, self._granted, handle=self._timer)
        else:
            self._waiting[priority].append(transfer)
        return transfer

    def _granted(self) -> None:
        self.sim.call_later(self.latency, self._flow, handle=self._timer)

    def _flow(self) -> None:
        """The latency is over: draw this transfer's speed and move the bytes."""
        sim = self.sim
        size_mb = self._holder.size_mb
        factor = self.noise.factor(self.rng, sim.now)
        realised = self.bandwidth_mbps * max(factor, 1e-9)
        if self.upstream is None:
            sim.call_later(size_mb / realised, self._release, handle=self._timer)
        else:
            # Consume shared origin capacity concurrently; the transfer
            # completes only when both the local pipe and the origin
            # have moved the bytes: on the later of the local timer and
            # the origin's completion turn.
            self._local_done = self._origin_done = False
            self.upstream.transfer(size_mb, self._origin_finished)
            sim.call_later(size_mb / realised, self._local_finished, handle=self._timer)

    def _local_finished(self) -> None:
        if self._origin_done:
            self._release()
        else:
            self._local_done = True

    def _origin_finished(self, _elapsed: float) -> None:
        if self._local_done:
            self._release()
        else:
            self._origin_done = True

    def _release(self) -> None:
        sim = self.sim
        transfer = self._holder
        size_mb = transfer.size_mb
        elapsed = sim.now - transfer.started_at
        if elapsed > 0 and size_mb > 0:
            self.last_realised_mbps = size_mb / elapsed
        self.total_mb += size_mb
        self.transfer_count += 1
        foreground, background = self._waiting
        waiting = foreground or background
        if waiting:
            self._holder = waiting.popleft()
            sim.call_at(sim.now, self._granted, handle=self._timer)
        else:
            self._holder = None
            if self.observer is not None:
                self.observer(False)
        if transfer.done is not None:
            sim.call_at(sim.now, transfer.done, elapsed, handle=transfer)
