"""Fair-share (processor-sharing) bandwidth pools.

:class:`FairSharePipe` models a pipe of fixed capacity shared equally
among all in-flight transfers: with ``n`` concurrent transfers each
progresses at ``capacity / n``.  When a transfer starts or finishes, the
remaining work of every other transfer is settled at the old rate and
completion times are re-derived at the new rate -- the classic
processor-sharing fluid model.

This is used for contended pipes (e.g. the shared egress of the
simulated GitHub origin in the ablation experiments).  Dedicated
per-worker links use :class:`repro.net.link.Link`, which wraps a private
pipe of capacity 1 transfer.

Every completed transfer is emitted on the run's ``transfer_complete``
seam and every occupancy change on ``pipe_sample`` (:mod:`repro.hooks`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.hooks import Hooks
from repro.sim.kernel import TimerHandle

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class _Transfer:
    """Book-keeping for one in-flight transfer.

    Residual megabytes live in the pipe's parallel ``_rem`` array (same
    index as the transfer's slot in ``_active``) so the per-event drain
    is one vectorised subtraction rather than a Python loop.
    """

    __slots__ = ("size_mb", "done", "started_at")

    def __init__(self, size_mb: float, done: Callable[[float], None], now: float) -> None:
        self.size_mb = size_mb
        self.done = done
        self.started_at = now


class FairSharePipe:
    """A shared pipe with equal-share bandwidth allocation.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity_mbps:
        Total pipe capacity in megabytes per second, shared equally
        among in-flight transfers.
    label:
        The name this pipe's occupancy series is filed under.
    hooks:
        The run's observer seams (see :mod:`repro.hooks`).
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity_mbps: float,
        label: str = "pipe",
        hooks: Optional[Hooks] = None,
    ) -> None:
        if capacity_mbps <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_mbps}")
        self.sim = sim
        self.capacity_mbps = float(capacity_mbps)
        self._active: list[_Transfer] = []
        #: Residual MB of each in-flight transfer: the first
        #: ``len(_active)`` slots of a preallocated buffer (amortised
        #: doubling, compacted in place on completion -- no per-event
        #: ``np.append``/``np.delete`` reallocations).  float64
        #: arithmetic is bit-identical to Python-float arithmetic (both
        #: IEEE 754 double), so vectorising the drain preserves the
        #: fixed-seed determinism contract exactly.
        self._rem: np.ndarray = np.zeros(8, dtype=np.float64)
        self._last_settle = sim.now
        #: One re-armed completion timer for the whole pipe.  Every
        #: transfer start/finish re-settles the fluid model and re-arms
        #: this handle in place -- one timer for the pipe, not one per
        #: transfer.
        self._timer = TimerHandle()
        self.label = label
        self.hooks = hooks if hooks is not None else Hooks()

    # -- public API ------------------------------------------------------

    @property
    def active_count(self) -> int:
        """Number of transfers currently in flight."""
        return len(self._active)

    def transfer(self, size_mb: float, done: Callable[[float], None]) -> None:
        """Start a transfer of ``size_mb``; ``done(elapsed_s)`` is called
        on a NORMAL turn of the instant the last byte has moved.

        Zero-sized transfers complete at once: their turn is pushed now.
        """
        if size_mb < 0:
            raise ValueError(f"size must be non-negative, got {size_mb}")
        if size_mb == 0:
            self.sim.call_soon(done, 0.0, urgent=False)
            return
        # Drain in-flight progress *before* appending, so the new
        # transfer is excluded from the elapsed interval.
        self._settle()
        self._active.append(_Transfer(size_mb, done, self.sim.now))
        count = len(self._active)
        if count > self._rem.shape[0]:
            fresh = np.zeros(max(count, self._rem.shape[0] * 2), dtype=np.float64)
            fresh[: count - 1] = self._rem[: count - 1]
            self._rem = fresh
        self._rem[count - 1] = size_mb
        for hook in self.hooks.pipe_sample:
            hook(self.label, len(self._active), self.sim.now)
        self._reschedule()

    # -- fluid-model internals -------------------------------------------

    def _settle(self) -> None:
        """Advance every in-flight transfer's progress to ``sim.now``.

        One vectorised subtract + clamp over the residual array; the
        float64 ops are bit-identical to the per-transfer Python-float
        arithmetic they replace.  Completion is handled in
        :meth:`_reschedule`.
        """
        now = self.sim.now
        elapsed = now - self._last_settle
        self._last_settle = now
        if elapsed <= 0 or not self._active:
            return
        rate = self.capacity_mbps / len(self._active)
        rem = self._rem[: len(self._active)]
        rem -= rate * elapsed
        # Guard against float drift: clamp negatives to zero.
        np.maximum(rem, 0.0, out=rem)

    def _reschedule(self) -> None:
        """Complete drained transfers and (re)arm the next-completion timer.

        Finished transfers complete in start order (the residual array is
        kept in start order, preserving the pre-existing tie-break);
        re-arming the single :class:`~repro.sim.kernel.TimerHandle`
        lazily invalidates the previously armed occurrence.
        """
        active = self._active
        now = self.sim.now
        while True:
            rem = self._rem[: len(active)]
            finished_idx = np.nonzero(rem <= 1e-12)[0]
            if len(finished_idx):
                for i in finished_idx:
                    transfer = active[i]
                    elapsed = now - transfer.started_at
                    for hook in self.hooks.transfer_complete:
                        hook(self.capacity_mbps, transfer.size_mb, elapsed, now)
                    self.sim.call_soon(transfer.done, elapsed, urgent=False)
                # Deleting list slots back-to-front keeps surviving
                # indices aligned with the compacted residual array.
                for i in finished_idx[::-1]:
                    del active[i]
                # Compact survivors to the front of the buffer in place
                # (the fancy index copies before the assignment reads,
                # so the overlapping write is safe) -- same survivor
                # order np.delete produced, without the reallocation.
                keep = np.ones(rem.shape[0], dtype=bool)
                keep[finished_idx] = False
                self._rem[: len(active)] = rem[keep]
                rem = self._rem[: len(active)]
                for hook in self.hooks.pipe_sample:
                    hook(self.label, len(active), now)
            if not active:
                self._timer.cancel()
                return
            min_remaining = float(rem.min())
            rate = self.capacity_mbps / len(active)
            next_completion = min_remaining / rate
            when = now + next_completion
            if when > now:
                break
            # The residual is below the clock's float resolution at this
            # absolute time: the timer could never advance the clock and
            # would spin forever.  Finish the nearest transfer(s) now.
            rem[rem <= min_remaining * (1.0 + 1e-9)] = 0.0
        self.sim.call_at(when, self._on_timer, handle=self._timer)

    def _on_timer(self) -> None:
        self._settle()
        self._reschedule()
