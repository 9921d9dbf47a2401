"""Discrete-event simulation kernel.

A small, from-scratch discrete-event simulation (DES) kernel.  It
provides:

* :class:`~repro.sim.kernel.Simulator` -- the event loop and clock,
  with :meth:`~repro.sim.kernel.Simulator.call_soon` /
  :meth:`~repro.sim.kernel.Simulator.call_at` /
  :meth:`~repro.sim.kernel.Simulator.call_later` direct-callback timers
  (:class:`~repro.sim.kernel.TimerHandle`): the one way the model says
  "later", and the only kind of entry on the kernel's heap -- every
  node, policy, fault and reconfiguration is a callback state machine
  on them,
* deterministic stream-split random number utilities in
  :mod:`repro.sim.rng`.

There are no events to wait on and no generator processes: the
SimPy-style layer (``Event``, ``Timeout``, ``Process``, ``Store``) that
the generator reference implementations under ``tests/`` still run on
lives in ``tests/reference_sim.py``, built on the timer API alone.

The kernel is deliberately free of any domain knowledge: the network,
cluster and scheduler models in the rest of :mod:`repro` are layered
on top of it.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> _ = sim.call_later(2.0, lambda: log.append(sim.now))
>>> sim.run()
>>> log
[2.0]
"""

from repro.sim.kernel import Simulator, StopSimulation, TimerHandle
from repro.sim.rng import RandomStreams, split_seed, substream

__all__ = [
    "RandomStreams",
    "Simulator",
    "StopSimulation",
    "TimerHandle",
    "split_seed",
    "substream",
]
