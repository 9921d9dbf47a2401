"""Discrete-event simulation kernel.

A small, from-scratch, SimPy-flavoured discrete-event simulation (DES)
kernel.  It provides:

* :class:`~repro.sim.kernel.Simulator` -- the event loop and clock,
  with :meth:`~repro.sim.kernel.Simulator.call_soon` /
  :meth:`~repro.sim.kernel.Simulator.call_at` /
  :meth:`~repro.sim.kernel.Simulator.call_later` direct-callback timers
  (:class:`~repro.sim.kernel.TimerHandle`): the one way the model says
  "later" -- every node, policy, fault and reconfiguration is a
  callback state machine on them,
* :class:`~repro.sim.events.Event` and :class:`~repro.sim.events.Timeout`
  -- one-shot triggerable events with callbacks,
* :class:`~repro.sim.process.Process` -- generator-based cooperative
  processes that ``yield`` events to wait on them, and the
  :class:`~repro.sim.resources.Store` FIFO they can wait on; the kernel
  micro-benchmarks and owner-less broker subscriptions use them,
* deterministic stream-split random number utilities in
  :mod:`repro.sim.rng`.

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

from repro.sim.events import Event, EventFailed, Timeout
from repro.sim.kernel import Simulator, StopSimulation, TimerHandle
from repro.sim.process import Process
from repro.sim.resources import Store
from repro.sim.rng import RandomStreams, split_seed, substream

__all__ = [
    "Event",
    "EventFailed",
    "Process",
    "RandomStreams",
    "Simulator",
    "StopSimulation",
    "Store",
    "Timeout",
    "TimerHandle",
    "split_seed",
    "substream",
]
