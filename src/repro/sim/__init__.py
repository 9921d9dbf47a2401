"""Discrete-event simulation kernel.

A small, from-scratch, SimPy-flavoured discrete-event simulation (DES)
kernel.  It provides:

* :class:`~repro.sim.kernel.Simulator` -- the event loop and clock,
  with :meth:`~repro.sim.kernel.Simulator.call_at` /
  :meth:`~repro.sim.kernel.Simulator.call_later` direct-callback timers
  (:class:`~repro.sim.kernel.TimerHandle`) for hot internal timers that
  need no Event/Process machinery,
* :class:`~repro.sim.events.Event` and friends -- one-shot triggerable
  events with callbacks, plus :class:`~repro.sim.events.Timeout` and the
  :class:`~repro.sim.events.AnyOf` condition event,
* :class:`~repro.sim.process.Process` -- generator-based cooperative
  processes that ``yield`` events to wait on them, with interrupt support,
* queueing primitives in :mod:`repro.sim.resources` --
  :class:`~repro.sim.resources.Store` and
  :class:`~repro.sim.resources.PriorityResource`,
* deterministic stream-split random number utilities in
  :mod:`repro.sim.rng`.

The kernel is deliberately free of any domain knowledge: the network,
cluster and scheduler models in the rest of :mod:`repro` are ordinary
processes layered on top of it.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def proc(sim):
...     yield sim.timeout(2.0)
...     log.append(sim.now)
>>> _ = sim.process(proc(sim))
>>> sim.run()
>>> log
[2.0]
"""

from repro.sim.events import AnyOf, Event, EventFailed, Timeout
from repro.sim.kernel import Simulator, StopSimulation, TimerHandle
from repro.sim.process import Interrupt, Process
from repro.sim.resources import Store
from repro.sim.rng import RandomStreams, split_seed, substream

__all__ = [
    "AnyOf",
    "Event",
    "EventFailed",
    "Interrupt",
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
