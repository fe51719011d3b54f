"""Fault injection into the packet-level simulator.

The packet engine is event driven, so a schedule is injected by
pre-registering one ``schedule_at`` callback per fault event on the
network's event loop.  When a callback fires it folds
the event into a :class:`~repro.faults.model.HealthState`, pushes every
changed per-port capacity factor into the matching
:class:`~repro.phynet.port.OutputPort` via
:meth:`~repro.phynet.port.OutputPort.set_fault_factor`, and emits a
``fault.inject`` trace event.

The fluid simulator does *not* use this class -- it walks the
schedule's events with an index folded into its own next-event search
(see :class:`repro.flowsim.sim.ClusterSim`).
"""

from __future__ import annotations

from typing import Optional

from repro.faults.model import HealthState
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.obs.events import FaultInjected

__all__ = ["NetworkFaultInjector"]


class NetworkFaultInjector:
    """Replays a :class:`FaultSchedule` against a ``PacketNetwork``.

    Construct it *before* running the simulation: every event is
    pre-scheduled on the network's event loop at construction time, and
    :meth:`~repro.core.engine.EventEngine.schedule_at` raises
    ``ValueError`` for an event earlier than the loop's current time, so
    an injector cannot be attached to a run already past its schedule's
    first event.
    """

    def __init__(self, network, schedule: FaultSchedule):
        self.network = network
        self.schedule = schedule
        self.tracer = network.tracer
        self.health = HealthState(network.topology)
        #: Number of events applied so far (for tests / reporting).
        self.applied = 0
        for event in schedule:
            network.sim.schedule_at(event.time, self._fire, event)

    def _fire(self, event: FaultEvent) -> None:
        changed = self.health.apply(event)
        for port_id, factor in changed.items():
            self.network.port(port_id).set_fault_factor(factor)
        self.applied += 1
        if self.tracer is not None:
            self.tracer.emit(FaultInjected(
                time=self.network.sim.now, target=event.target.spec,
                action=event.action, factor=event.factor))
