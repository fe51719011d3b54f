"""Deterministic fault injection shared by both simulators.

The subsystem splits into three layers:

* :mod:`repro.faults.model` -- typed fault targets/events and the
  :class:`~repro.faults.model.HealthState` that folds them into per-port
  capacity factors and crashed servers;
* :mod:`repro.faults.schedule` -- seeded, reproducible schedules (fixed
  lists, Poisson MTBF/MTTR processes, JSON scenario files) whose
  time-sorted events both simulators replay;
* :mod:`repro.faults.inject` -- the packet-engine adapter that replays a
  schedule against a ``PacketNetwork``.

The fluid simulator walks a schedule's events itself and the recovery
controller folds them into a :class:`HealthState`; see
:class:`repro.flowsim.sim.ClusterSim` and
:class:`repro.placement.controller.ClusterController`.
"""

from repro.faults.model import (
    ACTION_DEGRADE,
    ACTION_DOWN,
    ACTION_UP,
    SWITCH_LEVELS,
    TARGET_LINK,
    TARGET_SERVER,
    TARGET_SWITCH,
    FaultEvent,
    FaultTarget,
    HealthState,
)
from repro.faults.schedule import (
    DEFAULT_TARGET_KINDS,
    FaultSchedule,
    eligible_targets,
)
from repro.faults.inject import NetworkFaultInjector

__all__ = [
    "TARGET_LINK", "TARGET_SERVER", "TARGET_SWITCH",
    "ACTION_DOWN", "ACTION_UP", "ACTION_DEGRADE", "SWITCH_LEVELS",
    "FaultTarget", "FaultEvent", "HealthState",
    "FaultSchedule", "eligible_targets",
    "DEFAULT_TARGET_KINDS", "NetworkFaultInjector",
]
