"""Deterministic, seeded fault schedules.

A :class:`FaultSchedule` is an immutable, time-sorted list of
:class:`~repro.faults.model.FaultEvent` built one of three ways:

* **fixed** -- ``FaultSchedule(events)`` over explicit events;
* **Poisson MTBF/MTTR** -- :meth:`FaultSchedule.poisson`: a cluster-wide
  failure process (inter-fault gaps exponential around the MTBF), each
  fault hitting a uniformly chosen component of the requested kinds and
  repairing after an exponential MTTR.  Fully determined by the seed;
* **scenario spec** -- :meth:`FaultSchedule.from_spec`: either an inline
  ``"poisson:mtbf_ms=10,mttr_ms=5,targets=link+server"`` shorthand or a
  path to a JSON file (``{"events": [...]}`` or ``{"poisson": {...}}``).

Both simulators replay a schedule's time-sorted :attr:`FaultSchedule.events`:
the packet engine pre-schedules each event on its event loop, the fluid
simulator walks them with an index folded into its next-event search.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.faults.model import (
    ACTION_DOWN,
    ACTION_UP,
    SWITCH_LEVELS,
    TARGET_LINK,
    TARGET_SERVER,
    TARGET_SWITCH,
    FaultEvent,
    FaultTarget,
)
from repro.topology.tree import TreeTopology

__all__ = ["FaultSchedule", "eligible_targets"]

#: Target kinds the Poisson generator draws from by default.
DEFAULT_TARGET_KINDS = (TARGET_LINK, TARGET_SERVER)


def eligible_targets(topology: TreeTopology,
                     kinds: Sequence[str]) -> List[FaultTarget]:
    """Every failable component of the requested kinds, in a stable
    topology order (links by port id, then servers, then switches)."""
    targets: List[FaultTarget] = []
    for kind in kinds:
        if kind == TARGET_LINK:
            targets.extend(FaultTarget(TARGET_LINK, port.port_id)
                           for port in topology.ports)
        elif kind == TARGET_SERVER:
            targets.extend(FaultTarget(TARGET_SERVER, s)
                           for s in range(topology.n_servers))
        elif kind == TARGET_SWITCH:
            targets.extend(FaultTarget(TARGET_SWITCH, r, level="tor")
                           for r in range(topology.n_racks))
            targets.extend(FaultTarget(TARGET_SWITCH, p, level="agg")
                           for p in range(topology.n_pods))
            targets.append(FaultTarget(TARGET_SWITCH, 0, level="core"))
        else:
            raise ValueError(f"unknown target kind {kind!r}")
    return targets


class FaultSchedule:
    """An immutable time-sorted sequence of fault events."""

    def __init__(self, events: Iterable[FaultEvent]):
        ordered = sorted(events, key=lambda e: (e.time, e.target.spec,
                                                e.action))
        self.events: Tuple[FaultEvent, ...] = tuple(ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def is_empty(self) -> bool:
        """Whether the schedule holds no events."""
        return not self.events

    # -- constructors --------------------------------------------------------

    @classmethod
    def poisson(cls, topology: TreeTopology, mtbf: float, mttr: float,
                horizon: float, seed: int = 0,
                target_kinds: Sequence[str] = DEFAULT_TARGET_KINDS,
                degrade_fraction: float = 0.0) -> "FaultSchedule":
        """Cluster-wide Poisson failure/repair process.

        One global process draws inter-fault gaps ``Exp(mtbf)``; each
        fault hits a uniformly chosen healthy component and repairs
        after ``Exp(mttr)``.  With probability ``degrade_fraction`` a
        fault is a partial rate degradation (uniform factor in
        ``[0.1, 0.9]``) rather than a full outage.  Repairs beyond the
        horizon are dropped: the component simply stays impaired at the
        end of the run.  The schedule is a pure function of the
        arguments, so same-seed runs replay identically.
        """
        if mtbf <= 0 or mttr <= 0:
            raise ValueError("mtbf and mttr must be positive")
        if not 0.0 <= degrade_fraction <= 1.0:
            raise ValueError("degrade_fraction must be in [0, 1]")
        targets = eligible_targets(topology, target_kinds)
        if not targets:
            raise ValueError("no eligible fault targets")
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        busy_until: Dict[str, float] = {}
        now = 0.0
        while True:
            now += rng.expovariate(1.0 / mtbf)
            if now >= horizon:
                break
            target = targets[rng.randrange(len(targets))]
            repair = now + rng.expovariate(1.0 / mttr)
            degraded = rng.random() < degrade_fraction
            factor = rng.uniform(0.1, 0.9) if degraded else 0.0
            if busy_until.get(target.spec, -1.0) >= now:
                # Component still under repair from an earlier fault;
                # the draw is consumed (keeps the stream deterministic)
                # but no overlapping fault is scheduled.
                continue
            busy_until[target.spec] = repair
            if degraded:
                events.append(FaultEvent.degrade(now, target, factor))
            else:
                events.append(FaultEvent.down(now, target))
            if repair < horizon:
                events.append(FaultEvent.up(repair, target))
        return cls(events)

    @classmethod
    def from_spec(cls, spec: str, topology: TreeTopology, horizon: float,
                  seed: int = 0) -> "FaultSchedule":
        """Build a schedule from a CLI spec string.

        ``"none"`` (or ``""``) is the empty schedule; a string starting
        with ``"poisson:"`` parses inline ``k=v`` pairs (``mtbf_ms``,
        ``mttr_ms``, ``targets`` joined by ``+``, ``degrade``); anything
        else is a path to a JSON scenario file.
        """
        spec = spec.strip()
        if not spec or spec == "none":
            return cls(())
        if spec.startswith("poisson:"):
            params = _parse_kv(spec[len("poisson:"):])
            return cls._poisson_from_params(params, topology, horizon,
                                            seed)
        with open(spec, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if "events" in doc:
            events = [cls._event_from_json(entry)
                      for entry in doc["events"]]
            return cls(events)
        if "poisson" in doc:
            return cls._poisson_from_params(dict(doc["poisson"]), topology,
                                            horizon, seed)
        raise ValueError(
            f"scenario file {spec!r} needs an 'events' or 'poisson' key")

    @classmethod
    def _poisson_from_params(cls, params: Dict[str, object],
                             topology: TreeTopology, horizon: float,
                             seed: int) -> "FaultSchedule":
        mtbf_ms = float(params.pop("mtbf_ms", 10.0))
        mttr_ms = float(params.pop("mttr_ms", 5.0))
        raw_targets = params.pop("targets", "+".join(DEFAULT_TARGET_KINDS))
        degrade = float(params.pop("degrade", 0.0))
        if params:
            raise ValueError(f"unknown poisson spec keys {sorted(params)}")
        if isinstance(raw_targets, str):
            kinds: Sequence[str] = tuple(raw_targets.split("+"))
        else:
            kinds = tuple(raw_targets)
        return cls.poisson(topology, mtbf=mtbf_ms * 1e-3,
                           mttr=mttr_ms * 1e-3, horizon=horizon, seed=seed,
                           target_kinds=kinds, degrade_fraction=degrade)

    @staticmethod
    def _event_from_json(entry: Dict[str, object]) -> FaultEvent:
        target = FaultTarget.parse(str(entry["target"]))
        action = str(entry.get("action", ACTION_DOWN))
        default = {ACTION_DOWN: 0.0, ACTION_UP: 1.0}.get(action, 0.5)
        return FaultEvent(time=float(entry["time"]), target=target,
                          action=action,
                          factor=float(entry.get("factor", default)))


def _parse_kv(text: str) -> Dict[str, str]:
    params: Dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad spec fragment {part!r} (want k=v)")
        key, value = part.split("=", 1)
        params[key.strip()] = value.strip()
    return params
