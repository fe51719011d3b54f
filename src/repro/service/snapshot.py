"""Bit-exact serialization of placement books and controller state.

The service's crash-consistency story rests on one invariant from the
placement layer: a port's totals always equal the fold of its surviving
registry entries in insertion order (``PortState.reset_totals``, pinned
by ``tests/placement/test_remove_exact.py``).  A snapshot therefore
stores each port's registry *in insertion order* and restore folds it
back with ``reset_totals`` -- the restored totals are bit-identical to
the live ones, not merely close.  Everything else (slot caches, health
composition, ``_commits``) is recomputed from pure deterministic
functions of the restored state.

JSON is the wire format; Python floats survive a JSON round trip
exactly (repr-based encoding), so no precision is lost.

``state_digest`` hashes a cluster state dict with the admission
counters left out: counters count *attempts* (a replayed service never
re-runs rejected admissions, so they legitimately differ across a
restart) while the digest must pin the *books*.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence

from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import Placement, TenantClass, TenantRequest
from repro.faults.model import FaultTarget
from repro.placement.base import PlacementManager
from repro.placement.controller import ClusterController, TenantOutcome
from repro.placement.controller import _Track
from repro.placement.state import Contribution
from repro.service.wal import SnapshotError

__all__ = ["dump_request", "restore_request", "dump_manager",
           "restore_manager", "dump_controller", "restore_controller",
           "require_keys", "state_digest"]


def require_keys(dump: Any, keys: Sequence[str], what: str) -> None:
    """:class:`SnapshotError` unless ``dump`` is an object holding every
    one of ``keys`` (``what`` names it in the diagnosis): a snapshot
    comes from disk, so its shape is checked before it is read."""
    if not isinstance(dump, dict):
        raise SnapshotError(f"{what} is not a JSON object "
                            f"(got {type(dump).__name__})")
    for key in keys:
        if key not in dump:
            raise SnapshotError(f"{what} has no {key!r} key")


# -- tenant requests ---------------------------------------------------------

def dump_request(request: TenantRequest) -> List[Any]:
    """A tenant request as a compact JSON-serializable list."""
    guarantee = request.guarantee
    g = (None if guarantee is None else
         [guarantee.bandwidth, guarantee.burst, guarantee.delay,
          guarantee.peak_rate])
    return [request.n_vms, g, request.tenant_class.value, request.name,
            request.tenant_id]


def restore_request(dump: List[Any]) -> TenantRequest:
    """Rebuild the request :func:`dump_request` serialized."""
    n_vms, g, klass, name, tenant_id = dump
    guarantee = (None if g is None else
                 NetworkGuarantee(bandwidth=g[0], burst=g[1], delay=g[2],
                                  peak_rate=g[3]))
    return TenantRequest(n_vms=n_vms, guarantee=guarantee,
                         tenant_class=TenantClass(klass), name=name,
                         tenant_id=tenant_id)


# -- placement managers ------------------------------------------------------

def dump_manager(manager: PlacementManager) -> Dict[str, Any]:
    """Snapshot one manager's books (registry in insertion order)."""
    registry = []
    for port_id in sorted(manager._port_registry):
        entries = manager._port_registry[port_id]
        if not entries:
            continue
        registry.append([port_id,
                         [[kind, ident, c.bandwidth, c.burst, c.peak_rate,
                           c.packet_slack]
                          for (kind, ident), c in entries.items()]])
    placements = [[tid, dump_request(p.request), list(p.vm_servers)]
                  for tid, p in sorted(manager.placements.items())]
    return {
        "registry": registry,
        "placements": placements,
        "free_slots": list(manager.free_slots),
        "cordoned": sorted([s, c] for s, c in manager._cordoned.items()),
        "counters": {
            "accepted": manager.accepted,
            "rejected": manager.rejected,
            "accepted_by_class": {k.value: v for k, v in
                                  sorted(manager.accepted_by_class.items(),
                                         key=lambda kv: kv[0].value)},
            "rejected_by_class": {k.value: v for k, v in
                                  sorted(manager.rejected_by_class.items(),
                                         key=lambda kv: kv[0].value)},
            "decision_seq": manager._decision_seq,
        },
    }


def restore_manager(manager: PlacementManager,
                    dump: Dict[str, Any]) -> None:
    """Load a snapshot into a freshly built manager (same topology).

    The registry is replayed verbatim in dumped (= insertion) order and
    every port's totals rebuilt with ``reset_totals``; ``_commits`` is
    rebuilt by re-running the pure ``_port_contributions`` per placement;
    the manager then rebuilds its own caches and indexes from those books.
    """
    require_keys(dump, ("free_slots", "cordoned", "placements", "registry"),
                 "manager dump")
    manager.free_slots = [int(v) for v in dump["free_slots"]]
    manager._cordoned = {int(s): int(c) for s, c in dump["cordoned"]}
    manager.placements = {}
    manager._commits = {}
    for tid, request_dump, vm_servers in dump["placements"]:
        request = restore_request(request_dump)
        placement = Placement(request=request,
                              vm_servers=[int(s) for s in vm_servers])
        manager.placements[int(tid)] = placement
        manager._contribution_memo.clear()
        manager._commits[int(tid)] = list(manager._port_contributions(
            request, placement.vms_per_server()))
    for port_id, entries in dump["registry"]:
        registry = manager._port_registry[int(port_id)]
        registry.clear()
        for kind, ident, bandwidth, burst, peak, slack in entries:
            key = (kind, int(ident) if kind == "tenant" else ident)
            registry[key] = Contribution(bandwidth=bandwidth, burst=burst,
                                         peak_rate=peak,
                                         packet_slack=slack)
        manager.states[int(port_id)].reset_totals(registry.values())
    manager.rebuild_derived_state()
    counters = dump.get("counters", {})
    manager.accepted = counters.get("accepted", 0)
    manager.rejected = counters.get("rejected", 0)
    manager.accepted_by_class = {
        TenantClass(k): v
        for k, v in counters.get("accepted_by_class", {}).items()}
    manager.rejected_by_class = {
        TenantClass(k): v
        for k, v in counters.get("rejected_by_class", {}).items()}
    manager._decision_seq = counters.get("decision_seq", 0)


# -- cluster controllers -----------------------------------------------------

def dump_controller(controller: ClusterController) -> Dict[str, Any]:
    """Snapshot one controller's bookkeeping (tracks, health, rows)."""
    tracks = []
    for tid in sorted(controller._tracks):
        track = controller._tracks[tid]
        tracks.append([tid, dump_request(track.request), track.status,
                       track.lost_at, track.recovered_at,
                       track.guarantee_seconds])
    closed = [[row.tenant_id, row.n_vms, row.tenant_class, row.outcome,
               row.lost_at, row.recovered_at, row.time_to_recover,
               row.guarantee_seconds_lost]
              for row in controller._closed_rows]
    health = controller.health
    return {
        "tracks": tracks,
        "closed_rows": closed,
        "poisoned": sorted([pid, factor] for pid, factor
                           in controller._poisoned.items()),
        "finalized": controller._finalized,
        "health": {
            "target_factor": [[spec, factor] for spec, factor
                              in health._target_factor.items()],
            "down_servers": sorted(health.down_servers),
        },
    }


def restore_controller(controller: ClusterController,
                       dump: Dict[str, Any]) -> None:
    """Load controller bookkeeping into a fresh controller.

    Poison reservations themselves live in the manager registry (already
    restored); only the mirror map is reloaded here.  Health composition
    (``port_factor``) is recomputed from the per-target factors, which
    is exact: composition is a min over targets.
    """
    require_keys(dump, ("tracks", "closed_rows", "poisoned", "health"),
                 "controller dump")
    require_keys(dump["health"], ("target_factor", "down_servers"),
                 "controller health dump")
    controller._tracks = {}
    for tid, request_dump, status, lost_at, recovered_at, gsec in \
            dump["tracks"]:
        track = _Track(restore_request(request_dump), lost_at=lost_at)
        track.status = status
        track.recovered_at = recovered_at
        track.guarantee_seconds = gsec
        controller._tracks[int(tid)] = track
    controller._closed_rows = [
        TenantOutcome(tenant_id=r[0], n_vms=r[1], tenant_class=r[2],
                      outcome=r[3], lost_at=r[4], recovered_at=r[5],
                      time_to_recover=r[6], guarantee_seconds_lost=r[7])
        for r in dump["closed_rows"]]
    controller._poisoned = {int(pid): factor
                            for pid, factor in dump["poisoned"]}
    controller._finalized = bool(dump.get("finalized", False))
    health = controller.health
    topology = controller.manager.topology
    health._target_factor = {spec: factor for spec, factor
                             in dump["health"]["target_factor"]}
    health._target_ports = {
        spec: tuple(FaultTarget.parse(spec).ports(topology))
        for spec in health._target_factor}
    health.port_factor = {}
    for ports in health._target_ports.values():
        for port_id in ports:
            if port_id in health.port_factor:
                continue
            composed = health._composed_factor(port_id)
            if composed != 1.0:
                health.port_factor[port_id] = composed
    health.down_servers = set(int(s) for s
                              in dump["health"]["down_servers"])


# -- digests -----------------------------------------------------------------

def state_digest(state: Dict[str, Any]) -> str:
    """SHA-256 over a canonical JSON rendering of a
    :meth:`ClusterBooks.dump_state` dict (left unmodified).

    Admission counters are excluded: a restarted service replays only
    committed outcomes (it never re-runs rejected admission attempts),
    so attempt counters may differ across a crash while the books are
    identical -- the digest certifies the books.  Counters live in
    exactly one place, the ``manager`` dump (:func:`dump_manager`), so
    the strip rebuilds that dict one level deep and shares everything
    below it with ``state``.
    """
    manager = {key: value for key, value in state["manager"].items()
               if key != "counters"}
    canonical = json.dumps(dict(state, manager=manager), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
