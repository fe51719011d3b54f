"""Self-healing cluster controller: re-validate guarantees after faults.

Silo's admission control reasons about a static, healthy topology.  When a
component fails, every tenant whose reserved paths (or VMs) the fault
touches no longer has a sound guarantee -- the controller's job is to put
the cluster back into a state where every *claimed* guarantee is again
backed by the admission math:

1. **identify** the tenants whose placements touch the faulted component
   (VMs on a crashed server, or reserved paths crossing an impaired port);
2. **release** them through the normal :meth:`PlacementManager.remove`
   path, so the port books are exact again;
3. **fence** the lost capacity: crashed servers are cordoned out of the
   slot pool, and each impaired port gets a "poison" reservation for the
   lost capacity fraction (:meth:`PlacementManager.reserve_capacity`), so
   the *existing* admission checks reject anything the degraded component
   cannot carry -- no degraded-topology fork of the admission math;
4. **re-place** each affected tenant on the surviving topology with the
   ordinary admission check, classifying it as ``recovered`` (full
   guarantee re-admitted), ``degraded`` (delay guarantee stripped,
   bandwidth-only re-admission) or ``evicted``;
5. on **repair** events the fences come down and the controller
   self-heals: degraded tenants are upgraded back to their full guarantee
   and (optionally) evicted tenants are re-admitted.

Every transition lands in the audit trail (via the manager), the trace
stream (``fault.recovery`` events) and the controller's
:class:`RecoveryReport` -- guarantee-seconds lost and time-to-recover per
tenant, the SLO-violation currency of the failure-sweep experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.core.tenant import Placement, TenantRequest
from repro.faults.model import ACTION_UP, FaultEvent, HealthState
from repro.obs.events import TenantRecovery
from repro.placement.base import PlacementManager
from repro.placement.state import Contribution

__all__ = ["ClusterController", "RecoveryReport", "TenantOutcome",
           "OUTCOME_RECOVERED", "OUTCOME_DEGRADED", "OUTCOME_EVICTED"]

OUTCOME_RECOVERED = "recovered"
OUTCOME_DEGRADED = "degraded"
OUTCOME_EVICTED = "evicted"

#: Registry key under which fault poisons are reserved at a port.
_POISON_KEY = "fault"


@dataclass
class TenantOutcome:
    """Final per-tenant verdict of a fault campaign (one report row)."""

    tenant_id: int
    n_vms: int
    tenant_class: str
    outcome: str
    #: When the tenant first lost its full guarantee.
    lost_at: float
    #: When the full guarantee came back (``None`` if it never did).
    recovered_at: Optional[float]
    #: ``recovered_at - lost_at`` for recovered tenants.
    time_to_recover: Optional[float]
    #: VM-weighted seconds spent without the full guarantee.
    guarantee_seconds_lost: float


@dataclass
class RecoveryReport:
    """Aggregate SLO-violation report over one fault campaign."""

    rows: List[TenantOutcome] = field(default_factory=list)

    @property
    def affected(self) -> int:
        """Number of tenants touched by faults."""
        return len(self.rows)

    def count(self, outcome: str) -> int:
        """Number of tenants with the given outcome."""
        return sum(1 for row in self.rows if row.outcome == outcome)

    @property
    def guarantee_seconds_lost(self) -> float:
        """Total guarantee-seconds lost across tenants."""
        return sum(row.guarantee_seconds_lost for row in self.rows)

    @property
    def mean_time_to_recover(self) -> Optional[float]:
        """Mean recovery time, or None when nothing recovered."""
        ttrs = [row.time_to_recover for row in self.rows
                if row.time_to_recover is not None]
        if not ttrs:
            return None
        return sum(ttrs) / len(ttrs)

    def recovered_fraction(self) -> float:
        """Fraction of affected tenants that got their full guarantee back."""
        if not self.rows:
            return 1.0
        return self.count(OUTCOME_RECOVERED) / len(self.rows)


class _Track:
    """Mutable per-tenant recovery bookkeeping."""

    __slots__ = ("request", "status", "lost_at", "recovered_at",
                 "guarantee_seconds")

    def __init__(self, request: TenantRequest, lost_at: float):
        #: The tenant's *original* (full-guarantee) request.
        self.request = request
        self.status = OUTCOME_EVICTED
        self.lost_at = lost_at
        self.recovered_at: Optional[float] = None
        self.guarantee_seconds = 0.0


class ClusterController:
    """Reacts to fault events by re-validating affected guarantees.

    Args:
        manager: the placement manager owning the cluster's books.
        tracer: optional trace sink for ``fault.recovery`` events (falls
            back to the manager's tracer).
        retry_evicted: on repair events, also retry tenants that were
            evicted (not just upgrade degraded ones).  Control-plane
            campaigns want ``True``; a fluid simulation attaches with
            ``False`` because an evicted tenant's job was killed and
            cannot resurrect.
    """

    def __init__(self, manager: PlacementManager, tracer=None,
                 retry_evicted: bool = True):
        self.manager = manager
        self.health = HealthState(manager.topology)
        self.tracer = tracer if tracer is not None else manager.tracer
        self.retry_evicted = retry_evicted
        self._tracks: Dict[int, _Track] = {}
        #: Rows of tenants that departed mid-campaign (interval closed).
        self._closed_rows: List[TenantOutcome] = []
        #: port id -> factor currently fenced by a poison reservation.
        self._poisoned: Dict[int, float] = {}
        self._finalized = False
        #: tenant id -> (placement, its port set); see _tenants_touching.
        self._port_memo: Dict[int, Tuple[Placement, Set[int]]] = {}

    # -- event handling ------------------------------------------------------

    def apply(self, event: FaultEvent, now: Optional[float] = None
              ) -> Dict[int, str]:
        """Fold one fault event in; returns ``{tenant_id: outcome}`` for
        every tenant whose classification changed at this event."""
        if now is None:
            now = event.time
        was_faulted = event.target.spec in self.health._target_factor
        changed = self.health.apply(event)
        if event.action == ACTION_UP:
            return self._handle_repair(event, changed, now, was_faulted)
        return self._handle_fault(event, changed, now)

    def _handle_fault(self, event: FaultEvent, changed: Dict[int, float],
                      now: float) -> Dict[int, str]:
        manager = self.manager
        impaired = [pid for pid, factor in changed.items() if factor < 1.0]
        affected = self._tenants_touching(impaired)
        for server in event.target.servers(manager.topology):
            affected.update(manager.tenants_on_server(server))
        # Release first: the re-place search must see the freed slots and
        # exact port books, and cordoning below withholds only truly free
        # slots.
        requests: List[TenantRequest] = []
        for tenant_id in sorted(affected):
            requests.append(manager.placements[tenant_id].request)
            manager.remove(tenant_id)
        for server in self.health.down_servers:
            manager.cordon_server(server)
        self._refresh_poisons(changed)
        outcomes: Dict[int, str] = {}
        for request in requests:
            track = self._tracks.get(request.tenant_id)
            if track is None:
                track = _Track(request, lost_at=now)
                self._tracks[request.tenant_id] = track
            elif track.status == OUTCOME_RECOVERED:
                # Hit again after an earlier full recovery: a new outage
                # interval opens.
                track.lost_at = now
                track.recovered_at = None
            outcomes[request.tenant_id] = self._replace(track, now)
        # Tenants already degraded/evicted may be re-hit; their jobs were
        # not re-released above (they hold no full guarantee), but a
        # degraded tenant whose *current* placement the fault touched was
        # in `affected` via its bandwidth-only reservation and was
        # reclassified by _replace.
        return outcomes

    def _handle_repair(self, event: FaultEvent, changed: Dict[int, float],
                       now: float, was_faulted: bool = True
                       ) -> Dict[int, str]:
        manager = self.manager
        woke = False
        for server in event.target.servers(manager.topology):
            if server not in self.health.down_servers:
                if server in manager._cordoned:
                    woke = True
                manager.uncordon_server(server)
        if not was_faulted and not changed and not woke:
            # A repair of an already-healthy target (a restarted service
            # replaying its log hits exactly this): nothing changed, so
            # re-running the upgrade/retry pass below would remove and
            # re-append registry entries -- same totals, different fold
            # order -- and recovery would no longer be idempotent.
            return {}
        self._refresh_poisons(changed)
        outcomes: Dict[int, str] = {}
        # Degraded tenants upgrade first: they still hold (bandwidth-only)
        # reservations, and lifting them back to full guarantees takes
        # priority over re-admitting evicted tenants into the same
        # recovered capacity.
        for tenant_id in sorted(self._tracks):
            track = self._tracks[tenant_id]
            if track.status == OUTCOME_DEGRADED:
                outcomes[tenant_id] = self._upgrade(track, now)
        if self.retry_evicted:
            for tenant_id in sorted(self._tracks):
                track = self._tracks[tenant_id]
                if track.status == OUTCOME_EVICTED:
                    outcome = self._replace(track, now)
                    if outcome != OUTCOME_EVICTED:
                        outcomes[tenant_id] = outcome
        return outcomes

    # -- placement transitions ----------------------------------------------

    def _replace(self, track: _Track, now: float) -> str:
        """(Re-)place an unplaced tenant: full guarantee, then degraded."""
        manager = self.manager
        request = track.request
        if manager.place(request, now=now) is not None:
            return self._mark(track, OUTCOME_RECOVERED, now)
        degraded = self._degraded_request(request)
        if degraded is not None and manager.place(degraded,
                                                  now=now) is not None:
            return self._mark(track, OUTCOME_DEGRADED, now)
        return self._mark(track, OUTCOME_EVICTED, now)

    def _upgrade(self, track: _Track, now: float) -> str:
        """Try to lift a degraded tenant back to its full guarantee."""
        manager = self.manager
        request = track.request
        manager.remove(request.tenant_id)
        if manager.place(request, now=now) is not None:
            return self._mark(track, OUTCOME_RECOVERED, now)
        degraded = self._degraded_request(request)
        if degraded is not None and manager.place(degraded,
                                                  now=now) is not None:
            return self._mark(track, OUTCOME_DEGRADED, now)
        return self._mark(track, OUTCOME_EVICTED, now)

    @staticmethod
    def _degraded_request(request: TenantRequest
                          ) -> Optional[TenantRequest]:
        """The bandwidth-only fallback of a request, or ``None`` when the
        request has no delay guarantee to strip."""
        if not request.wants_delay:
            return None
        return TenantRequest(
            n_vms=request.n_vms,
            guarantee=replace(request.guarantee, delay=None),
            tenant_class=request.tenant_class,
            name=request.name,
            tenant_id=request.tenant_id)

    def _mark(self, track: _Track, outcome: str, now: float) -> str:
        if outcome == OUTCOME_RECOVERED:
            track.guarantee_seconds += ((now - track.lost_at)
                                        * track.request.n_vms)
            track.recovered_at = now
        track.status = outcome
        if self.tracer is not None:
            ttr = (now - track.lost_at
                   if outcome == OUTCOME_RECOVERED else None)
            self.tracer.emit(TenantRecovery(
                time=now, tenant_id=track.request.tenant_id,
                n_vms=track.request.n_vms,
                tenant_class=track.request.tenant_class.name,
                outcome=outcome, time_to_recover=ttr))
        return outcome

    # -- capacity fencing ----------------------------------------------------

    def _refresh_poisons(self, changed: Dict[int, float]) -> None:
        """Keep each changed port's poison equal to its lost capacity."""
        manager = self.manager
        for port_id in sorted(changed):
            factor = changed[port_id]
            if port_id in self._poisoned:
                manager.release_capacity(port_id, _POISON_KEY)
                del self._poisoned[port_id]
            if factor < 1.0:
                capacity = manager.states[port_id].port.capacity
                lost = (1.0 - factor) * capacity
                manager.reserve_capacity(
                    port_id,
                    Contribution(bandwidth=lost, burst=0.0, peak_rate=lost,
                                 packet_slack=0.0),
                    _POISON_KEY)
                self._poisoned[port_id] = factor

    # -- affected-tenant discovery -------------------------------------------

    def _tenants_touching(self, port_ids: List[int]) -> Set[int]:
        """Tenants whose placement uses any of ``port_ids``.

        Computed from placement geometry rather than the reservation
        registry so it also works for managers without port checks
        (locality) and for best-effort tenants with no contributions.
        A port set is derived once per placement: the memo is rebuilt
        from the live placements on every call and an entry is reused
        only for the identical ``Placement`` object (a re-place, adopt
        or snapshot restore makes a new one), so nothing goes stale.
        """
        if not port_ids:
            return set()
        wanted = set(port_ids)
        hit: Set[int] = set()
        old, memo = self._port_memo, {}
        for tenant_id, placement in self.manager.placements.items():
            entry = old.get(tenant_id)
            if entry is None or entry[0] is not placement:
                entry = (placement, self._placement_ports(placement))
            memo[tenant_id] = entry
            if not wanted.isdisjoint(entry[1]):
                hit.add(tenant_id)
        self._port_memo = memo
        return hit

    def _placement_ports(self, placement) -> Set[int]:
        """Directed ports a placement's hose traffic can cross."""
        cuts = self.manager.topology.hose_cuts(placement.vms_per_server())
        return {port.port_id for port, _, _ in cuts}

    # -- reporting -----------------------------------------------------------

    def notify_departed(self, tenant_id: int, now: float) -> None:
        """A tracked tenant left on its own (its job completed).

        Closes the tenant's outage interval -- a tenant that finished
        while degraded stays a ``degraded`` row, with guarantee-seconds
        accrued up to its departure -- and drops it from self-healing.
        """
        track = self._tracks.pop(tenant_id, None)
        if track is None:
            return
        if track.status != OUTCOME_RECOVERED:
            track.guarantee_seconds += ((now - track.lost_at)
                                        * track.request.n_vms)
        self._closed_rows.append(self._row(tenant_id, track))

    def finalize(self, end_time: float) -> None:
        """Close open outage intervals at the end of the campaign."""
        if self._finalized:
            return
        for track in self._tracks.values():
            if track.status != OUTCOME_RECOVERED:
                track.guarantee_seconds += ((end_time - track.lost_at)
                                            * track.request.n_vms)
        self._finalized = True

    @staticmethod
    def _row(tenant_id: int, track: _Track) -> TenantOutcome:
        return TenantOutcome(
            tenant_id=tenant_id,
            n_vms=track.request.n_vms,
            tenant_class=track.request.tenant_class.name,
            outcome=track.status,
            lost_at=track.lost_at,
            recovered_at=track.recovered_at,
            time_to_recover=(track.recovered_at - track.lost_at
                             if track.recovered_at is not None
                             else None),
            guarantee_seconds_lost=track.guarantee_seconds,
        )

    def report(self) -> RecoveryReport:
        """The recovery report accumulated so far."""
        rows = self._closed_rows + [
            self._row(tid, track)
            for tid, track in sorted(self._tracks.items())]
        rows.sort(key=lambda row: (row.tenant_id, row.lost_at))
        return RecoveryReport(rows=rows)
