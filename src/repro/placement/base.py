"""Shared greedy first-fit placement machinery (section 4.2.3).

All three placement managers walk the hierarchy the same way -- try to fit
the whole tenant in one server, then one rack, then one pod, then anywhere
-- and differ only in (a) which admission check runs at each port and (b)
how wide the hierarchy they may use is (Silo caps the scope so that summed
queue capacities along any path stay within the delay guarantee).

Each scope is attempted with two fill strategies:

* **greedy**: pack each server as full as the per-server checks allow, which
  minimises the number of network links the tenant touches;
* **balanced**: spread VMs evenly over the domain's servers, which keeps the
  worst-case all-to-one burst convergence at any single port small (the
  paper's Fig. 5 example is exactly this situation).

A candidate assignment is then *validated*: the exact per-port contributions
(with the true number of sending servers behind each port) are recomputed
and checked against the current port state before committing.  Fill-time
checks are only heuristics to guide the search; validation is authoritative,
so admission is sound regardless of the estimates used while filling.
"""

from __future__ import annotations

import abc
import math
from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import units
from repro.core.tenant import Placement, TenantClass, TenantRequest
from repro.obs.events import AdmissionDecision
from repro.placement.audit import (
    CONSTRAINT_CAPACITY,
    CONSTRAINT_DELAY,
    CONSTRAINT_NONE,
    CONSTRAINT_QUEUE_BOUND,
    AdmissionAudit,
    AdmissionRecord,
)
from repro.placement.slotindex import MaxTree
from repro.placement.state import Contribution, PortState
from repro.topology.switch import PortKind
from repro.topology.tree import SCOPES, TreeTopology

#: The two fill strategies tried, in order, within every domain.
_STRATEGIES = ("greedy", "balanced")
# Hoisted enum values: contribution memo keys use the interned strings so
# lookups skip the Enum descriptor and Python-level __hash__.
_NIC_UP = PortKind.NIC_UP.value
_TOR_DOWN = PortKind.TOR_DOWN.value


class PlacementManager(abc.ABC):
    """Base class: slot accounting, greedy search, commit/remove."""

    def __init__(self, topology: TreeTopology,
                 min_fault_domains: int = 1,
                 hose_tightening: bool = True) -> None:
        """Args:
            topology: the datacenter to place into.
            min_fault_domains: spread every tenant over at least this
                many servers (section 4.2.3's fault-tolerance constraint;
                1 disables spreading).
            hose_tightening: use the paper's tightened hose aggregate
                ``min(m, N-m) * B`` when summing tenant curves; disabling
                it falls back to the naive ``m * B`` (the ablation knob
                for how much admission capacity the tightening buys).
        """
        if min_fault_domains < 1:
            raise ValueError("min_fault_domains must be >= 1")
        self.topology = topology
        self.min_fault_domains = min_fault_domains
        self.hose_tightening = hose_tightening
        self.states: Dict[int, PortState] = {
            port.port_id: PortState(port) for port in topology.ports
        }
        # Per-server port-state shortcuts and per-(kind, scope) upstream
        # queue capacities, hoisted out of the per-probe inner loop.
        self._nic_states: List[PortState] = [
            self.states[topology.nic_up(s).port_id]
            for s in range(topology.n_servers)]
        self._tor_down_states: List[PortState] = [
            self.states[topology.tor_down(s).port_id]
            for s in range(topology.n_servers)]
        self._upstream_qcap: Dict[Tuple[str, str], float] = {
            (kind.value, scope): topology.upstream_queue_capacity(kind,
                                                                  scope)
            for kind in set(p.kind for p in topology.ports)
            for scope in SCOPES
        }
        # Contributions depend only on (m, k, port kind, scope) within one
        # request; memoised per `place` call so repeated probes across the
        # servers of a domain cost one dict lookup.
        self._contribution_memo: Dict[Tuple[int, int, str, str],
                                      Contribution] = {}
        self.free_slots: List[int] = (
            [topology.slots_per_server] * topology.n_servers)
        self.placements: Dict[int, Placement] = {}
        self._commits: Dict[int, List[Tuple[int, Contribution]]] = {}
        # Per-port ordered registry of every live contribution, keyed by
        # ("tenant", id) or ("reserve", name).  Release rebuilds a port's
        # totals by folding the survivors in commit order (dicts preserve
        # insertion order), which is bit-identical to a fresh port and
        # immune to float drift; see PortState.reset_totals.
        self._port_registry: Dict[int, Dict[Tuple[str, object],
                                            Contribution]] = {
            port_id: {} for port_id in self.states
        }
        # Cordoned (crashed / unreachable) servers: server -> slots
        # withheld from the free pool while cordoned.
        self._cordoned: Dict[int, int] = {}
        self.accepted = 0
        self.rejected = 0
        #: Monotonic counter bumped whenever any port's reservations
        #: change (commit, remove, reserve/release poisons).  Lets
        #: callers cache derived maps -- e.g. the fluid simulator's
        #: best-effort residual capacities -- and rebuild only on change.
        self.reservation_version = 0
        self.accepted_by_class: Dict[TenantClass, int] = {}
        self.rejected_by_class: Dict[TenantClass, int] = {}
        #: Optional :class:`~repro.placement.audit.AdmissionAudit`
        #: recording every decision with its binding constraint, and
        #: optional :class:`repro.obs.TraceSink` receiving one
        #: ``admission`` event per decision; attach either after
        #: construction.  Both are evaluated off the hot path (only
        #: after the search concludes).
        self.audit: Optional[AdmissionAudit] = None
        self.tracer = None
        self._decision_seq = 0
        self.rebuild_derived_state()

    def rebuild_derived_state(self) -> None:
        """Recompute every cache and index from the books.

        The books are ``free_slots``, the port states and ``placements``;
        everything set here is derived from them and maintained
        incrementally by :meth:`_change_slots`, :meth:`_commit`,
        :meth:`remove` and the reservation calls.  Construction and
        snapshot restore both end here, so no other module needs to know
        which derived structures exist.
        """
        topo = self.topology
        free = self.free_slots
        full = topo.slots_per_server
        per_rack = topo.servers_per_rack
        per_pod = per_rack * topo.racks_per_pod
        rack_starts = range(0, topo.n_servers, per_rack)
        pod_starts = range(0, topo.n_servers, per_pod)
        # Free-slot indexes: first-fit asks for the lowest server / rack
        # with >= n free slots (pods are few enough to scan).
        self._server_free = MaxTree(free)
        self._rack_free = MaxTree([sum(free[s:s + per_rack])
                                   for s in rack_starts])
        self._pod_free: List[int] = [sum(free[s:s + per_pod])
                                     for s in pod_starts]
        self._total_free: int = sum(free)
        # Per-domain counts of *touched* (not fully free) servers, so
        # _search_scope knows an untouched domain in O(1).
        touched = [slots < full for slots in free]
        self._rack_touched: List[int] = [sum(touched[s:s + per_rack])
                                         for s in rack_starts]
        self._pod_touched: List[int] = [sum(touched[s:s + per_pod])
                                        for s in pod_starts]
        # pristine[server]: all slots free and nothing reserved at either
        # of its ports (tenants or fault poisons), i.e. interchangeable
        # with any other pristine server during a fill.
        self._pristine: List[bool] = [False] * topo.n_servers
        for server in range(topo.n_servers):
            self._refresh_pristine(server)
        self._server_tenants: List[List[int]] = [
            [] for _ in range(topo.n_servers)]
        for tenant_id, placement in self.placements.items():
            for server in placement.vms_per_server():
                self._server_tenants[server].append(tenant_id)

    # -- hooks for subclasses -------------------------------------------------

    @abc.abstractmethod
    def _allowed_scope(self, request: TenantRequest) -> Optional[str]:
        """Widest scope this tenant may span; ``None`` rejects outright."""

    @abc.abstractmethod
    def _port_ok(self, state: PortState, contribution: Contribution) -> bool:
        """Whether a port can absorb one more tenant's contribution."""

    def _checks_ports(self) -> bool:
        """Whether this manager runs network checks at all."""
        return True

    # -- public API -------------------------------------------------------------

    def place(self, request: TenantRequest,
              now: Optional[float] = None) -> Optional[Placement]:
        """Admit and place a tenant; returns ``None`` on rejection.

        ``now`` (optional simulation time) only annotates the audit
        trail / admission events; it does not affect the decision.
        """
        self._contribution_memo.clear()
        return self._place_impl(request, now)

    def place_batch(self, requests: Sequence[TenantRequest],
                    now: Optional[float] = None
                    ) -> List[Optional[Placement]]:
        """Admit a batch of requests, amortizing the admission math.

        Contributions depend only on ``(n_vms, guarantee)``, so the
        batch is grouped by that signature and the per-request
        contribution memo is cleared once per *group* instead of once
        per request -- same-shaped requests (the common case in a
        request stream) share every closed-form bound computation.

        Requests are still admitted strictly one at a time against the
        live books (group by group, first-seen group order, original
        order within a group), so the decisions are identical to
        sequential :meth:`place` calls in that order.  Results come
        back in the input order.
        """
        results: List[Optional[Placement]] = [None] * len(requests)
        groups: Dict[Tuple[int, object], List[int]] = {}
        order: List[Tuple[int, object]] = []
        for i, request in enumerate(requests):
            signature = (request.n_vms, request.guarantee)
            if signature not in groups:
                groups[signature] = []
                order.append(signature)
            groups[signature].append(i)
        for signature in order:
            self._contribution_memo.clear()
            for i in groups[signature]:
                results[i] = self._place_impl(requests[i], now)
        return results

    def adopt(self, request: TenantRequest,
              assignment: Dict[int, int]) -> Placement:
        """Commit a known-good assignment without re-running admission.

        The crash-recovery redo path: a write-ahead log replays each
        admitted request with the assignment the original search chose,
        and ``adopt`` re-commits it.  Contributions are recomputed by
        the same pure function :meth:`_port_contributions` used at
        admission time, so the registry entries (and therefore every
        port's folded totals) are bit-identical to the original commit.
        Raises if the tenant is already placed or the slots are gone.
        """
        if request.tenant_id in self.placements:
            raise ValueError(f"tenant {request.tenant_id} is already placed")
        self._contribution_memo.clear()
        placement = self._commit(request, dict(assignment))
        self._count(request, admitted=True)
        return placement

    def _place_impl(self, request: TenantRequest,
                    now: Optional[float]) -> Optional[Placement]:
        """The body of :meth:`place`, minus the memo clear (so batched
        admission can share the memo across same-signature requests)."""
        if request.tenant_id in self.placements:
            raise ValueError(f"tenant {request.tenant_id} is already placed")
        assignment = self._find_assignment(request)
        if assignment is None:
            self._count(request, admitted=False)
            if self.audit is not None or self.tracer is not None:
                self._record_decision(request, None, now)
            return None
        placement = self._commit(request, assignment)
        self._count(request, admitted=True)
        if self.audit is not None or self.tracer is not None:
            self._record_decision(request, assignment, now)
        return placement

    def _record_decision(self, request: TenantRequest,
                         assignment: Optional[Dict[int, int]],
                         now: Optional[float]) -> None:
        """Append the decision to the audit trail and/or trace stream.

        Runs only after the search concluded, so classification can use
        cheap re-checks against cached state instead of instrumenting the
        admission inner loop.
        """
        if assignment is not None:
            constraint = CONSTRAINT_NONE
            scope: Optional[str] = self.topology.span(assignment)
        else:
            constraint = self._rejection_constraint(request)
            scope = None
        seq = self._decision_seq
        self._decision_seq += 1
        klass = request.tenant_class.name
        if self.audit is not None:
            self.audit.append(AdmissionRecord(
                seq=seq, tenant_id=request.tenant_id, n_vms=request.n_vms,
                tenant_class=klass, admitted=assignment is not None,
                constraint=constraint, scope=scope, time=now))
        if self.tracer is not None:
            self.tracer.emit(AdmissionDecision(
                time=now, tenant_id=request.tenant_id,
                n_vms=request.n_vms, tenant_class=klass,
                admitted=assignment is not None, constraint=constraint,
                scope=scope))

    def _rejection_constraint(self, request: TenantRequest) -> str:
        """Which constraint bound a rejection (see
        :mod:`repro.placement.audit`).

        ``delay`` maps to the paper's second queueing constraint (summed
        queue capacities along the path must stay within the delay
        guarantee): either no scope satisfies it at all, or the scope it
        allows is too narrow to hold the tenant even though slots exist
        elsewhere.  ``queue_bound`` is the residual class: slots existed
        within an allowed scope yet no arrangement passed the per-port
        checks (for managers without port checks it also covers
        structural failures such as fault-domain spreading).
        """
        allowed = self._allowed_scope(request)
        if allowed is None:
            return CONSTRAINT_DELAY
        if self._total_free < request.n_vms:
            return CONSTRAINT_CAPACITY
        if not self._scope_has_room(allowed, request.n_vms):
            return CONSTRAINT_DELAY
        return CONSTRAINT_QUEUE_BOUND

    def _scope_has_room(self, scope: str, n_vms: int) -> bool:
        """Whether any single domain of ``scope`` has ``n_vms`` free slots."""
        if scope == "cluster":
            return True  # the caller already checked _total_free
        if scope == "pod":
            return max(self._pod_free) >= n_vms
        index = self._server_free if scope == "server" else self._rack_free
        return next(index.at_least(n_vms), None) is not None

    def remove(self, tenant_id: int) -> None:
        """Release a tenant's slots and reservations (exactly).

        Every affected port's totals are rebuilt from the surviving
        registry entries rather than decremented, so release is exact:
        the port ends bit-identical to one that never saw the tenant
        (the placement property tests pin this).  Slots returning to a
        cordoned server stay withheld from the free pool.
        """
        placement = self.placements.pop(tenant_id, None)
        if placement is None:
            raise KeyError(f"tenant {tenant_id} is not placed")
        # Ports before slots: a server whose last slot returns is pristine
        # only if its two ports have emptied, and _change_slots looks.
        key = ("tenant", tenant_id)
        for port_id, _contribution in self._commits.pop(tenant_id):
            registry = self._port_registry[port_id]
            del registry[key]
            self.states[port_id].reset_totals(registry.values())
        for server, count in placement.vms_per_server().items():
            self._change_slots(server, count)
            self._server_tenants[server].remove(tenant_id)
            if server in self._cordoned:
                self._change_slots(server, -count)
                self._cordoned[server] += count
        self.reservation_version += 1

    def _change_slots(self, server: int, delta: int) -> None:
        """Adjust one server's free slots and every cached total."""
        topo = self.topology
        before = self.free_slots[server]
        after = before + delta
        self.free_slots[server] = after
        self._server_free.add(server, delta)
        rack = server // topo.servers_per_rack
        pod = rack // topo.racks_per_pod
        self._rack_free.add(rack, delta)
        self._pod_free[pod] += delta
        self._total_free += delta
        full = topo.slots_per_server
        if before == full and after < full:
            self._rack_touched[rack] += 1
            self._pod_touched[pod] += 1
            self._pristine[server] = False
        elif before < full and after == full:
            self._rack_touched[rack] -= 1
            self._pod_touched[pod] -= 1
            self._refresh_pristine(server)

    def _refresh_pristine(self, server: int) -> None:
        self._pristine[server] = (
            self.free_slots[server] == self.topology.slots_per_server
            and self._nic_states[server].is_empty
            and self._tor_down_states[server].is_empty)

    def _reservation_changed(self, port_id: int) -> None:
        """A non-tenant reservation came or went at ``port_id``."""
        self.reservation_version += 1
        port = self.states[port_id].port
        if port.kind is PortKind.NIC_UP or port.kind is PortKind.TOR_DOWN:
            self._refresh_pristine(port.index)

    # -- fault integration -------------------------------------------------------

    def cordon_server(self, server: int) -> int:
        """Withhold a crashed server's free slots from placement.

        Returns the number of slots withheld.  Idempotent; slots released
        onto a cordoned server later (see :meth:`remove`) stay withheld
        until :meth:`uncordon_server`.
        """
        if not 0 <= server < self.topology.n_servers:
            raise ValueError(f"server {server} out of range")
        if server in self._cordoned:
            return 0
        free = self.free_slots[server]
        if free:
            self._change_slots(server, -free)
        self._cordoned[server] = free
        return free

    def uncordon_server(self, server: int) -> int:
        """Return a repaired server's withheld slots to the free pool."""
        freed = self._cordoned.pop(server, 0)
        if freed:
            self._change_slots(server, freed)
        return freed

    @property
    def cordoned_servers(self) -> List[int]:
        """Ids of servers currently fenced off from placement."""
        return sorted(self._cordoned)

    def reserve_capacity(self, port_id: int, contribution: Contribution,
                         key: str) -> None:
        """Register a non-tenant reservation (a fault "poison") at a port.

        Degraded-mode admission works by reserving the *lost* fraction of
        a faulted port's capacity through the same registry tenant
        commits use, so the existing admission checks automatically
        reject placements the degraded port cannot carry -- and exact
        release keeps working (a rebuild folds poisons like any other
        contribution).
        """
        registry = self._port_registry[port_id]
        rkey = ("reserve", key)
        if rkey in registry:
            raise ValueError(f"reservation {key!r} already held "
                             f"at port {port_id}")
        registry[rkey] = contribution
        self.states[port_id].add(contribution)
        self._reservation_changed(port_id)

    def release_capacity(self, port_id: int, key: str) -> None:
        """Drop a :meth:`reserve_capacity` reservation, rebuilding exactly."""
        registry = self._port_registry[port_id]
        rkey = ("reserve", key)
        if rkey not in registry:
            raise KeyError(f"no reservation {key!r} at port {port_id}")
        del registry[rkey]
        self.states[port_id].reset_totals(registry.values())
        self._reservation_changed(port_id)

    def tenants_on_server(self, server: int) -> List[int]:
        """Tenants with at least one VM placed on ``server``, ascending."""
        return sorted(self._server_tenants[server])

    @property
    def used_slots(self) -> int:
        """VM slots currently occupied."""
        return self.topology.n_slots - self._total_free

    @property
    def occupancy(self) -> float:
        """Fraction of VM slots currently in use."""
        return self.used_slots / self.topology.n_slots

    def admitted_fraction(self, tenant_class: Optional[TenantClass] = None
                          ) -> float:
        """Fraction of requests admitted, overall or per class."""
        if tenant_class is None:
            total = self.accepted + self.rejected
            return self.accepted / total if total else 1.0
        acc = self.accepted_by_class.get(tenant_class, 0)
        rej = self.rejected_by_class.get(tenant_class, 0)
        return acc / (acc + rej) if acc + rej else 1.0

    # -- search ------------------------------------------------------------------

    def _find_assignment(self, request: TenantRequest
                         ) -> Optional[Dict[int, int]]:
        allowed = self._allowed_scope(request)
        if allowed is None:
            return None
        if self._total_free < request.n_vms:
            return None  # not enough slots anywhere: every scope fails
        for scope in SCOPES[:SCOPES.index(allowed) + 1]:
            assignment = self._search_scope(request, scope)
            if assignment is not None:
                return assignment
        return None

    def _search_scope(self, request: TenantRequest, scope: str
                      ) -> Optional[Dict[int, int]]:
        """First fit over the domains of ``scope``, in ascending order.

        Domains come from the free-slot indexes, so only servers / racks /
        pods that can hold the whole tenant are ever visited.
        """
        topo = self.topology
        n_vms = request.n_vms
        if scope == "server":
            if self.min_fault_domains > 1 and n_vms > 1:
                return None  # a lone server is a single fault domain
            for server in self._server_free.at_least(n_vms):
                assignment = {server: n_vms}
                if self._validate(request, assignment):
                    return assignment
            return None
        if scope == "rack":
            domains: Iterable[int] = self._rack_free.at_least(n_vms)
            touched: Sequence[int] = self._rack_touched
            span = topo.servers_per_rack
        elif scope == "pod":
            domains = [pod for pod, free in enumerate(self._pod_free)
                       if free >= n_vms]
            touched = self._pod_touched
            span = topo.racks_per_pod * topo.servers_per_rack
        else:
            # _find_assignment already saw _total_free >= n_vms; the one
            # cluster domain is untouched iff no slot is in use.
            domains, touched, span = (0,), (self.used_slots,), topo.n_servers
        free_slots = self.free_slots
        pristine_failed = False
        for domain in domains:
            pristine = touched[domain] == 0
            if pristine_failed and pristine:
                # An identical untouched domain already failed; all empty
                # domains of this scope are interchangeable.
                continue
            start = domain * span
            # The domain's non-full servers (a free count is truthy).
            available = list(compress(
                range(start, start + span),
                free_slots[start:start + span]))
            for strategy in _STRATEGIES:
                assignment = self._fill(request, available, strategy,
                                        scope)
                if assignment and self._validate(request, assignment):
                    return assignment
            if pristine:
                pristine_failed = True
        return None

    def _fill(self, request: TenantRequest, available: Sequence[int],
              strategy: str, scope: str) -> Optional[Dict[int, int]]:
        """Distribute all N VMs over the ``available`` (non-full) servers;
        ``None`` if they don't fit.

        ``slack`` is the free slots still ahead minus the VMs still to
        place: once negative, VMs must be left over whatever the later
        probes say, and probes only fill the contribution memo, so
        returning there drops probes but changes no decision.
        """
        remaining = request.n_vms
        assignment: Dict[int, int] = {}
        k_estimate = max(1, len(available) - 1)
        pristine = self._pristine
        pristine_failed = False
        free_slots = self.free_slots
        slack = sum(map(free_slots.__getitem__, available)) - remaining
        for position, server in enumerate(available):
            if remaining == 0:
                break
            if slack < 0:
                return None
            free = free_slots[server]
            if pristine_failed and pristine[server]:
                slack -= free
                continue  # identical to an empty server that failed
            want = min(remaining, free)
            if self.min_fault_domains > 1:
                want = min(want, math.ceil(request.n_vms
                                           / self.min_fault_domains))
            if strategy == "balanced":
                servers_left = len(available) - position
                want = min(want, math.ceil(remaining / servers_left))
            placed = self._max_vms_on_server(request, server, want,
                                             k_estimate, scope)
            if placed:
                assignment[server] = placed
                remaining -= placed
            elif pristine[server]:
                pristine_failed = True
            slack -= free - placed
        if remaining:
            return None
        return assignment

    def _max_vms_on_server(self, request: TenantRequest, server: int,
                           want: int, k_estimate: int, scope: str) -> int:
        """Largest ``m <= want`` passing this server's two port checks."""
        if not self._checks_ports():
            return want
        if self._server_ok(request, server, want, k_estimate, scope):
            return want  # uncongested common case: one probe
        if want <= 1:
            return 0
        if 2 * want <= request.n_vms:
            # Monotone regime: every probed m sits on the rising half of
            # the tightened hose min(m, N-m), so the uplink contribution
            # grows componentwise with m and ok(m) is non-increasing, and
            # the largest passing m binary-searches in O(log want).  (The
            # downlink check mixes a growing bandwidth term with shrinking
            # burst/slack terms; the differential and property tests under
            # tests/placement/ assert the decisions equal the seed's
            # linear scan, tests/oracles/seed_admission.py.)
            lo, hi = 0, want - 1  # lo: known-good floor (0 = none)
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if self._server_ok(request, server, mid, k_estimate,
                                   scope):
                    lo = mid
                else:
                    hi = mid - 1
            return lo
        for m in range(want - 1, 0, -1):
            if self._server_ok(request, server, m, k_estimate, scope):
                return m
        return 0

    def _server_ok(self, request: TenantRequest, server: int, m: int,
                   k_estimate: int, scope: str) -> bool:
        # The memo probes are inlined (rather than going through
        # _contribution) because this runs for every (server, m) the fill
        # loop tries; _contribution still owns the miss path and stores
        # under the same (m, k, kind.value, scope) keys.
        memo = self._contribution_memo
        up = memo.get((m, 1, _NIC_UP, scope))
        if up is None:
            up = self._contribution(request, m, 1, PortKind.NIC_UP, scope)
        if not self._port_ok(self._nic_states[server], up):
            return False
        n_other = request.n_vms - m
        down = memo.get((n_other, k_estimate, _TOR_DOWN, scope))
        if down is None:
            down = self._contribution(request, n_other, k_estimate,
                                      PortKind.TOR_DOWN, scope)
        return self._port_ok(self._tor_down_states[server], down)

    # -- validation and commit ------------------------------------------------------

    def _validate(self, request: TenantRequest,
                  assignment: Dict[int, int]) -> bool:
        if not self._checks_ports():
            return True
        for port_id, contribution in self._port_contributions(request,
                                                              assignment):
            if not self._port_ok(self.states[port_id], contribution):
                return False
        return True

    def _commit(self, request: TenantRequest,
                assignment: Dict[int, int]) -> Placement:
        vm_servers: List[int] = []
        for server, count in sorted(assignment.items()):
            if count > self.free_slots[server]:
                raise RuntimeError("assignment exceeds free slots")
            self._change_slots(server, -count)
            self._server_tenants[server].append(request.tenant_id)
            vm_servers.extend([server] * count)
        commits = list(self._port_contributions(request, assignment))
        key = ("tenant", request.tenant_id)
        for port_id, contribution in commits:
            self.states[port_id].add(contribution)
            self._port_registry[port_id][key] = contribution
        placement = Placement(request=request, vm_servers=vm_servers)
        self.placements[request.tenant_id] = placement
        self._commits[request.tenant_id] = commits
        self.reservation_version += 1
        return placement

    def _port_contributions(self, request: TenantRequest,
                            assignment: Dict[int, int]
                            ) -> Iterable[Tuple[int, Contribution]]:
        """Exact per-port contributions for a complete assignment.

        Yields ``(port_id, contribution)`` for every port that carries this
        tenant's traffic, with the true sending-server counts behind each
        port.  Used both to validate and to commit/release, so reservations
        always balance.
        """
        if request.guarantee is None or not self._checks_ports():
            return
        scope = self.topology.span(assignment)
        for port, m_senders, k_servers in self.topology.hose_cuts(assignment):
            yield port.port_id, self._contribution(
                request, m_senders, k_servers, port.kind, scope)

    def _contribution(self, request: TenantRequest, m_senders: int,
                      k_servers: int, kind: PortKind,
                      scope: str = "cluster") -> Contribution:
        """Hose-model contribution of ``m`` sender VMs at one port kind.

        Bandwidth follows the tightened hose aggregate
        ``min(m, N-m) * B``; bursts are not destination-limited so all
        ``m`` senders may burst at once (``m * S``), inflated by worst-case
        upstream bunching; the burst drain rate is capped by the senders'
        physical links (``k_servers`` NICs).

        Within one ``place`` call the result depends only on
        ``(m_senders, k_servers, kind, scope)``, so it is memoised per
        request (the memo is cleared on entry to :meth:`place`).
        """
        # Keyed by kind.value: hashing an Enum member goes through a
        # Python-level __hash__, hashing its interned string does not.
        key = (m_senders, k_servers, kind.value, scope)
        cached = self._contribution_memo.get(key)
        if cached is not None:
            return cached
        upstream = self._upstream_qcap[(kind.value, scope)]
        guarantee = request.guarantee
        n = request.n_vms
        if guarantee is None or m_senders <= 0 or m_senders >= n:
            contribution = Contribution(0.0, 0.0, 0.0, 0.0)
        else:
            if self.hose_tightening:
                bandwidth = (min(m_senders, n - m_senders)
                             * guarantee.bandwidth)
            else:
                bandwidth = m_senders * guarantee.bandwidth
            slack = m_senders * units.MTU
            burst = (m_senders * guarantee.burst + bandwidth * upstream)
            burst = max(burst, slack)
            raw_peak = m_senders * guarantee.effective_peak_rate
            capped = min(raw_peak,
                         max(k_servers, 1) * self.topology.link_rate)
            peak = max(bandwidth, capped)
            contribution = Contribution(bandwidth=bandwidth, burst=burst,
                                        peak_rate=peak, packet_slack=slack)
        self._contribution_memo[key] = contribution
        return contribution

    # -- bookkeeping ---------------------------------------------------------------

    def _count(self, request: TenantRequest, admitted: bool) -> None:
        bucket = (self.accepted_by_class if admitted
                  else self.rejected_by_class)
        bucket[request.tenant_class] = bucket.get(request.tenant_class,
                                                  0) + 1
        if admitted:
            self.accepted += 1
        else:
            self.rejected += 1
