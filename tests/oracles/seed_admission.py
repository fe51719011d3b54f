# Differential-test oracle: Silo admission as the seed evaluated it, i.e.
# what ``fast_paths=False`` selected before that option left the package.
# The port bounds are the ``*_reference`` methods of
# ``src/repro/placement/state.py`` copied from
# ``git show 1587c51:src/repro/placement/`` and re-hung as free functions
# over ``PortState.aggregate_curve``.  The manager's search
# (``_find_assignment`` / ``_search_scope`` / ``_domain_pristine`` /
# ``_fill`` / ``_max_vms_on_server`` / ``_contribution``) is the seed's,
# from ``git show 77b595e:src/repro/placement/base.py``: it walks every
# server and every domain, sums ``free_slots`` per domain and derives
# "pristine" from the port states on each visit.  It reads only the books
# (``free_slots``, ``states``, the topology) and none of the structures the
# shipped manager maintains beside them (``_server_free``, ``_rack_free``,
# ``_pod_free``, ``_*_touched``, ``_pristine``, ``_server_tenants``), so a
# drifting index cannot hide from it.
# ``tests/placement/test_fast_admission.py`` and
# ``tests/placement/test_seed_manager_differential.py`` compare the live
# path with it (decisions and layouts identical, bounds to 1e-9).  Do not optimise or "fix" this
# file: it is the reference, not product code.
"""Curve-per-probe port bounds and the linear-scan Silo placement manager.

The shipped :class:`~repro.placement.state.PortState` evaluates the
dual-rate aggregate's backlog/delay in closed form
(:mod:`repro.netcalc.fastbounds`); the functions here rebuild the
:class:`~repro.netcalc.curves.Curve` per probe and run the generic
network-calculus bounds, exactly as the seed did.  The shipped
:class:`~repro.placement.base.PlacementManager` finds servers and domains
through free-slot indexes, reads a maintained per-server pristine flag,
binary-searches per-server VM counts and memoises contributions;
:class:`SeedSiloPlacementManager` restores the seed's scans, and
:class:`SeedOktopusPlacementManager` runs them with Oktopus' checks.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Iterable, Optional, Sequence

from repro import units
from repro.core.tenant import TenantRequest
from repro.netcalc.bounds import backlog_bound, delay_bound
from repro.netcalc.service import RateLatencyService
from repro.placement import OktopusPlacementManager, SiloPlacementManager
from repro.placement.state import Contribution, PortState
from repro.topology.switch import PortKind
from repro.topology.tree import SCOPES

#: The two fill strategies tried, in order, within every domain.
_STRATEGIES = ("greedy", "balanced")


@functools.lru_cache(maxsize=None)
def _service(capacity: float) -> RateLatencyService:
    """The seed built one service object per port; one per distinct
    capacity is the same object without the per-probe construction."""
    return RateLatencyService(rate=capacity)


def queue_bound_reference(state: PortState,
                          extra: Optional[Contribution] = None) -> float:
    """Curve-based oracle for :meth:`PortState.queue_bound`."""
    return delay_bound(state.aggregate_curve(extra),
                       _service(state.port.capacity))


def backlog_reference(state: PortState,
                      extra: Optional[Contribution] = None) -> float:
    """Curve-based oracle for :meth:`PortState.backlog`."""
    return backlog_bound(state.aggregate_curve(extra),
                         _service(state.port.capacity))


def admits_reference(state: PortState, extra: Contribution) -> bool:
    """Curve-based oracle for :meth:`PortState.admits`."""
    if state.bandwidth + extra.bandwidth > state._capacity:
        return False
    return backlog_reference(state, extra) <= state._buffer_limit


class SeedSiloPlacementManager(SiloPlacementManager):
    """:class:`SiloPlacementManager` with every seed scan restored."""

    def _port_ok(self, state: PortState,
                 contribution: Contribution) -> bool:
        return admits_reference(state, contribution)

    def _find_assignment(self, request: TenantRequest
                         ) -> Optional[Dict[int, int]]:
        allowed = self._allowed_scope(request)
        if allowed is None:
            return None
        for scope in SCOPES[:SCOPES.index(allowed) + 1]:
            assignment = self._search_scope(request, scope)
            if assignment is not None:
                return assignment
        return None

    def _search_scope(self, request: TenantRequest, scope: str
                      ) -> Optional[Dict[int, int]]:
        topo = self.topology
        if scope == "server":
            if self.min_fault_domains > 1 and request.n_vms > 1:
                return None  # a lone server is a single fault domain
            for server in range(topo.n_servers):
                if self.free_slots[server] >= request.n_vms:
                    assignment = {server: request.n_vms}
                    if self._validate(request, assignment):
                        return assignment
            return None
        if scope == "rack":
            domains: Iterable[Sequence[int]] = (
                list(topo.servers_in_rack(r)) for r in range(topo.n_racks))
        elif scope == "pod":
            domains = (list(topo.servers_in_pod(p))
                       for p in range(topo.n_pods))
        else:
            domains = iter([list(range(topo.n_servers))])
        pristine_failed = False
        for servers in domains:
            if sum(self.free_slots[s] for s in servers) < request.n_vms:
                continue
            if pristine_failed and self._domain_pristine(servers):
                # An identical untouched domain already failed; all empty
                # domains of this scope are interchangeable.
                continue
            for strategy in _STRATEGIES:
                assignment = self._fill(request, servers, strategy, scope)
                if assignment and self._validate(request, assignment):
                    return assignment
            if self._domain_pristine(servers):
                pristine_failed = True
        return None

    def _domain_pristine(self, servers: Sequence[int]) -> bool:
        """True when no server in the domain hosts anything yet."""
        full = self.topology.slots_per_server
        return all(self.free_slots[s] == full for s in servers)

    def _fill(self, request: TenantRequest, servers: Sequence[int],
              strategy: str, scope: str) -> Optional[Dict[int, int]]:
        """Distribute all N VMs over ``servers``; ``None`` if they don't fit."""
        remaining = request.n_vms
        available = [s for s in servers if self.free_slots[s] > 0]
        assignment: Dict[int, int] = {}
        k_estimate = max(1, len(available) - 1)
        full = self.topology.slots_per_server
        pristine_failed = False
        for position, server in enumerate(available):
            if remaining == 0:
                break
            pristine = (self.free_slots[server] == full
                        and self.states[self.topology.nic_up(server)
                                        .port_id].is_empty
                        and self.states[self.topology.tor_down(server)
                                        .port_id].is_empty)
            if pristine and pristine_failed:
                continue  # identical to an empty server that just failed
            want = min(remaining, self.free_slots[server])
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
            elif pristine:
                pristine_failed = True
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
        for m in range(want - 1, 0, -1):
            if self._server_ok(request, server, m, k_estimate, scope):
                return m
        return 0

    def _contribution(self, request: TenantRequest, m_senders: int,
                      k_servers: int, kind: PortKind,
                      scope: str = "cluster") -> Contribution:
        # Recomputes from the topology every time, as the seed
        # implementation did (kept as the timing baseline); nothing is
        # stored, so the memo probes inlined in ``_server_ok`` always miss.
        upstream = self.topology.upstream_queue_capacity(kind, scope)
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
        return contribution


class SeedOktopusPlacementManager(SeedSiloPlacementManager):
    """The seed scans with Oktopus' bandwidth-only port check and its
    unlimited scope: the oracle for :class:`OktopusPlacementManager`."""

    _allowed_scope = OktopusPlacementManager._allowed_scope
    _port_ok = OktopusPlacementManager._port_ok
