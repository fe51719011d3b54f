# Differential-test oracle: Silo admission as the seed evaluated it, i.e.
# what ``fast_paths=False`` selected before that option left the package.
# The bodies below are the ``*_reference`` methods of
# ``src/repro/placement/state.py`` and the ``not self.fast_paths`` branches
# of ``src/repro/placement/base.py`` / ``silo.py``, copied from
# ``git show 1587c51:src/repro/placement/`` and re-hung as free functions
# over ``PortState.aggregate_curve`` and as overrides on a subclass.
# ``tests/placement/test_fast_admission.py``,
# ``tests/placement/test_seed_manager_differential.py`` and
# ``benchmarks/bench_hotpaths.py`` compare the live path with it (decisions
# and layouts identical, bounds to 1e-9).  Do not optimise or "fix" this
# file: it is the reference, not product code.
"""Curve-per-probe port bounds and the linear-scan Silo placement manager.

The shipped :class:`~repro.placement.state.PortState` evaluates the
dual-rate aggregate's backlog/delay in closed form
(:mod:`repro.netcalc.fastbounds`); the functions here rebuild the
:class:`~repro.netcalc.curves.Curve` per probe and run the generic
network-calculus bounds, exactly as the seed did.  The shipped
:class:`~repro.placement.base.PlacementManager` skips domains through
cached free-slot totals, binary-searches per-server VM counts and memoises
contributions; :class:`SeedSiloPlacementManager` restores the seed's scans.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Optional, Sequence

from repro import units
from repro.core.tenant import TenantRequest
from repro.netcalc.bounds import backlog_bound, delay_bound
from repro.netcalc.service import RateLatencyService
from repro.placement import SiloPlacementManager
from repro.placement.state import Contribution, PortState
from repro.topology.switch import PortKind
from repro.topology.tree import SCOPES


@functools.lru_cache(maxsize=None)
def _service(capacity: float) -> RateLatencyService:
    """The seed built one service object per port; one per distinct
    capacity keeps ``bench_hotpaths``' reference timings what they were."""
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

    def _single_server_candidates(self, n_vms: int) -> Iterable[int]:
        yield from range(self.topology.n_servers)

    def _domain_free(self, scope: str, domain: int) -> int:
        return sum(self.free_slots[s]
                   for s in self._domain_servers(scope, domain))

    def _domain_pristine_id(self, scope: str, domain: int) -> bool:
        return self._domain_pristine(self._domain_servers(scope, domain))

    def _domain_pristine(self, servers: Sequence[int]) -> bool:
        """True when no server in the domain hosts anything yet."""
        full = self.topology.slots_per_server
        return all(self.free_slots[s] == full for s in servers)

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
