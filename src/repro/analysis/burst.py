"""Worst-case burst convergence analysis (the paper's Fig. 5 arithmetic).

Section 4.2.1 sizes buffers with a deliberately simple model: if the VMs
behind ``k`` sender links simultaneously burst ``S_total`` bytes toward one
port, the bytes arrive at the senders' aggregate line rate ``R`` and drain
at the port rate ``C``, queuing ``S_total * (1 - C / R)`` bytes.  This
module reproduces exactly that arithmetic for a concrete placement so the
bandwidth-aware-vs-Silo contrast of Fig. 5 can be reported in the paper's
own terms (the full admission control uses the rigorous curves in
:mod:`repro.netcalc` instead, which also account for sustained bandwidth
and packet slack).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Tuple

from repro.core.guarantees import NetworkGuarantee
from repro.topology.switch import Port
from repro.topology.tree import TreeTopology


@dataclass(frozen=True)
class PortBurst:
    """Worst-case simultaneous burst converging on one port."""

    port: Port
    burst_bytes: float
    arrival_rate: float

    @property
    def backlog_bytes(self) -> float:
        """Bytes the port must buffer while the burst arrives."""
        if self.arrival_rate <= self.port.capacity:
            return 0.0
        return self.burst_bytes * (1.0 - self.port.capacity
                                   / self.arrival_rate)

    @property
    def overflows(self) -> bool:
        """Whether the worst-case backlog exceeds the port's buffer."""
        return self.backlog_bytes > self.port.buffer_bytes


def burst_convergence(topology: TreeTopology,
                      assignment: Mapping[int, int],
                      guarantee: NetworkGuarantee) -> List[PortBurst]:
    """Per-port worst-case burst for one tenant's placement.

    ``assignment`` maps server id -> number of the tenant's VMs there.
    For every port that tenant traffic can cross
    (:meth:`TreeTopology.hose_cuts`), the worst case is all ``m`` VMs on
    the sending side bursting ``S`` each toward the other side, arriving
    at ``min(m * Bmax, k_senders * link_rate)``.
    """
    peak = guarantee.effective_peak_rate
    return [PortBurst(port=port, burst_bytes=m_senders * guarantee.burst,
                      arrival_rate=min(m_senders * peak,
                                       k_servers * topology.link_rate))
            for port, m_senders, k_servers in topology.hose_cuts(assignment)]


def worst_port_backlog(topology: TreeTopology,
                       assignment: Mapping[int, int],
                       guarantee: NetworkGuarantee
                       ) -> Tuple[float, PortBurst]:
    """The hottest port under the Fig. 5 arithmetic.

    Returns ``(backlog_bytes, port_burst)`` for the port needing the most
    buffering.  Raises ``ValueError`` for single-server placements, which
    produce no network bursts at all.
    """
    bursts = burst_convergence(topology, assignment, guarantee)
    if not bursts:
        raise ValueError("placement produces no cross-server traffic")
    worst = max(bursts, key=lambda b: b.backlog_bytes)
    return worst.backlog_bytes, worst
