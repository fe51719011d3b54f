"""Multi-rooted tree datacenter topology (pods -> racks -> servers).

The physical multi-rooted tree is modelled as a logical single-rooted tree
whose uplink capacities fold in the aggregate capacity of the parallel
roots, the standard abstraction used by Oktopus-style placement work.  Each
level can be oversubscribed (the paper's evaluation uses 1:5 per level).

Every directed hop is a :class:`~repro.topology.switch.Port`; packets from
server ``s`` to server ``t`` cross, in order:

* same server: no network ports (hypervisor vswitch only);
* same rack: ``nic_up(s), tor_down(t)``;
* same pod: ``nic_up(s), tor_up(rack_s), agg_down(rack_t), tor_down(t)``;
* cross pod: ``nic_up(s), tor_up(rack_s), agg_up(pod_s), core_down(pod_t),
  agg_down(rack_t), tor_down(t)``.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro import units
from repro.topology.switch import Port, PortKind

#: Placement scopes, narrowest first (used by the greedy search).
SCOPES = ("server", "rack", "pod", "cluster")


class TreeTopology:
    """A three-tier tree with VM slots at the leaves.

    Args:
        n_pods: pods in the datacenter.
        racks_per_pod: racks in each pod.
        servers_per_rack: servers in each rack.
        slots_per_server: VM slots per server.
        link_rate: server NIC / ToR port rate in bytes per second.
        oversubscription: per-level oversubscription factor (1.0 = full
            bisection; the paper uses 5.0).
        buffer_bytes: per-port output buffer (312 KB in the paper, a
            shallow-buffered commodity switch).
    """

    def __init__(self, n_pods: int = 1, racks_per_pod: int = 1,
                 servers_per_rack: int = 4, slots_per_server: int = 4,
                 link_rate: float = units.gbps(10),
                 oversubscription: float = 1.0,
                 buffer_bytes: float = 312 * units.KB) -> None:
        if min(n_pods, racks_per_pod, servers_per_rack,
               slots_per_server) < 1:
            raise ValueError("all topology dimensions must be >= 1")
        if oversubscription < 1.0:
            raise ValueError("oversubscription factor must be >= 1")
        self.n_pods = n_pods
        self.racks_per_pod = racks_per_pod
        self.servers_per_rack = servers_per_rack
        self.slots_per_server = slots_per_server
        self.link_rate = link_rate
        self.oversubscription = oversubscription
        self.buffer_bytes = buffer_bytes

        self.n_racks = n_pods * racks_per_pod
        self.n_servers = self.n_racks * servers_per_rack
        self.n_slots = self.n_servers * slots_per_server

        # Uplinks carry the level's aggregate capacity divided by the
        # oversubscription factor, but are never slower than one server
        # link (the physical trunk is at least one cable).
        self.tor_uplink_rate = max(
            link_rate,
            servers_per_rack * link_rate / oversubscription)
        self.agg_uplink_rate = max(
            link_rate,
            racks_per_pod * self.tor_uplink_rate / oversubscription)

        self._ports: List[Port] = []
        self._nic_up: List[Port] = []
        self._tor_down: List[Port] = []
        self._tor_up: List[Port] = []
        self._agg_down: List[Port] = []
        self._agg_up: List[Port] = []
        self._core_down: List[Port] = []
        self._build_ports()
        self._assign_upstream_queue_capacities()

    # -- construction ------------------------------------------------------

    def _new_port(self, kind: PortKind, capacity: float, index: int) -> Port:
        port = Port(port_id=len(self._ports), kind=kind, capacity=capacity,
                    buffer_bytes=self.buffer_bytes, index=index)
        self._ports.append(port)
        return port

    def _build_ports(self) -> None:
        for server in range(self.n_servers):
            self._nic_up.append(
                self._new_port(PortKind.NIC_UP, self.link_rate, server))
            self._tor_down.append(
                self._new_port(PortKind.TOR_DOWN, self.link_rate, server))
        for rack in range(self.n_racks):
            self._tor_up.append(
                self._new_port(PortKind.TOR_UP, self.tor_uplink_rate, rack))
            self._agg_down.append(
                self._new_port(PortKind.AGG_DOWN, self.tor_uplink_rate,
                               rack))
        for pod in range(self.n_pods):
            self._agg_up.append(
                self._new_port(PortKind.AGG_UP, self.agg_uplink_rate, pod))
            self._core_down.append(
                self._new_port(PortKind.CORE_DOWN, self.agg_uplink_rate,
                               pod))

    def _assign_upstream_queue_capacities(self) -> None:
        """Worst-case queue capacity accumulated before each port kind.

        Used to bound egress burst inflation (section 4.2.2): traffic
        reaching a port may have been bunched by every buffered port it
        crossed earlier.
        """
        def qcap(ports: Sequence[Port]) -> float:
            return ports[0].queue_capacity if ports else 0.0

        nic = qcap(self._nic_up)
        tor_up = qcap(self._tor_up) if self.n_servers > self.servers_per_rack or self.n_racks > 1 else 0.0
        agg_up = qcap(self._agg_up) if self.n_pods > 1 else 0.0
        core = qcap(self._core_down) if self.n_pods > 1 else 0.0

        for port in self._tor_up:
            port.upstream_queue_capacity = nic
        for port in self._agg_up:
            port.upstream_queue_capacity = nic + tor_up
        for port in self._core_down:
            port.upstream_queue_capacity = nic + tor_up + agg_up
        agg_down_upstream = nic + tor_up
        if self.n_pods > 1:
            agg_down_upstream = max(agg_down_upstream,
                                    nic + tor_up + agg_up + core)
        for port in self._agg_down:
            port.upstream_queue_capacity = agg_down_upstream
        tor_down_upstream = nic
        if self.n_racks > 1:
            tor_down_upstream = max(
                tor_down_upstream,
                agg_down_upstream + qcap(self._agg_down))
        for port in self._tor_down:
            port.upstream_queue_capacity = tor_down_upstream

    # -- structure queries --------------------------------------------------

    def rack_of(self, server: int) -> int:
        """Rack index of a server."""
        self._check_server(server)
        return server // self.servers_per_rack

    def pod_of(self, server: int) -> int:
        """Pod index of a server."""
        return self.rack_of(server) // self.racks_per_pod

    def servers_in_rack(self, rack: int) -> range:
        """Server ids in one rack."""
        if not 0 <= rack < self.n_racks:
            raise ValueError(f"rack {rack} out of range")
        start = rack * self.servers_per_rack
        return range(start, start + self.servers_per_rack)

    def racks_in_pod(self, pod: int) -> range:
        """Rack indices in one pod."""
        if not 0 <= pod < self.n_pods:
            raise ValueError(f"pod {pod} out of range")
        start = pod * self.racks_per_pod
        return range(start, start + self.racks_per_pod)

    def servers_in_pod(self, pod: int) -> range:
        """Server ids in one pod."""
        racks = self.racks_in_pod(pod)
        return range(racks.start * self.servers_per_rack,
                     racks.stop * self.servers_per_rack)

    def _check_server(self, server: int) -> None:
        if not 0 <= server < self.n_servers:
            raise ValueError(f"server {server} out of range")

    # -- port access ---------------------------------------------------------

    @property
    def ports(self) -> Tuple[Port, ...]:
        """Every port of the tree."""
        return tuple(self._ports)

    def nic_up(self, server: int) -> Port:
        """A server's NIC uplink port."""
        self._check_server(server)
        return self._nic_up[server]

    def tor_down(self, server: int) -> Port:
        """The ToR downlink port toward a server."""
        self._check_server(server)
        return self._tor_down[server]

    def tor_up(self, rack: int) -> Port:
        """A rack's ToR uplink port."""
        return self._tor_up[rack]

    def agg_down(self, rack: int) -> Port:
        """The aggregation downlink port toward a rack."""
        return self._agg_down[rack]

    def agg_up(self, pod: int) -> Port:
        """A pod's aggregation uplink port."""
        return self._agg_up[pod]

    def core_down(self, pod: int) -> Port:
        """The core downlink port toward a pod."""
        return self._core_down[pod]

    # -- paths ----------------------------------------------------------------

    def path_ports(self, src_server: int, dst_server: int) -> List[Port]:
        """Ordered directed ports from ``src_server`` to ``dst_server``."""
        self._check_server(src_server)
        self._check_server(dst_server)
        if src_server == dst_server:
            return []
        src_rack, dst_rack = self.rack_of(src_server), self.rack_of(dst_server)
        if src_rack == dst_rack:
            return [self._nic_up[src_server], self._tor_down[dst_server]]
        src_pod, dst_pod = src_rack // self.racks_per_pod, dst_rack // self.racks_per_pod
        if src_pod == dst_pod:
            return [self._nic_up[src_server], self._tor_up[src_rack],
                    self._agg_down[dst_rack], self._tor_down[dst_server]]
        return [self._nic_up[src_server], self._tor_up[src_rack],
                self._agg_up[src_pod], self._core_down[dst_pod],
                self._agg_down[dst_rack], self._tor_down[dst_server]]

    def span(self, servers: Iterable[int]) -> str:
        """How widely ``servers`` spread: server/rack/pod/cluster."""
        servers = set(servers)
        if len(servers) == 1:
            return "server"
        racks = {self.rack_of(s) for s in servers}
        if len(racks) == 1:
            return "rack"
        pods = {rack // self.racks_per_pod for rack in racks}
        return "pod" if len(pods) == 1 else "cluster"

    def hose_cuts(self, assignment: Mapping[int, int]
                  ) -> Iterator[Tuple[Port, int, int]]:
        """Every directed port a tenant's hose traffic can cross.

        ``assignment`` maps server id -> number of the tenant's VMs
        there.  Yields ``(port, m_senders, k_servers)``: the ``m`` VMs on
        ``k`` servers that sit on the sending side of ``port`` (section
        4.2.2's ``A_{min(m, N-m) * B, m * S}`` takes ``m``; ``k`` caps
        the burst's arrival rate at the senders' physical links).  Order:
        NIC-up and ToR-down per server in ``assignment`` order, then
        ToR-up and agg-down per rack if more than one rack is used, then
        agg-up and core-down per pod likewise.  Yields nothing for a
        single server, whose traffic never leaves the hypervisor.
        """
        if len(assignment) <= 1:
            return
        n_vms = sum(assignment.values())
        n_servers = len(assignment)
        rack_vms: Dict[int, int] = {}
        rack_servers: Dict[int, int] = {}
        pod_vms: Dict[int, int] = {}
        pod_servers: Dict[int, int] = {}
        for server, count in assignment.items():
            rack = self.rack_of(server)
            pod = rack // self.racks_per_pod
            rack_vms[rack] = rack_vms.get(rack, 0) + count
            rack_servers[rack] = rack_servers.get(rack, 0) + 1
            pod_vms[pod] = pod_vms.get(pod, 0) + count
            pod_servers[pod] = pod_servers.get(pod, 0) + 1
        for server, count in assignment.items():
            yield self._nic_up[server], count, 1
            yield self._tor_down[server], n_vms - count, n_servers - 1
        for vms, servers, up, down in (
                (rack_vms, rack_servers, self._tor_up, self._agg_down),
                (pod_vms, pod_servers, self._agg_up, self._core_down)):
            if len(vms) > 1:
                for index, count in vms.items():
                    yield up[index], count, servers[index]
                    yield (down[index], n_vms - count,
                           n_servers - servers[index])

    def path_queue_capacity(self, src_server: int, dst_server: int) -> float:
        """Sum of queue capacities along the path (Silo's delay check)."""
        return sum(p.queue_capacity
                   for p in self.path_ports(src_server, dst_server))

    def scope_queue_capacity(self, scope: str) -> float:
        """Worst-case path queue capacity if all VMs stay within ``scope``.

        This is the left side of Silo's second constraint
        ``sum Q-capacity <= d`` for the widest path the scope allows.
        """
        if scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
        if scope == "server":
            return 0.0
        hops: List[Port] = []
        if scope == "rack":
            hops = [self._nic_up[0], self._tor_down[0]]
        elif scope == "pod":
            if self.racks_per_pod == 1:
                return self.scope_queue_capacity("rack")
            hops = [self._nic_up[0], self._tor_up[0], self._agg_down[0],
                    self._tor_down[0]]
        else:
            if self.n_pods == 1:
                return self.scope_queue_capacity("pod")
            hops = [self._nic_up[0], self._tor_up[0], self._agg_up[0],
                    self._core_down[0], self._agg_down[0],
                    self._tor_down[0]]
        return sum(p.queue_capacity for p in hops)

    def upstream_queue_capacity(self, kind: PortKind, scope: str) -> float:
        """Worst queue capacity accumulated before a port of ``kind``.

        ``scope`` is how widely the traffic's endpoints are spread
        ("rack", "pod" or "cluster"): traffic between VMs confined to one
        rack reaches a TOR_DOWN port having crossed only the sender NIC,
        while cluster-wide traffic may have been bunched at every level.
        Used to bound egress burst inflation per tenant (section 4.2.2).
        """
        if scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
        nic = self._nic_up[0].queue_capacity
        tor_up = self._tor_up[0].queue_capacity
        agg_down = self._agg_down[0].queue_capacity
        agg_up = self._agg_up[0].queue_capacity
        core = self._core_down[0].queue_capacity
        if kind is PortKind.NIC_UP:
            return 0.0
        if kind is PortKind.TOR_UP:
            return nic
        if kind is PortKind.AGG_UP:
            return nic + tor_up
        if kind is PortKind.CORE_DOWN:
            return nic + tor_up + agg_up
        if kind is PortKind.AGG_DOWN:
            if scope == "cluster" and self.n_pods > 1:
                return nic + tor_up + agg_up + core
            return nic + tor_up
        # PortKind.TOR_DOWN
        if scope in ("server", "rack"):
            return nic
        if scope == "pod" or self.n_pods == 1:
            return nic + tor_up + agg_down
        return nic + tor_up + agg_up + core + agg_down

    def widest_scope_for_delay(self, delay: float) -> str:
        """The widest placement scope whose paths satisfy a delay guarantee.

        Raises ``ValueError`` when not even same-server placement fits
        (cannot happen for positive delays, since same-server traffic never
        crosses a network port in this model).
        """
        widest = None
        for scope in SCOPES:
            if self.scope_queue_capacity(scope) <= delay:
                widest = scope
        if widest is None:
            raise ValueError(f"no scope satisfies delay {delay}")
        return widest

    def __repr__(self) -> str:
        return (f"TreeTopology({self.n_pods} pods x {self.racks_per_pod} "
                f"racks x {self.servers_per_rack} servers x "
                f"{self.slots_per_server} slots, "
                f"{units.to_gbps(self.link_rate):.0f}Gbps links, "
                f"1:{self.oversubscription:.0f} oversub)")
