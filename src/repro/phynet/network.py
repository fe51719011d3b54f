"""The simulated datacenter: ports, VMs, pacers, routing and delivery.

:class:`PacketNetwork` instantiates one :class:`~repro.phynet.port.OutputPort`
per directed port of a :class:`~repro.topology.tree.TreeTopology`, places
VMs on servers, and mediates every transmission:

* traffic from a paced VM (Silo / Oktopus) is released at the exact stamp
  its token-bucket hierarchy computes (section 4.3) and then contends in
  the real NIC queue;
* unpaced traffic (TCP / DCTCP / HULL baselines) is released immediately;
* intra-server traffic crosses only the hypervisor vswitch;
* an EyeQ-style coordinator periodically re-splits each tenant's hose
  bandwidth over its active VM pairs (the ``B_i`` rates of Fig. 8).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple, Type

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.pacer.eyeq import allocate_hose_rates
from repro.pacer.hierarchy import PacerConfig
from repro.core.engine import EventEngine
from repro.phynet.shaper import VMShaper
from repro.phynet.packet import PRIORITY_BEST_EFFORT, PRIORITY_GUARANTEED, Packet
from repro.phynet.port import DEFAULT_PROP_DELAY, OutputPort
from repro.phynet.transport.base import Transport
from repro.phynet.transport.tcp import TcpReno
from repro.topology.tree import TreeTopology

#: Fixed hypervisor vswitch latency for intra-server delivery.
VSWITCH_DELAY = 2 * units.MICROS

#: Intra-server copies go through the vswitch at memory speed, not
#: infinitely fast: modelling it as a finite-rate port keeps TCP windows
#: of co-located VM pairs bounded, like a real vmbus/vswitch would.
VSWITCH_RATE_FACTOR = 4.0
VSWITCH_BUFFER = 2 * units.MB

#: How often the EyeQ-style coordinator re-splits hose bandwidth.
COORDINATION_INTERVAL = 500 * units.MICROS

#: Bytes a VM's shaper may hold per destination before the guest is
#: backpressured (NDIS send-completion flow control in the prototype).
#: Per destination, like the per-queue limits of a multi-queue driver,
#: so one backlogged destination cannot starve the others.
PACER_QUEUE_LIMIT = 128 * units.KB


class VirtualMachine:
    """One placed VM, optionally behind a hypervisor pacer."""

    __slots__ = ("vm_id", "tenant_id", "server", "pacer", "priority",
                 "guarantee")

    def __init__(self, vm_id: int, tenant_id: int, server: int,
                 guarantee: Optional[NetworkGuarantee], priority: int):
        self.vm_id = vm_id
        self.tenant_id = tenant_id
        self.server = server
        #: The hypervisor shaper, attached by :meth:`PacketNetwork.add_vm`.
        self.pacer: Optional[VMShaper] = None
        self.guarantee = guarantee
        self.priority = priority


class PacketNetwork:
    """Glue between topology, ports, VMs and transports."""

    def __init__(self, topology: TreeTopology,
                 sim: Optional[EventEngine] = None,
                 prop_delay: float = DEFAULT_PROP_DELAY,
                 coordination: bool = True,
                 tracer=None):
        """Build the simulated network: plain drop-tail priority ports.

        The fabric does not know which scheme runs on it.  A registered
        :class:`~repro.mechanisms.base.Mechanism` that needs more
        (DCTCP's marking threshold, HULL's phantom queues) configures
        the ports of the network it builds and names its own transport;
        rate control lives in the hypervisor pacers attached per VM via
        :meth:`add_vm`.

        ``coordination=False`` disables the built-in oracle hose
        coordination loop (:meth:`_coordinate`); the EyeQ mechanism turns
        it off because its *distributed* control loop
        (:class:`repro.mechanisms.eyeq.EyeQController`) replaces it.

        ``tracer`` (a :class:`repro.obs.TraceSink`) turns on event tracing
        for every port and transport of this network; ``None`` keeps the
        zero-overhead path.
        """
        self.topology = topology
        # The shared event core by default; an injected ``sim`` (an engine
        # shared with another fidelity, or the seed loop the tests keep in
        # ``tests/oracles/seed_engine.py``) is honoured as long as it
        # speaks the same surface.
        self.sim = sim if sim is not None else EventEngine()
        self.coordination = coordination
        self.tracer = tracer
        if tracer is not None:
            self.sim.tracer = tracer

        self.ports: Dict[int, OutputPort] = {}
        for port in topology.ports:
            self.ports[port.port_id] = OutputPort(
                sim=self.sim, name=f"{port.kind.value}[{port.index}]",
                capacity=port.capacity, buffer_bytes=port.buffer_bytes,
                prop_delay=prop_delay, on_delivery=self._deliver,
                tracer=tracer)

        self.vms: Dict[int, VirtualMachine] = {}
        self.transports: Dict[Tuple[int, int], Transport] = {}
        self._tenant_vms: Dict[int, List[int]] = {}
        self._route_cache: Dict[Tuple[int, int], List[OutputPort]] = {}
        self._coordinating: Dict[int, bool] = {}
        self._ready_waiters: Dict[int, List[Any]] = {}
        self._vswitches: Dict[int, OutputPort] = {}

    # -- construction ----------------------------------------------------------

    def add_vm(self, vm_id: int, tenant_id: int, server: int,
               guarantee: Optional[NetworkGuarantee] = None,
               paced: bool = False,
               pacer_config: Optional[PacerConfig] = None,
               priority: int = PRIORITY_GUARANTEED) -> VirtualMachine:
        """Place a VM; with ``paced=True`` it runs behind a Silo pacer."""
        if vm_id in self.vms:
            raise ValueError(f"vm {vm_id} already exists")
        if not 0 <= server < self.topology.n_servers:
            raise ValueError(f"server {server} out of range")
        vm = VirtualMachine(vm_id, tenant_id, server, guarantee, priority)
        if paced:
            if pacer_config is None:
                if guarantee is None:
                    raise ValueError("a paced VM needs a guarantee or an "
                                     "explicit pacer config")
                pacer_config = PacerConfig.from_guarantee(guarantee)
            vm.pacer = VMShaper(
                self.sim, pacer_config,
                release=lambda packet, v=vm: self._shaper_release(packet, v))
        self.vms[vm_id] = vm
        self._tenant_vms.setdefault(tenant_id, []).append(vm_id)
        if vm.pacer is not None and guarantee is not None:
            self._start_coordination(tenant_id)
        return vm

    def transport(self, src_vm: int, dst_vm: int,
                  transport_class: Optional[Type[Transport]] = None
                  ) -> Transport:
        """The (unique) transport for an ordered VM pair, created on demand.

        The default transport is plain TCP (the paper runs TCP on top of
        Silo's and Oktopus' rate enforcement); a mechanism with its own
        endpoints names them in ``Mechanism.transport_class``.
        """
        key = (src_vm, dst_vm)
        existing = self.transports.get(key)
        if existing is not None:
            return existing
        if src_vm == dst_vm:
            raise ValueError("a transport needs two distinct VMs")
        if transport_class is None:
            transport_class = TcpReno
        flow = transport_class(self, src_vm, dst_vm,
                               self.vms[src_vm].priority)
        self.transports[key] = flow
        return flow

    # -- routing and transmission ---------------------------------------------------

    def route(self, src_vm: int, dst_vm: int) -> List[OutputPort]:
        """Ordered output ports between two VMs (cached, shared, read-only).

        Intra-server pairs cross their host's vswitch port only.
        """
        src_server = self.vms[src_vm].server
        dst_server = self.vms[dst_vm].server
        key = (src_server, dst_server)
        cached = self._route_cache.get(key)
        if cached is None:
            if src_server == dst_server:
                cached = [self._vswitch(src_server)]
            else:
                cached = [self.ports[p.port_id]
                          for p in self.topology.path_ports(src_server,
                                                            dst_server)]
            self._route_cache[key] = cached
        return cached

    def _vswitch(self, server: int) -> OutputPort:
        port = self._vswitches.get(server)
        if port is None:
            port = OutputPort(
                sim=self.sim, name=f"vswitch[{server}]",
                capacity=VSWITCH_RATE_FACTOR * self.topology.link_rate,
                buffer_bytes=VSWITCH_BUFFER, prop_delay=VSWITCH_DELAY,
                on_delivery=self._deliver, tracer=self.tracer)
            self._vswitches[server] = port
        return port

    def transmit(self, packet: Packet, src_vm: int) -> None:
        """Inject a packet, honouring the sender's pacer if it has one."""
        vm = self.vms[src_vm]
        # Pure ACKs bypass the pacer: they are ack-clocked by paced data (so
        # inherently rate-bounded at a few percent of the data rate) and a
        # real driver treats them as control traffic.  They still consume
        # link bandwidth in the port queues.
        # SWP speculative duplicates also bypass the pacer: the whole point
        # of the spec copy is to race ahead of the paced original, taking
        # its chances in the best-effort queue class.
        if (vm.pacer is not None and not packet.is_control
                and not packet.spec):
            vm.pacer.submit(packet)
            return
        self._release(packet)

    def _shaper_release(self, packet: Packet, vm: VirtualMachine) -> None:
        self._release(packet)
        if vm.pacer.destination_backlog(packet.dst) < PACER_QUEUE_LIMIT:
            waiters = self._ready_waiters.pop((vm.vm_id, packet.dst), None)
            if waiters:
                for callback in waiters:
                    callback()

    # -- shaper backpressure ------------------------------------------------------

    def sender_ready(self, vm_id: int, dst_vm: int) -> bool:
        """Whether a VM's shaper has room for more data to ``dst_vm``.

        Mirrors the NDIS send-completion backpressure of the prototype: the
        guest stack is not completed (and so stops sending) while the
        driver's shaper queue for that destination is full, instead of
        overflowing it.  Limits are per destination so one congested
        receiver cannot starve a VM's other flows.
        """
        vm = self.vms[vm_id]
        if vm.pacer is None:
            return True
        return vm.pacer.destination_backlog(dst_vm) < PACER_QUEUE_LIMIT

    def notify_when_ready(self, vm_id: int, dst_vm: int,
                          callback: Any) -> None:
        """Invoke ``callback`` once the shaper queue to ``dst_vm`` drains."""
        self._ready_waiters.setdefault((vm_id, dst_vm), []).append(callback)

    def _release(self, packet: Packet) -> None:
        if packet.route:
            packet.route[0].enqueue(packet)
        else:  # pragma: no cover - routes always have >= 1 port now
            self.sim.schedule(VSWITCH_DELAY, self._deliver, packet)

    def _deliver(self, packet: Packet) -> None:
        flow: Transport = packet.flow
        if flow is None:
            return
        kind = packet.payload[0]
        if kind == "data":
            flow.on_data(packet)
        elif kind == "ctrl":
            # Non-transport control traffic (e.g. EyeQ rate feedback):
            # dispatched to the endpoint object carried in ``flow``.
            flow.on_control(packet)
        else:
            flow.on_ack(packet)

    # -- hose coordination -------------------------------------------------------

    def _start_coordination(self, tenant_id: int) -> None:
        if not self.coordination or self._coordinating.get(tenant_id):
            return
        self._coordinating[tenant_id] = True
        self.sim.schedule(COORDINATION_INTERVAL, self._coordinate,
                          tenant_id)

    def _coordinate(self, tenant_id: int) -> None:
        """Periodic EyeQ-style hose split for one tenant (Fig. 8 top row)."""
        vm_ids = self._tenant_vms.get(tenant_id, [])
        guarantees = {}
        for vm_id in vm_ids:
            vm = self.vms[vm_id]
            if vm.guarantee is not None:
                guarantees[vm_id] = vm.guarantee.bandwidth
        demands: Dict[Tuple[int, int], float] = {}
        for (src, dst), flow in self.transports.items():
            if (src in guarantees and dst in guarantees
                    and (flow.send_queue or flow.in_flight)):
                demands[(src, dst)] = math.inf
        if demands:
            rates = allocate_hose_rates(demands, guarantees)
        else:
            rates = {}
        now = self.sim.now
        for (src, dst), flow in self.transports.items():
            if src not in guarantees or dst not in guarantees:
                continue
            vm = self.vms[src]
            if vm.pacer is None:
                continue
            rate = rates.get((src, dst))
            if rate is None or rate <= 0:
                # Idle pair: optimistically restore the full hose rate so a
                # fresh message is not throttled by a stale split.
                rate = guarantees[src]
            vm.pacer.set_destination_rate(dst, rate)
        self.sim.schedule(COORDINATION_INTERVAL, self._coordinate,
                          tenant_id)

    # -- inspection ---------------------------------------------------------------

    def port_stats(self) -> Dict[str, Any]:
        """Aggregate port counters for a finished run.

        ``drops`` is congestion (tail) loss; class-protection evictions of
        best-effort packets are reported separately as ``pushouts``.
        ``class_drops`` / ``class_pushouts`` split the same events by
        strict-priority traffic class (index 0 guaranteed, index 1
        best-effort), so speculative-duplicate loss never reads as
        congestion loss of guaranteed traffic.
        """
        from repro.phynet.port import N_CLASSES
        drops = sum(p.stats.drops for p in self.ports.values())
        pushouts = sum(p.stats.pushouts for p in self.ports.values())
        fault_drops = sum(p.stats.fault_drops for p in self.ports.values())
        marks = sum(p.stats.ecn_marks for p in self.ports.values())
        tx = sum(p.stats.tx_bytes for p in self.ports.values())
        max_q = max((p.stats.max_queue_bytes for p in self.ports.values()),
                    default=0.0)
        class_drops = [sum(p.stats.class_drops[c]
                           for p in self.ports.values())
                       for c in range(N_CLASSES)]
        class_pushouts = [sum(p.stats.class_pushouts[c]
                              for p in self.ports.values())
                          for c in range(N_CLASSES)]
        return {"drops": drops, "pushouts": pushouts,
                "fault_drops": fault_drops, "ecn_marks": marks,
                "tx_bytes": tx, "max_queue_bytes": max_q,
                "class_drops": class_drops,
                "class_pushouts": class_pushouts}

    def monitor_queues(self, interval: float,
                       reservoir_size: int = 0) -> Dict[str, Any]:
        """Attach a queue-depth :class:`~repro.obs.TimeSeries` to every
        switch port; returns ``{port name: series}``.

        Call before :meth:`EventEngine.run`; afterwards each series holds
        the port's depth trajectory bucketed at ``interval`` seconds
        (the per-bucket ``max`` is the figure-ready worst-case occupancy).
        """
        from repro.obs.timeseries import TimeSeries
        series: Dict[str, Any] = {}
        for port in self.ports.values():
            port.depth_series = TimeSeries(
                name=port.name, interval=interval,
                reservoir_size=reservoir_size)
            series[port.name] = port.depth_series
        return series
