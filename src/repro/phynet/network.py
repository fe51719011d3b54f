"""The simulated datacenter: ports, VMs, pacers, routing and delivery.

:class:`PacketNetwork` places VMs on the servers of a
:class:`~repro.topology.tree.TreeTopology` and mediates every
transmission:

* traffic from a paced VM (Silo / Oktopus) is released at the exact stamp
  its token-bucket hierarchy computes (section 4.3) and then contends in
  the real NIC queue;
* unpaced traffic (TCP / DCTCP / HULL baselines) is released immediately;
* intra-server traffic crosses only the hypervisor vswitch.

An :class:`~repro.phynet.port.OutputPort` exists only once something
reaches it: a route through it, a fault or hybrid residual replay on it
(:meth:`PacketNetwork.port`), or a queue monitor
(:meth:`PacketNetwork.monitor_queues`, which builds them all).  A
packet window on a paper-scale tree therefore costs what the links its
traffic crosses cost, not what the tree costs.  Building a port
schedules nothing, so the order ports are built in never shows in a
run.

Which pacer a VM gets, which transport its flows run, how its fabric
ports queue and whether its tenant's hose is re-split (the ``B_i``
rates of Fig. 8) is the business of the
:class:`~repro.mechanisms.base.Mechanism` that builds the network.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.pacer.hierarchy import PacerConfig
from repro.core.engine import EventEngine
from repro.obs.timeseries import TimeSeries
from repro.phynet.shaper import VMShaper
from repro.phynet.packet import PRIORITY_GUARANTEED, Packet
from repro.phynet.port import DEFAULT_PROP_DELAY, N_CLASSES, OutputPort
from repro.phynet.transport.base import Transport
from repro.phynet.transport.tcp import TcpReno
from repro.topology.switch import VSWITCH_DELAY
from repro.topology.tree import TreeTopology

#: Intra-server copies go through the vswitch at memory speed, not
#: infinitely fast: modelling it as a finite-rate port keeps TCP windows
#: of co-located VM pairs bounded, like a real vmbus/vswitch would.
VSWITCH_RATE_FACTOR = 4.0
VSWITCH_BUFFER = 2 * units.MB

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
                 transport_class: Type[Transport] = TcpReno,
                 configure_port: Optional[
                     Callable[[OutputPort], None]] = None,
                 tracer=None):
        """Set up the simulated network: plain drop-tail priority ports,
        each built the first time something reaches it (:meth:`port`).

        The fabric does not know which scheme runs on it.  A registered
        :class:`~repro.mechanisms.base.Mechanism` that needs more
        (DCTCP's marking threshold, HULL's phantom queues) passes
        ``configure_port``, which :meth:`port` calls on every fabric
        port as it builds it; rate control lives in the hypervisor
        pacers attached per VM via :meth:`add_vm`.

        ``transport_class`` is what every flow of this network runs
        (:meth:`transport`); a mechanism passes its own.

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
        self.transport_class = transport_class
        self.tracer = tracer
        if tracer is not None:
            self.sim.tracer = tracer
        self._prop_delay = prop_delay
        self._configure_port = configure_port
        self._port_specs = topology.ports

        #: The fabric ports built so far, by topology port id (see
        #: :meth:`port`); vswitches are not fabric ports.
        self.ports: Dict[int, OutputPort] = {}
        self.vms: Dict[int, VirtualMachine] = {}
        self.transports: Dict[Tuple[int, int], Transport] = {}
        self._route_cache: Dict[Tuple[int, int], List[OutputPort]] = {}
        self._ready_waiters: Dict[int, List[Any]] = {}
        self._vswitches: Dict[int, OutputPort] = {}

    # -- construction ----------------------------------------------------------

    def add_vm(self, vm_id: int, tenant_id: int, server: int,
               guarantee: Optional[NetworkGuarantee] = None,
               pacer_config: Optional[PacerConfig] = None,
               priority: int = PRIORITY_GUARANTEED) -> VirtualMachine:
        """Place a VM; with a ``pacer_config`` it runs behind a hypervisor
        shaper of that configuration, without one it is unpaced."""
        if vm_id in self.vms:
            raise ValueError(f"vm {vm_id} already exists")
        if not 0 <= server < self.topology.n_servers:
            raise ValueError(f"server {server} out of range")
        vm = VirtualMachine(vm_id, tenant_id, server, guarantee, priority)
        if pacer_config is not None:
            vm.pacer = VMShaper(self.sim, pacer_config,
                                release=partial(self._shaper_release, vm))
        self.vms[vm_id] = vm
        return vm

    def transport(self, src_vm: int, dst_vm: int) -> Transport:
        """The (unique) transport for an ordered VM pair, created on
        demand as an instance of the network's ``transport_class``."""
        key = (src_vm, dst_vm)
        existing = self.transports.get(key)
        if existing is not None:
            return existing
        if src_vm == dst_vm:
            raise ValueError("a transport needs two distinct VMs")
        src = self.vms[src_vm]
        flow = self.transport_class(self, src_vm, dst_vm, src.priority)
        flow.backpressured = src.pacer is not None
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
                cached = [self.port(p.port_id)
                          for p in self.topology.path_ports(src_server,
                                                            dst_server)]
            self._route_cache[key] = cached
        return cached

    def port(self, port_id: int) -> OutputPort:
        """The fabric output port with topology id ``port_id``, built the
        first time anything reaches it (a route, a fault, a residual
        replay, a monitor) and configured by the network's
        ``configure_port``.  An id outside the topology is an error."""
        port = self.ports.get(port_id)
        if port is None:
            if not 0 <= port_id < len(self._port_specs):
                raise ValueError(
                    f"port {port_id} is not a port of the topology")
            spec = self._port_specs[port_id]
            port = self._new_port(f"{spec.kind.value}[{spec.index}]",
                                  spec.capacity, spec.buffer_bytes,
                                  self._prop_delay)
            if self._configure_port is not None:
                self._configure_port(port)
            self.ports[port_id] = port
        return port

    def _vswitch(self, server: int) -> OutputPort:
        port = self._vswitches.get(server)
        if port is None:
            port = self._new_port(
                f"vswitch[{server}]",
                VSWITCH_RATE_FACTOR * self.topology.link_rate,
                VSWITCH_BUFFER, VSWITCH_DELAY)
            self._vswitches[server] = port
        return port

    def _new_port(self, name: str, capacity: float, buffer_bytes: float,
                  prop_delay: float) -> OutputPort:
        """The one place an :class:`OutputPort` of this network is made."""
        return OutputPort(sim=self.sim, name=name, capacity=capacity,
                          buffer_bytes=buffer_bytes, prop_delay=prop_delay,
                          on_delivery=self._deliver, tracer=self.tracer)

    def transmit(self, packet: Packet, src_vm: int) -> None:
        """Inject a packet, honouring the sender's pacer if it has one."""
        # Pure ACKs bypass the pacer: they are ack-clocked by paced data (so
        # inherently rate-bounded at a few percent of the data rate) and a
        # real driver treats them as control traffic.  They still consume
        # link bandwidth in the port queues.
        # SWP speculative duplicates also bypass the pacer: the whole point
        # of the spec copy is to race ahead of the paced original, taking
        # its chances in the best-effort queue class.
        if not packet.is_control and not packet.spec:
            pacer = self.vms[src_vm].pacer
            if pacer is not None:
                pacer.submit(packet)
                return
        packet.route[0].enqueue(packet)

    def _shaper_release(self, vm: VirtualMachine, packet: Packet) -> None:
        packet.route[0].enqueue(packet)
        key = (vm.vm_id, packet.dst)
        waiters = self._ready_waiters.get(key)
        if (waiters is not None and vm.pacer.destination_backlog(packet.dst)
                < PACER_QUEUE_LIMIT):
            del self._ready_waiters[key]
            for callback in waiters:
                callback()

    # -- shaper backpressure ------------------------------------------------------

    def sender_ready(self, vm_id: int, dst_vm: int) -> bool:
        """Whether a VM's shaper has room for more data to ``dst_vm``.

        Mirrors the NDIS send-completion backpressure of the prototype: the
        guest stack is not completed (and so stops sending) while the
        driver's shaper queue for that destination is full, instead of
        overflowing it.  Limits are per destination so one congested
        receiver cannot starve a VM's other flows.  A flow whose sender
        has no shaper does not ask (``Transport.backpressured``).
        """
        vm = self.vms[vm_id]
        if vm.pacer is None:
            return True
        return vm.pacer.destination_backlog(dst_vm) < PACER_QUEUE_LIMIT

    def notify_when_ready(self, vm_id: int, dst_vm: int,
                          callback: Any) -> None:
        """Invoke ``callback`` once the shaper queue to ``dst_vm`` drains."""
        self._ready_waiters.setdefault((vm_id, dst_vm), []).append(callback)

    def _deliver(self, packet: Packet) -> None:
        flow: Transport = packet.flow
        if flow is None:
            return
        if not packet.is_control:
            flow.on_data(packet)
        elif packet.payload[0] == "ctrl":
            # Non-transport control traffic (e.g. EyeQ rate feedback):
            # dispatched to the endpoint object carried in ``flow``.
            flow.on_control(packet)
        else:
            flow.on_ack(packet)

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
        # Port-id order, as if every port existed: a port never built
        # would only have added 0 to each sum, so the totals are exact.
        ports = [self.ports[port_id] for port_id in sorted(self.ports)]
        # A port starts its queued packets lazily; settling every port,
        # vswitches too, completes each depth series and trace up to now.
        for port in ports + list(self._vswitches.values()):
            port.settle()
        drops = sum(p.stats.drops for p in ports)
        pushouts = sum(p.stats.pushouts for p in ports)
        fault_drops = sum(p.stats.fault_drops for p in ports)
        marks = sum(p.stats.ecn_marks for p in ports)
        tx = sum(p.stats.tx_bytes for p in ports)
        max_q = max((p.stats.max_queue_bytes for p in ports), default=0.0)
        class_drops = [sum(p.stats.class_drops[c] for p in ports)
                       for c in range(N_CLASSES)]
        class_pushouts = [sum(p.stats.class_pushouts[c] for p in ports)
                          for c in range(N_CLASSES)]
        return {"drops": drops, "pushouts": pushouts,
                "fault_drops": fault_drops, "ecn_marks": marks,
                "tx_bytes": tx, "max_queue_bytes": max_q,
                "class_drops": class_drops,
                "class_pushouts": class_pushouts}

    def monitor_queues(self, interval: float,
                       reservoir_size: int = 0) -> Dict[str, Any]:
        """Attach a queue-depth :class:`~repro.obs.TimeSeries` to every
        switch port, building the ports no traffic reached yet; returns
        ``{port name: series}`` in topology order.

        Call before :meth:`EventEngine.run`; after the run and
        :meth:`port_stats` (which settles the lazily started ports) each
        series holds the port's depth trajectory bucketed at
        ``interval`` seconds
        (the per-bucket ``max`` is the figure-ready worst-case occupancy).
        """
        series: Dict[str, Any] = {}
        for spec in self._port_specs:
            port = self.port(spec.port_id)
            port.depth_series = TimeSeries(
                name=port.name, interval=interval,
                reservoir_size=reservoir_size)
            series[port.name] = port.depth_series
        return series
