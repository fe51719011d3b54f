"""Applications driving the packet simulator.

Three application models cover the paper's experiments:

* :class:`EpochBurstApp` -- the class-A OLDI pattern: every epoch all of a
  tenant's worker VMs simultaneously send a message to the aggregator
  (all-to-one), and the message latency distribution is the result;
* :class:`BulkApp` -- the class-B / netperf pattern: every VM pair keeps
  large transfers in flight, measuring achieved throughput;
* :class:`MemcachedApp` -- request/response RPCs with ETC-like value sizes
  and bursty request arrivals (the testbed workload of section 6.1).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro import units
from repro.phynet.metrics import MessageRecord, MetricsCollector
from repro.phynet.network import PacketNetwork
from repro.phynet.transport.base import Transport
from repro.workloads.distributions import Distribution, Fixed
from repro.workloads.memcached import EtcWorkload


class EpochBurstApp:
    """All-to-one synchronized message bursts (class-A tenants, Fig. 12).

    Every ``epoch`` seconds, each worker VM sends one ``message_size``
    message to the receiver VM; all workers fire within ``jitter`` of each
    other, which is the worst case Silo's placement must absorb.
    """

    def __init__(self, network: PacketNetwork, metrics: MetricsCollector,
                 tenant_id: int, vm_ids: Sequence[int],
                 message_size: Distribution, epoch: float,
                 rng: random.Random,
                 jitter: float = 10 * units.MICROS,
                 transport_class: Optional[Type[Transport]] = None):
        if len(vm_ids) < 2:
            raise ValueError("an all-to-one tenant needs at least two VMs")
        self.network = network
        self.metrics = metrics
        self.tenant_id = tenant_id
        self.receiver = vm_ids[0]
        self.senders = list(vm_ids[1:])
        self.message_size = message_size
        self.epoch = epoch
        self.jitter = jitter
        self.rng = rng
        self.flows = [network.transport(s, self.receiver, transport_class)
                      for s in self.senders]
        self.messages_sent = 0
        self._stopped = False

    def start(self, at: float = 0.0, phase: Optional[float] = None) -> None:
        """Begin the epoch loop; ``phase`` randomizes tenant alignment."""
        if phase is None:
            phase = self.rng.uniform(0.0, self.epoch)
        self.network.sim.schedule_at(at + phase, self._fire_epoch)

    def stop(self) -> None:
        """Stop scheduling further epochs."""
        self._stopped = True

    def _fire_epoch(self) -> None:
        if self._stopped:
            return
        sim = self.network.sim
        for sender, flow in zip(self.senders, self.flows):
            delay = self.rng.uniform(0.0, self.jitter)
            size = max(1.0, self.message_size.sample(self.rng))
            sim.schedule(delay, self._send_one, flow, sender, size)
        sim.schedule(self.epoch, self._fire_epoch)

    def _send_one(self, flow: Transport, sender: int, size: float) -> None:
        record = self.metrics.new_message(self.tenant_id, sender,
                                          self.receiver, size,
                                          self.network.sim.now)
        self.messages_sent += 1
        flow.send_message(record)


class BulkApp:
    """Keeps large transfers flowing on a set of VM pairs (class-B).

    Each pair always has one ``chunk_size`` message outstanding; when a
    chunk completes the next is submitted, so the pair consumes whatever
    bandwidth the network (or its guarantee) allows -- the netperf model.
    """

    def __init__(self, network: PacketNetwork, metrics: MetricsCollector,
                 tenant_id: int, pairs: Sequence[Tuple[int, int]],
                 chunk_size: float = 256 * units.KB,
                 transport_class: Optional[Type[Transport]] = None):
        if not pairs:
            raise ValueError("a bulk app needs at least one VM pair")
        self.network = network
        self.metrics = metrics
        self.tenant_id = tenant_id
        self.chunk_size = chunk_size
        self.flows: Dict[Tuple[int, int], Transport] = {
            (s, d): network.transport(s, d, transport_class)
            for (s, d) in pairs
        }
        self._stopped = False
        self._started_at: Optional[float] = None

    def start(self, at: float = 0.0) -> None:
        """Begin the bulk transfers."""
        self._started_at = at
        for pair in self.flows:
            self.network.sim.schedule_at(at, self._send_chunk, pair)

    def stop(self) -> None:
        """Stop issuing further transfers."""
        self._stopped = True

    def _send_chunk(self, pair: Tuple[int, int]) -> None:
        if self._stopped:
            return
        src, dst = pair
        record = self.metrics.new_message(self.tenant_id, src, dst,
                                          self.chunk_size,
                                          self.network.sim.now)
        record.on_complete = lambda _rec, p=pair: self._send_chunk(p)
        self.flows[pair].send_message(record)

    def delivered_bytes(self) -> float:
        """Total bytes delivered across all pairs so far."""
        return sum(f.delivered_bytes for f in self.flows.values())

    def throughput(self, elapsed: float) -> float:
        """Average delivered rate (bytes/second) since start."""
        if elapsed <= 0:
            return 0.0
        return self.delivered_bytes() / elapsed


class MemcachedApp:
    """Request/response RPCs against one server VM (section 6.1 testbed).

    Each client VM issues GET requests with ETC-like bursty gaps; the
    server replies with an ETC-like value.  The recorded message for each
    RPC spans request send to response delivery, which is what Fig. 1 and
    Fig. 11 plot.
    """

    def __init__(self, network: PacketNetwork, metrics: MetricsCollector,
                 tenant_id: int, server_vm: int,
                 client_vms: Sequence[int], workload: EtcWorkload,
                 rng: random.Random,
                 transport_class: Optional[Type[Transport]] = None,
                 service_time: Optional[Distribution] = None):
        """``service_time`` models end-host request processing (the
        kernel/app stack the paper's guarantees exclude but its testbed
        numbers include); default is zero."""
        if not client_vms:
            raise ValueError("memcached needs at least one client VM")
        self.network = network
        self.metrics = metrics
        self.tenant_id = tenant_id
        self.server_vm = server_vm
        self.client_vms = list(client_vms)
        self.workload = workload
        self.rng = rng
        self.request_flows = {
            c: network.transport(c, server_vm, transport_class)
            for c in client_vms
        }
        self.response_flows = {
            c: network.transport(server_vm, c, transport_class)
            for c in client_vms
        }
        self.service_time = service_time
        self.rpcs_completed = 0
        self._stopped = False

    def start(self, at: float = 0.0) -> None:
        """Begin issuing requests."""
        for client in self.client_vms:
            gap = self.workload.sample_gap(self.rng)
            self.network.sim.schedule_at(at + gap, self._issue_request,
                                         client)

    def stop(self) -> None:
        """Stop issuing further requests."""
        self._stopped = True

    def _issue_request(self, client: int) -> None:
        if self._stopped:
            return
        now = self.network.sim.now
        # The request itself is tracked privately; the metrics record is
        # created for the *response* with the request's start time, so its
        # latency is the full RPC latency.
        request = MessageRecord(tenant_id=self.tenant_id, src_vm=client,
                                dst_vm=self.server_vm,
                                size=self.workload.request_size, start=now)
        if self.service_time is None:
            request.on_complete = (
                lambda _rec, c=client, t0=now: self._serve_response(c, t0))
        else:
            request.on_complete = (
                lambda _rec, c=client, t0=now: self.network.sim.schedule(
                    max(0.0, self.service_time.sample(self.rng)),
                    self._serve_response, c, t0))
        self.request_flows[client].send_message(request)
        gap = self.workload.sample_gap(self.rng)
        self.network.sim.schedule(gap, self._issue_request, client)

    def _serve_response(self, client: int, request_start: float) -> None:
        if self._stopped:
            return
        value = self.workload.sample_value(self.rng)
        record = self.metrics.new_message(self.tenant_id, self.server_vm,
                                          client, value, request_start)
        record.on_complete = lambda _rec: self._count_rpc()
        self.response_flows[client].send_message(record)

    def _count_rpc(self) -> None:
        self.rpcs_completed += 1

    def throughput_rps(self, elapsed: float) -> float:
        """Completed RPCs per second."""
        if elapsed <= 0:
            return 0.0
        return self.rpcs_completed / elapsed
