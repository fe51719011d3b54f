"""EyeQ end to end: a distributed, RTT-scale hose congestion-control loop.

The repo long had :func:`repro.pacer.eyeq.allocate_hose_rates` -- the
*steady state* an EyeQ deployment converges to -- wired into
:class:`~repro.phynet.network.PacketNetwork` as an oracle that recomputes
the max-min split centrally every coordination interval.  That oracle is
exactly what a real deployment cannot have.  This module replaces it with
the mechanism EyeQ actually runs:

* **sender module** -- every VM's egress runs per-destination rate
  limiters (the :class:`~repro.phynet.shaper.VMShaper` destination
  buckets, started optimistically at line rate with a small burst);
  arriving rate feedback is arbitrated against the VM's *sending* hose
  ``B_s`` by a local water-fill, so the sum of its per-destination rates
  never exceeds its own guarantee;
* **receiver module** -- every interval the receiving hypervisor
  measures per-source arrival rates, estimates which senders are
  rate-limited (elastic) versus application-limited, water-fills its
  *receiving* hose ``C_d`` over those demands, and sends each active
  sender a rate feedback message -- a real 64-byte control packet that
  crosses the network and takes a propagation delay to arrive;
* **staleness** -- feedback stops when a sender goes idle; after a few
  silent intervals the sender restores that destination to line rate,
  which is what makes the scheme work-conserving (and what costs it
  delay guarantees: every fresh burst departs unthrottled until the
  loop reacts, one RTT-scale interval later).

The fixed point of receiver water-fill + sender arbitration is the
bipartite max-min allocation of :func:`allocate_hose_rates`;
``tests/mechanisms/test_eyeq_convergence.py`` pins that the simulated
loop reaches it within tolerance in a bounded number of intervals.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Tuple

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.mechanisms.base import Mechanism, register_mechanism
from repro.obs.events import RateFeedback
from repro.pacer.hierarchy import PacerConfig
from repro.phynet.network import PacketNetwork, VirtualMachine
from repro.phynet.packet import Packet

__all__ = ["EyeQController", "EyeQMechanism", "DEFAULT_FEEDBACK_INTERVAL",
           "FEEDBACK_BYTES", "waterfill"]

#: Control-loop period: EyeQ reacts at RTT scale, far slower than
#: packet transmission but fast against tenant workload shifts.
DEFAULT_FEEDBACK_INTERVAL = 200 * units.MICROS

#: Wire size of one rate feedback message.
FEEDBACK_BYTES = 64.0

#: A sender measured within this fraction of its advertised rate is
#: limit-bound (elastic): it wants more, so the receiver treats its
#: demand as unbounded in the water-fill.
_ELASTIC_SLACK = 0.1

#: Application-limited senders are advertised their measured rate times
#: this factor (their reservation stays at the measured rate), so a
#: sender whose offered load grows can climb back toward its fair share
#: a few percent per interval without over-reserving the hose.
_DEMAND_BOOST = 1.2

#: Intervals without fresh feedback before a sender declares the
#: advertisement stale and restores that destination to line rate.
_STALE_INTERVALS = 3

#: EWMA weight of the newest per-interval rate sample.  Transport
#: dynamics (ack clocking, recovery) make instantaneous arrival rates
#: noisy; the receiver smooths them so one slow interval does not
#: demote an elastic sender to application-limited.
_RATE_EWMA_ALPHA = 0.5

#: EWMA weight of the newest computed advertisement.  Smoothing the
#: control *output* (not just the measurement) damps the limit cycle
#: where a hose-capped sender flip-flops between elastic and
#: application-limited classification: each flip moves the advertised
#: rate only part way, so the loop settles at the fixed point instead
#: of orbiting it.
_ADVERT_EWMA_ALPHA = 0.4

#: EyeQ rate limiters carry only a couple packets of burst: unlike
#: Silo's ``{B, S}`` bucket there is no negotiated burst allowance, so
#: a throttled destination really is held to its rate.
_LIMITER_BURST_PACKETS = 2


def waterfill(capacity: float, demands: Dict[Hashable, float]
              ) -> Dict[Hashable, float]:
    """Max-min fair split of one capacity over per-key demands.

    ``math.inf`` marks an elastic demand.  This is the single-resource
    special case of :func:`repro.maxmin.max_min_fair`, inlined because
    both EyeQ modules run it per control interval on a handful of keys.
    """
    allocation: Dict[Hashable, float] = {}
    active = dict(demands)
    remaining = capacity
    while active:
        share = max(remaining, 0.0) / len(active)
        bounded = [k for k, demand in active.items() if demand <= share]
        if not bounded:
            for key in active:
                allocation[key] = share
            break
        for key in bounded:
            allocation[key] = active[key]
            remaining -= active[key]
            del active[key]
    return allocation


class _FeedbackEndpoint:
    """Delivery target for rate feedback packets (``ctrl`` payloads)."""

    __slots__ = ("controller",)

    def __init__(self, controller: "EyeQController"):
        self.controller = controller

    def on_control(self, packet: Packet) -> None:
        """A feedback message reached the sending hypervisor."""
        self.controller._on_feedback(sender=packet.dst,
                                     receiver=packet.src,
                                     rate=packet.payload[1])

    def on_drop(self, packet: Packet) -> None:
        """A lost feedback message; the next interval resends."""


class EyeQController:
    """The distributed rate-coordination loop over one network.

    One controller instance orchestrates the periodic ticks, but its
    state is strictly partitioned the way a deployment's would be:
    receiver-side measurement uses only what arrives at each receiving
    VM, sender-side arbitration uses only that sender's guarantee and
    the feedback messages it has received -- which travel through the
    simulated network as real control packets.
    """

    def __init__(self, net: PacketNetwork, tracer=None):
        self.net = net
        self.interval = DEFAULT_FEEDBACK_INTERVAL
        self.tracer = tracer
        #: Receiver side: last observed ``delivered_bytes`` per pair.
        self._seen_bytes: Dict[Tuple[int, int], float] = {}
        #: Receiver side: smoothed per-pair arrival rate estimates.
        self._rate_ewma: Dict[Tuple[int, int], float] = {}
        #: Sender side: advertised rate and receipt time per pair.
        self._advertised: Dict[Tuple[int, int], Tuple[float, float]] = {}
        #: Destinations each sender has ever throttled (for restore).
        self._throttled: Dict[int, set] = {}
        self.feedback_messages = 0
        self._endpoint = _FeedbackEndpoint(self)
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin the periodic control loop (idempotent)."""
        if self._started:
            return
        self._started = True
        self.net.sim.schedule(self.interval, self._tick)

    @property
    def line_rate(self) -> float:
        """The optimistic (unthrottled) per-destination rate."""
        return self.net.topology.link_rate

    # -- receiver module -----------------------------------------------------

    def _tick(self) -> None:
        now = self.net.sim.now
        by_receiver: Dict[int, List[Tuple[int, float]]] = {}
        for (src, dst), flow in self.net.transports.items():
            delivered = flow.delivered_bytes
            delta = delivered - self._seen_bytes.get((src, dst), 0.0)
            self._seen_bytes[(src, dst)] = delivered
            if delta > 0.0:
                sample = delta / self.interval
                prev = self._rate_ewma.get((src, dst))
                smoothed = (sample if prev is None else
                            _RATE_EWMA_ALPHA * sample
                            + (1.0 - _RATE_EWMA_ALPHA) * prev)
                self._rate_ewma[(src, dst)] = smoothed
                by_receiver.setdefault(dst, []).append((src, smoothed))
            else:
                self._rate_ewma.pop((src, dst), None)
        for dst, arrivals in by_receiver.items():
            self._advertise(dst, arrivals)
        self._age_stale(now)
        self.net.sim.schedule(self.interval, self._tick)

    def _advertise(self, dst: int, arrivals: List[Tuple[int, float]]
                   ) -> None:
        """One receiver's congestion detector: split ``C_d``, send rates."""
        vm = self.net.vms[dst]
        if vm.guarantee is None:
            return
        hose = vm.guarantee.bandwidth
        demands: Dict[int, float] = {}
        for src, measured in arrivals:
            advert = self._advertised.get((src, dst))
            if (advert is None
                    or measured >= (1.0 - _ELASTIC_SLACK) * advert[0]):
                demands[src] = math.inf
            else:
                demands[src] = measured
        shares = waterfill(hose, demands)
        for src, measured in arrivals:
            rate = shares[src]
            if not math.isinf(demands[src]):
                # Application-limited senders reserve only what they
                # use, but their advertisement carries growth headroom
                # so a sender whose offered load rises can climb back
                # toward its fair share a few percent per interval.
                rate = min(max(rate, measured * _DEMAND_BOOST), hose)
            advert = self._advertised.get((src, dst))
            if advert is not None:
                rate = (_ADVERT_EWMA_ALPHA * rate
                        + (1.0 - _ADVERT_EWMA_ALPHA) * advert[0])
            self._send_feedback(dst, src, rate, measured)

    def _send_feedback(self, dst: int, src: int, rate: float,
                       arrival_rate: float) -> None:
        """Ship one rate advertisement ``dst -> src`` through the fabric."""
        packet = Packet(
            src=dst, dst=src, size=FEEDBACK_BYTES,
            route=self.net.route(dst, src), flow=self._endpoint,
            is_control=True, payload=("ctrl", rate))
        packet.sent_time = self.net.sim.now
        self.feedback_messages += 1
        if self.tracer is not None:
            self.tracer.emit(RateFeedback(
                time=self.net.sim.now, src=src, dst=dst, rate=rate,
                arrival_rate=arrival_rate))
        self.net.transmit(packet, dst)

    # -- sender module -------------------------------------------------------

    def _on_feedback(self, sender: int, receiver: int,
                     rate: float) -> None:
        self._advertised[(sender, receiver)] = (rate, self.net.sim.now)
        self._apply_sender(sender)

    def _apply_sender(self, sender: int) -> None:
        """Arbitrate advertised rates against the sender's own hose."""
        vm = self.net.vms.get(sender)
        if vm is None or vm.pacer is None or vm.guarantee is None:
            return
        advertised = {dst: entry[0]
                      for (src, dst), entry in self._advertised.items()
                      if src == sender}
        throttled = self._throttled.setdefault(sender, set())
        if advertised:
            shares = waterfill(vm.guarantee.bandwidth, advertised)
            for dst, rate in shares.items():
                vm.pacer.set_destination_rate(dst, rate)
                throttled.add(dst)
        # Destinations whose advertisements aged out go back to line
        # rate: unthrottled until the next congestion feedback.
        for dst in throttled - set(advertised):
            vm.pacer.set_destination_rate(dst, self.line_rate)
        throttled &= set(advertised)

    def _age_stale(self, now: float) -> None:
        horizon = _STALE_INTERVALS * self.interval
        stale_senders = set()
        for (src, dst), (_rate, stamped) in list(self._advertised.items()):
            if now - stamped > horizon:
                del self._advertised[(src, dst)]
                stale_senders.add(src)
        for sender in stale_senders:
            self._apply_sender(sender)

    # -- inspection ----------------------------------------------------------

    def pair_rate(self, src: int, dst: int) -> Optional[float]:
        """The rate limit currently applied to one pair, if throttled."""
        entry = self._advertised.get((src, dst))
        if entry is None:
            return None
        vm = self.net.vms[src]
        if vm.pacer is None:
            return entry[0]
        return vm.pacer.destination_bucket(dst).rate


@register_mechanism
class EyeQMechanism(Mechanism):
    """Distributed hose congestion control; no pacing calculus, no bursts."""

    name = "eyeq"

    def __init__(self):
        #: The controller attached by :meth:`start` (one per run).
        self.controller: Optional[EyeQController] = None

    def build_network(self, topology, tracer=None):
        """Plain ports, oracle hose coordination off (the loop replaces it)."""
        return PacketNetwork(topology, coordination=False, tracer=tracer)

    def add_vm(self, net: PacketNetwork, vm_id: int, tenant_id: int,
               server: int, guarantee: Optional[NetworkGuarantee]
               ) -> VirtualMachine:
        """Place the VM behind per-destination rate limiters.

        The limiters start at line rate (EyeQ is work-conserving until
        told otherwise) with a two-packet burst; the control loop's
        feedback is what subsequently holds pairs to their hose shares.
        """
        if guarantee is None:
            return net.add_vm(vm_id, tenant_id, server, guarantee=None,
                              paced=False)
        line = net.topology.link_rate
        pacer_config = PacerConfig(
            bandwidth=line, burst=_LIMITER_BURST_PACKETS * units.MTU,
            peak_rate=line, packet_size=units.MTU)
        return net.add_vm(vm_id, tenant_id, server, guarantee=guarantee,
                          paced=True, pacer_config=pacer_config)

    def start(self, net: PacketNetwork) -> None:
        """Attach and start the distributed control loop."""
        self.controller = EyeQController(net, tracer=net.tracer)
        self.controller.start()

    def counters(self, net: PacketNetwork) -> Dict[str, float]:
        """Control-plane cost: feedback messages and their wire bytes."""
        sent = (self.controller.feedback_messages
                if self.controller is not None else 0)
        return {"feedback_messages": sent,
                "feedback_bytes": sent * FEEDBACK_BYTES}
