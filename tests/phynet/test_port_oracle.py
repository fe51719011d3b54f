"""Differential test: the lazy ``OutputPort`` against the eager seed port.

``tests/oracles/seed_port.py`` is the port before it went lazy, verbatim:
it schedules a tx-done event per packet and decides each departure
there.  The live port decides departures only when something touches
it and schedules just the next-hop arrival.  Off ties, that is claimed
*exact*: both are driven through the same script -- chains of one to
three ports, both priority classes, pushouts and tail drops, DCTCP and
HULL marking, depth series, down/degrade/restore faults, a horizon cut
mid-backlog -- on one engine each, and every start, drop, mark and
delivery time, every ``PortStats`` field and every depth-series bucket
must be bit-equal.

The one documented difference is the tie rule (``phynet/port.py``): at
one instant the live port decides its departure before the enqueue or
fault that touches it, where the seed's order follows sequence numbers.
So a generated script is kept only if no enqueue or fault at a port
falls on an instant where the seed frees that port's wire.
"""

import dataclasses
import os
from collections import defaultdict

from hypothesis import assume, example, given, settings, strategies as st

from repro import units
from repro.core.engine import EventEngine
from repro.obs.timeseries import TimeSeries
from repro.phynet.packet import Packet
from repro.phynet.port import DEFAULT_PROP_DELAY, OutputPort

from seed_port import OutputPort as SeedPort

EXAMPLES = int(os.environ.get("PORT_EXAMPLES", "150"))

RATES = (units.gbps(1), units.gbps(2.5), units.gbps(10))
PROP_DELAYS = (0.0, DEFAULT_PROP_DELAY, 2e-6)
BUFFERS = (3 * units.MTU, 10 * units.KB, 40 * units.KB)
SIZES = (64.0, 700.0, units.MTU, units.MTU)
#: DCTCP's marking threshold and HULL's phantom queue, scaled to BUFFERS.
ECN_THRESHOLD = 3 * units.KB
PHANTOM_THRESHOLD = 2 * units.KB
PHANTOM_FRACTION = 0.95
DEPTH_INTERVAL = 7e-6
DEPTH_RESERVOIR = 8


class WatchedSeedPort(SeedPort):
    """The seed port, noting when its wire frees and when it is touched."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.freed_at = set()
        self.touched_at = set()

    def enqueue(self, packet):
        self.touched_at.add(self.sim.now)
        super().enqueue(packet)

    def set_fault_factor(self, factor):
        self.touched_at.add(self.sim.now)
        super().set_fault_factor(factor)

    def _transmit_done(self, packet):
        self.freed_at.add(self.sim.now)
        super()._transmit_done(packet)


class Recorder:
    """Trace sink, flow and delivery endpoint of one run."""

    def __init__(self, sim):
        self.sim = sim
        self.events = defaultdict(list)
        self.drops = []
        self.delivered = []

    def emit(self, event):
        self.events[event.port].append(event)

    def on_drop(self, packet):
        self.drops.append((packet.payload, self.sim.now))

    def deliver(self, packet):
        self.delivered.append((packet.payload, self.sim.now, packet.ecn))


def run_chain(port_class, chain, script, horizon):
    """Drive one chain of ``port_class`` ports through ``script`` up to
    ``horizon``; returns the ports and everything they recorded."""
    sim = EventEngine()
    recorder = Recorder(sim)
    ports = []
    for index, (rate, prop_delay, buffer_bytes, marking) in enumerate(chain):
        options = {}
        if marking == "dctcp":
            options["ecn_threshold"] = ECN_THRESHOLD
        elif marking == "hull":
            options["phantom_drain"] = PHANTOM_FRACTION * rate
            options["phantom_threshold"] = PHANTOM_THRESHOLD
        port = port_class(sim, f"p{index}", rate, buffer_bytes,
                          prop_delay=prop_delay,
                          on_delivery=recorder.deliver, tracer=recorder,
                          **options)
        port.depth_series = TimeSeries(name=port.name,
                                       interval=DEPTH_INTERVAL,
                                       reservoir_size=DEPTH_RESERVOIR)
        ports.append(port)
    for number, step in enumerate(script):
        if step[0] == "send":
            _, when, size, priority, entry, count = step
            route = ports[entry % len(ports):]
            for copy in range(count):
                packet = Packet(0, 1, size, route, flow=recorder,
                                payload=(number, copy), priority=priority)
                sim.schedule_at(when, route[0].enqueue, packet)
        else:
            _, when, index, factor = step
            sim.schedule_at(when, ports[index % len(ports)].set_fault_factor,
                            factor)
    sim.run(until=horizon)
    # Reading the stats first settles the live ports up to the horizon.
    stats = [dataclasses.asdict(port.stats) for port in ports]
    return ports, {
        "stats": stats,
        "queued": [(port.queued_bytes, port.class_queued_bytes(0),
                    port.class_queued_bytes(1)) for port in ports],
        "fault_factor": [port.fault_factor for port in ports],
        "events": dict(recorder.events),
        "drops": recorder.drops,
        "delivered": recorder.delivered,
        "depth": [(port.depth_series.buckets(), port.depth_series.samples())
                  for port in ports],
    }


def tie_free(seed_ports):
    """No enqueue or fault lands where the seed frees that port's wire."""
    return all(not port.freed_at & port.touched_at for port in seed_ports)


def assert_bit_equal(live, seed):
    for key in seed:
        assert live[key] == seed[key], key


#: 64 B ACKs at 10 Gbps serialize in 51.2 ns, a tenth of the 0.5 us
#: propagation, so one arrival finds several starts due; an MTU joins
#: the second port mid-backlog.
ACK_BACKLOG = dict(
    chain=[(units.gbps(10), DEFAULT_PROP_DELAY, 40 * units.KB, "plain"),
           (units.gbps(1), 2e-6, 40 * units.KB, "dctcp")],
    script=[("send", 1.0003e-6, 64.0, 0, 0, 30),
            ("send", 1.7771e-6, units.MTU, 1, 1, 1),
            ("send", 2.3131e-6, 64.0, 0, 0, 1)],
    horizon=40.3e-6)

#: The first of five MTUs (12 us each at 1 Gbps) is on the wire when the
#: port degrades to half rate: it finishes at full rate and the next two
#: start at half rate.  The restore lands 0.2 us after the third start,
#: before anything has touched the port since: that start is decided at
#: the restore, and at the half rate it began with.
DEGRADE_MID_PACKET = dict(
    chain=[(units.gbps(1), DEFAULT_PROP_DELAY, 10 * units.KB, "hull")],
    script=[("send", 0.0, units.MTU, 0, 0, 5),
            ("fault", 5.3e-6, 0, 0.5), ("fault", 36.2e-6, 0, 1.0)],
    horizon=200.1e-6)

#: The first port goes down 0.2 us into its third packet, a start no
#: touch has decided yet, with seven MTUs queued: the packet on the wire
#: finishes, the queue freezes, an arrival while down is a fault drop,
#: and the restore resumes the backlog; the horizon cuts it.
DOWN_UP_FROZEN = dict(
    chain=[(units.gbps(1), DEFAULT_PROP_DELAY, 40 * units.KB, "plain"),
           (units.gbps(2.5), 2e-6, 10 * units.KB, "plain")],
    script=[("send", 0.2e-6, units.MTU, 0, 0, 10),
            ("fault", 24.4e-6, 0, 0.0),
            ("send", 25.3e-6, 700.0, 1, 0, 1),
            ("fault", 60.3e-6, 0, 1.0)],
    horizon=100.7e-6)


port_specs = st.tuples(st.sampled_from(RATES), st.sampled_from(PROP_DELAYS),
                       st.sampled_from(BUFFERS),
                       st.sampled_from(("plain", "dctcp", "hull")))
times = st.floats(min_value=0.0, max_value=150e-6)
steps = st.one_of(
    # a burst of equal packets into one port of the chain at one instant
    st.tuples(st.just("send"), times, st.sampled_from(SIZES),
              st.integers(0, 1), st.integers(0, 2), st.integers(1, 12)),
    st.tuples(st.just("fault"), times, st.integers(0, 2),
              st.sampled_from((0.0, 0.4, 0.5, 1.0))),
)


@settings(max_examples=EXAMPLES, deadline=None)
@example(**ACK_BACKLOG)
@example(**DEGRADE_MID_PACKET)
@example(**DOWN_UP_FROZEN)
@given(chain=st.lists(port_specs, min_size=1, max_size=3),
       script=st.lists(steps, min_size=1, max_size=40),
       horizon=st.floats(min_value=20e-6, max_value=300e-6))
def test_lazy_port_is_bit_equal_to_seed_off_ties(chain, script, horizon):
    seed_ports, seed = run_chain(WatchedSeedPort, chain, script, horizon)
    assume(tie_free(seed_ports))
    _, live = run_chain(OutputPort, chain, script, horizon)
    assert_bit_equal(live, seed)


def starts(result, port):
    return [event.time for event in result["events"].get(port, ())
            if event.kind == "pkt.tx"]


def test_examples_are_tie_free_and_reach_their_case():
    """The explicit examples would be dropped silently by ``assume`` if
    they tied; check they do not, and that each shows what it names."""
    for case in (ACK_BACKLOG, DEGRADE_MID_PACKET, DOWN_UP_FROZEN):
        seed_ports, seed = run_chain(WatchedSeedPort, **case)
        assert tie_free(seed_ports)
        _, live = run_chain(OutputPort, **case)
        assert_bit_equal(live, seed)

    _, ack = run_chain(OutputPort, **ACK_BACKLOG)
    ack_starts = starts(ack, "p0")
    assert sum(1 for t in ack_starts
               if ack_starts[0] < t < ack_starts[0] + DEFAULT_PROP_DELAY) >= 5

    _, degrade = run_chain(OutputPort, **DEGRADE_MID_PACKET)
    degrade_starts = starts(degrade, "p0")
    full, half = units.MTU / units.gbps(1), 2 * units.MTU / units.gbps(1)
    assert degrade_starts[:4] == [0.0, full, full + half,
                                  full + half + half]
    assert (degrade_starts[2] < 36.2e-6
            < degrade_starts[2] + DEFAULT_PROP_DELAY)
    assert degrade["stats"][0]["tx_packets"] == 5

    ports, frozen = run_chain(OutputPort, **DOWN_UP_FROZEN)
    frozen_starts = starts(frozen, "p0")
    assert [t for t in frozen_starts if 24.4e-6 < t < 60.3e-6] == []
    assert 24.4e-6 - DEFAULT_PROP_DELAY < frozen_starts[2] < 24.4e-6
    assert 60.3e-6 in frozen_starts
    assert frozen["stats"][0]["fault_drops"] == 1
    assert ports[0].queued_bytes > 0
