"""SWP speculative transmission: duplication, dedup, first-copy-wins."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core import EventEngine
from repro.core.guarantees import NetworkGuarantee
from repro.phynet.metrics import MessageRecord, MetricsCollector
from repro.phynet.packet import (
    HEADER_BYTES,
    PRIORITY_BEST_EFFORT,
    PRIORITY_GUARANTEED,
)
from repro.phynet.transport.base import MSS
from repro.phynet.transport.swp import SPEC_THRESHOLD, SwpTransport


class StubNetwork:
    """Just enough network for a transport: captures transmitted packets."""

    def __init__(self):
        self.sim = EventEngine()
        self.sent = []
        self.tracer = None

    def route(self, src_vm, dst_vm):
        return []

    def transmit(self, packet, src_vm):
        self.sent.append(packet)

    def sender_ready(self, src_vm, dst_vm):
        return True

    def notify_when_ready(self, src_vm, dst_vm, callback):
        raise AssertionError("stub never backpressures")


def send_copies(message_size):
    """One message's transmitted copies: (originals, speculative)."""
    net = StubNetwork()
    flow = SwpTransport(net, 0, 1, PRIORITY_GUARANTEED)
    flow.cwnd = 1000.0
    record = MessageRecord(tenant_id=1, src_vm=0, dst_vm=1,
                           size=message_size, start=0.0)
    completions = []
    record.on_complete = completions.append
    flow.send_message(record)
    originals = [p for p in net.sent if not p.spec]
    specs = [p for p in net.sent if p.spec]
    return net, flow, record, completions, originals, specs


class TestDuplication:
    def test_small_message_duplicated_segment_for_segment(self):
        _net, flow, _rec, _done, originals, specs = send_copies(
            10 * units.KB)
        assert len(specs) == len(originals) == math.ceil(
            10 * units.KB / MSS)
        assert {p.payload[1] for p in specs} \
            == {p.payload[1] for p in originals}
        assert flow.spec_packets_sent == len(specs)
        assert flow.spec_bytes_sent == sum(p.size for p in specs)

    def test_copies_ride_the_best_effort_class_and_bypass_flag(self):
        _net, _flow, _rec, _done, originals, specs = send_copies(3000.0)
        for p in originals:
            assert p.priority == PRIORITY_GUARANTEED and not p.spec
        for p in specs:
            assert p.priority == PRIORITY_BEST_EFFORT and p.spec

    def test_large_messages_are_not_duplicated(self):
        _net, flow, _rec, _done, _originals, specs = send_copies(
            SPEC_THRESHOLD + units.KB)
        assert specs == []
        assert flow.spec_packets_sent == 0


@st.composite
def arrival_schedules(draw):
    """A message size plus an arbitrary loss/reordering of its copies.

    For each segment at least one copy (original or speculative)
    survives; the surviving copies arrive in any interleaving.  This is
    exactly the space of receiver-observable histories for one message
    under duplication, reordering and partial loss.
    """
    message_size = draw(st.integers(min_value=1,
                                    max_value=SPEC_THRESHOLD))
    n_segments = math.ceil(message_size / (units.MTU - HEADER_BYTES))
    survivors = []
    for seq in range(n_segments):
        fate = draw(st.sampled_from(
            ["original", "spec", "both"]))
        if fate in ("original", "both"):
            survivors.append((seq, False))
        if fate in ("spec", "both"):
            survivors.append((seq, True))
    order = draw(st.permutations(survivors))
    return message_size, order


class TestExactlyOnceDelivery:
    @settings(max_examples=200, deadline=None)
    @given(arrival_schedules())
    def test_any_arrival_order_delivers_exactly_once(self, schedule):
        message_size, order = schedule
        net, flow, record, completions, originals, specs = send_copies(
            message_size)
        by_key = {(p.payload[1], p.spec): p for p in originals + specs}
        for key in order:
            flow.on_data(by_key[key])
        # The application saw the message exactly once, with every
        # payload byte counted once no matter which copies arrived.
        assert len(completions) == 1
        assert record.completed
        assert flow.delivered_bytes == pytest.approx(message_size)
        # Dedup accounting: every surviving copy beyond the first of
        # its segment was recognized as a duplicate.
        n_segments = math.ceil(message_size / MSS)
        assert flow.duplicate_deliveries == len(order) - n_segments
        assert flow.spec_wins <= sum(1 for _seq, spec in order if spec)


class TestFirstCopyWins:
    def test_spec_copy_beats_paced_original_end_to_end(self):
        from repro.mechanisms import get_mechanism
        from repro.topology import TreeTopology
        topo = TreeTopology(n_pods=1, racks_per_pod=1,
                            servers_per_rack=2, slots_per_server=2,
                            link_rate=units.gbps(10))
        mech = get_mechanism("swp")
        net = mech.build_network(topo)
        guarantee = NetworkGuarantee(bandwidth=units.mbps(100),
                                     burst=15 * units.KB,
                                     delay=units.msec(1))
        mech.add_vm(net, 0, tenant_id=1, server=0, guarantee=guarantee)
        mech.add_vm(net, 1, tenant_id=1, server=1, guarantee=guarantee)
        flow = net.transport(0, 1, transport_class=mech.transport_class())
        metrics = MetricsCollector()
        record = metrics.new_message(1, 0, 1, size=15 * units.KB,
                                     start=0.0)
        flow.send_message(record)
        net.sim.run(until=0.05)
        assert record.completed
        # The original alone is paced at 12.5 MB/s (1.2 ms for 15 KB);
        # the unpaced speculative copy crosses the idle fabric in tens
        # of microseconds and must win the race.
        assert record.latency < 500 * units.MICROS
        assert flow.spec_wins >= 1
        counters = mech.counters(net)
        assert counters["spec_wins"] == flow.spec_wins
        assert counters["spec_packets_sent"] == flow.spec_packets_sent
