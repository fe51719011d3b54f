"""EyeQ control loop converges to the allocate_hose_rates fixed point."""

import math

import pytest

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.mechanisms import get_mechanism
from repro.mechanisms.eyeq import DEFAULT_FEEDBACK_INTERVAL, waterfill
from repro.pacer.eyeq import allocate_hose_rates
from repro.phynet.apps import BulkApp
from repro.phynet.metrics import MetricsCollector
from repro.topology import TreeTopology

#: Convergence tolerance: the loop estimates demand from noisy
#: per-interval arrival measurements, so it tracks the ideal max-min
#: split within a few percent rather than exactly.
TOLERANCE = 0.10

#: Bound on convergence time, in control intervals.  RTT-scale schemes
#: converge in tens of RTTs; a loop that needs more than 150 intervals
#: (30 ms simulated) is broken, not slow.
MAX_INTERVALS = 150


def guarantee(bandwidth):
    return NetworkGuarantee(bandwidth=bandwidth, burst=15 * units.KB,
                            delay=units.msec(1))


def run_incast(send_rates_mbps, recv_rate_mbps, duration):
    """N senders -> 1 receiver incast under the EyeQ mechanism."""
    topo = TreeTopology(n_pods=1, racks_per_pod=1,
                        servers_per_rack=len(send_rates_mbps) + 1,
                        slots_per_server=2, link_rate=units.gbps(1))
    mech = get_mechanism("eyeq")
    net = mech.build_network(topo)
    recv_g = guarantee(units.mbps(recv_rate_mbps))
    mech.add_vm(net, 0, tenant_id=1, server=0, guarantee=recv_g)
    send_gs = {}
    for i, rate in enumerate(send_rates_mbps):
        send_gs[i + 1] = guarantee(units.mbps(rate))
        mech.add_vm(net, i + 1, tenant_id=1, server=i + 1,
                    guarantee=send_gs[i + 1])
    metrics = MetricsCollector()
    app = BulkApp(net, metrics, tenant_id=1,
                  pairs=[(vm, 0) for vm in send_gs],
                  transport_class=mech.transport_class())
    mech.start(net)
    app.start(0.0)
    net.sim.run(until=duration)
    expected = allocate_hose_rates(
        demands={(vm, 0): float("inf") for vm in send_gs},
        guarantees={0: recv_g.bandwidth,
                    **{vm: g.bandwidth for vm, g in send_gs.items()}})
    return mech, expected


class TestConvergence:
    def test_incast_converges_to_hose_max_min(self):
        """Heterogeneous senders: some sender-hose bound, some sharing."""
        duration = MAX_INTERVALS * DEFAULT_FEEDBACK_INTERVAL
        mech, expected = run_incast(
            send_rates_mbps=(900.0, 300.0, 150.0),
            recv_rate_mbps=600.0, duration=duration)
        for pair, want in expected.items():
            got = mech.controller.pair_rate(*pair)
            assert got is not None, f"pair {pair} never throttled"
            assert got == pytest.approx(want, rel=TOLERANCE), (
                f"pair {pair}: advertised {got / units.MB:.1f} MB/s, "
                f"max-min share {want / units.MB:.1f} MB/s")

    def test_equal_senders_split_the_receive_hose_evenly(self):
        duration = MAX_INTERVALS * DEFAULT_FEEDBACK_INTERVAL
        mech, expected = run_incast(
            send_rates_mbps=(800.0, 800.0, 800.0, 800.0),
            recv_rate_mbps=400.0, duration=duration)
        fair = units.mbps(400.0) / 4
        for pair, want in expected.items():
            assert want == pytest.approx(fair)
            got = mech.controller.pair_rate(*pair)
            assert got == pytest.approx(fair, rel=TOLERANCE)

    def test_feedback_really_crosses_the_network(self):
        duration = 20 * DEFAULT_FEEDBACK_INTERVAL
        mech, _ = run_incast(send_rates_mbps=(500.0, 500.0),
                             recv_rate_mbps=400.0, duration=duration)
        counters = mech.controller
        assert counters.feedback_messages > 0
        # Sender-side state only ever comes from delivered feedback
        # packets, so advertisements imply the control path worked.
        assert counters._advertised


class TestWaterfill:
    def test_elastic_demands_split_evenly(self):
        shares = waterfill(90.0, {"a": math.inf, "b": math.inf,
                                  "c": math.inf})
        assert shares == {"a": 30.0, "b": 30.0, "c": 30.0}

    def test_bounded_demands_cap_and_redistribute(self):
        shares = waterfill(90.0, {"a": 10.0, "b": math.inf,
                                  "c": math.inf})
        assert shares == {"a": 10.0, "b": 40.0, "c": 40.0}

    def test_undersubscribed_demands_are_granted_fully(self):
        shares = waterfill(100.0, {"a": 20.0, "b": 30.0})
        assert shares == {"a": 20.0, "b": 30.0}
