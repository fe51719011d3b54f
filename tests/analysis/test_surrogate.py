"""The what-if tail-latency surrogate: calibration, sender paths,
estimate, persistence."""

import math

import pytest

from repro import units
from repro.analysis.surrogate import (HopSamples, WhatIfModel,
                                      _profiles, _sender_paths,
                                      fit_whatif_model, quantile_label)
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.obs import find_trace_artifacts
from repro.placement import SiloPlacementManager
from repro.topology import TreeTopology

MESSAGE_BYTES = 15 * units.KB


def make_topo():
    return TreeTopology(n_pods=2, racks_per_pod=2, servers_per_rack=4,
                        slots_per_server=4, link_rate=units.gbps(10),
                        oversubscription=5.0,
                        buffer_bytes=312 * units.KB)


def guarantee():
    return NetworkGuarantee(bandwidth=units.mbps(1000),
                            burst=15 * units.KB, delay=units.msec(1),
                            peak_rate=units.gbps(1))


def place(topo, n_vms=8):
    manager = SiloPlacementManager(topo)
    placement = manager.place(TenantRequest(
        n_vms=n_vms, guarantee=guarantee(),
        tenant_class=TenantClass.CLASS_A))
    assert placement is not None
    return placement


def synthetic_artifacts(tmp_path, topo, placement):
    """A hand-written queues.csv consistent with the sender paths (and
    the latency.csv beside it that a trace directory must hold)."""
    paths = _sender_paths(topo, placement)
    port_names = sorted({port.name for ports in paths for port in ports})
    assert port_names, "placement must span servers for this fixture"
    queue_rows = [f"{name},{0.0001 * i},4,{3000.0 * i},0.0," \
                  f"{6000.0 * i},{1500.0 * i}"
                  for name in port_names for i in range(5)]
    # A port that exists but is NOT on any sender path must be ignored.
    off_path = next(port.name for port in topo.ports
                    if port.name not in port_names)
    queue_rows.append(f"{off_path},0.0,1000,250000.0,250000.0,"
                      f"250000.0,250000.0")
    (tmp_path / "queues.csv").write_text(
        "port,time,count,mean,min,max,last\n"
        + "\n".join(queue_rows) + "\n")
    (tmp_path / "latency.csv").write_text(
        "tenant_id,src_vm,dst_vm,size,start,finish,latency,rto_events\n")
    return find_trace_artifacts(tmp_path), set(
        port.kind.value for ports in paths for port in ports), off_path


@pytest.fixture
def fitted(tmp_path):
    topo = make_topo()
    placement = place(topo)
    artifacts, kinds, off_path = synthetic_artifacts(tmp_path, topo,
                                                     placement)
    model = fit_whatif_model(topo, [placement], MESSAGE_BYTES, artifacts)
    return topo, placement, model, kinds, off_path


class TestFit:
    def test_samples_only_from_path_ports(self, fitted):
        _, _, model, kinds, off_path = fitted
        assert set(model.hop_samples) == kinds | {"*"}
        # The huge off-path standing queue must not leak into any pool.
        for samples in model.hop_samples.values():
            assert max(samples.delays) < 1e-3

    def test_needs_placements_and_artifacts(self, fitted):
        topo, placement, _, _, _ = fitted
        with pytest.raises(ValueError, match="placement"):
            fit_whatif_model(topo, [], MESSAGE_BYTES, [object()])
        with pytest.raises(ValueError, match="trace"):
            fit_whatif_model(topo, [placement], MESSAGE_BYTES, [])


class TestSenderPaths:
    """Each non-receiver VM's directed ports toward the first VM."""

    def test_one_sender_per_non_receiver_vm(self):
        topo = make_topo()
        placement = place(topo, n_vms=8)
        paths = _sender_paths(topo, placement)
        assert len(paths) == 7
        receiver = placement.vm_servers[0]
        assert paths == [tuple(topo.path_ports(server, receiver))
                         for server in placement.vm_servers[1:]]

    def test_colocated_sender_has_no_switch_ports(self):
        topo = make_topo()
        placement = place(topo, n_vms=4)  # fits one server
        assert len(set(placement.vm_servers)) == 1
        assert _sender_paths(topo, placement) == [(), (), ()]
        # Co-located senders still get an estimate: the vswitch base.
        estimate = WhatIfModel(
            hop_samples={}, cal_senders=3,
            cal_message_bytes=MESSAGE_BYTES).estimate(topo, placement)
        assert set(estimate.quantiles.values()) == {estimate.base}

    def test_cross_server_path_traverses_tor(self):
        topo = make_topo()
        placement = place(topo, n_vms=8)
        receiver = placement.vm_servers[0]
        remote = [ports for server, ports in zip(
            placement.vm_servers[1:], _sender_paths(topo, placement))
            if server != receiver]
        assert remote
        for ports in remote:
            assert [port.kind.value for port in ports] == ["nic-up",
                                                           "tor-down"]

    def test_fan_in_counts_shared_ports(self):
        topo = make_topo()
        paths = _sender_paths(topo, place(topo, n_vms=8))
        fan_in = {}
        for ports in paths:
            for port in ports:
                fan_in[port.name] = fan_in.get(port.name, 0) + 1
        remote = [ports for ports in paths if ports]
        # Every remote sender funnels through the receiver's ToR
        # down-link; per-server NIC up-links are shared per server.
        tor_down = [name for name in fan_in if "tor-down" in name]
        assert len(tor_down) == 1
        assert fan_in[tor_down[0]] == len(remote)


class TestEstimate:
    def test_quantiles_monotone_and_clamped(self, fitted):
        topo, placement, model, _, _ = fitted
        estimate = model.estimate(topo, placement)
        values = [estimate.quantiles[q]
                  for q in sorted(estimate.quantiles)]
        assert values == sorted(values)
        assert estimate.base <= values[0]
        assert values[-1] <= estimate.bound

    def test_estimate_is_the_clamped_composition(self, fitted):
        """No fitted correction: each quantile is the raw composed
        quantile, clamped into [base, bound]."""
        topo, placement, model, _, _ = fitted
        paths = _sender_paths(topo, placement)
        estimate = model.estimate(topo, placement)
        ratio_down = len(paths) / model.cal_senders
        raw = model._raw_quantiles(
            _profiles(paths, guarantee(), MESSAGE_BYTES), 1.0, ratio_down)
        assert estimate.quantiles == {
            q: min(max(value, estimate.base), estimate.bound)
            for q, value in raw.items()}

    def test_bound_respects_delay_guarantee(self, fitted):
        topo, placement, model, _, _ = fitted
        paths = _sender_paths(topo, placement)
        bound = model.worst_case_bound(paths, guarantee(),
                                       MESSAGE_BYTES)
        assert bound <= guarantee().message_latency_bound(MESSAGE_BYTES)

    def test_larger_message_never_faster(self, fitted):
        topo, placement, model, _, _ = fitted
        small = model.estimate(topo, placement, MESSAGE_BYTES)
        big = model.estimate(topo, placement, 2 * MESSAGE_BYTES)
        for q in small.quantiles:
            assert big.quantiles[q] >= small.quantiles[q]

    def test_rejects_nonpositive_message(self, fitted):
        topo, placement, model, _, _ = fitted
        with pytest.raises(ValueError, match="positive"):
            model.estimate(topo, placement, 0.0)


class TestPersistence:
    def test_round_trip_preserves_estimates(self, fitted, tmp_path):
        topo, placement, model, _, _ = fitted
        path = tmp_path / "model.json"
        model.save(path)
        loaded = WhatIfModel.load(path)
        before = model.estimate(topo, placement).quantiles
        after = loaded.estimate(topo, placement).quantiles
        for q, value in before.items():
            assert after[q] == pytest.approx(value, rel=1e-9)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            WhatIfModel.from_dict({"format": 99})

    def test_format_1_names_the_refit(self, fitted):
        """Format 1 carried the fitted offset and scale; no loader
        reads it."""
        _, _, model, _, _ = fitted
        data = model.to_dict()
        assert data["format"] == 2
        assert not {"offset_us", "scale"} & set(data)
        data.update(format=1, offset_us=0.0, scale=1.0)
        with pytest.raises(ValueError, match="refit .* --calibrate"):
            WhatIfModel.from_dict(data)


class TestValidation:
    def test_quantile_label(self):
        assert quantile_label(50.0) == "p50"
        assert quantile_label(99.9) == "p999"

    def test_hop_samples_need_matching_weights(self):
        with pytest.raises(ValueError):
            HopSamples(delays=[1.0], weights=[])

    @pytest.mark.parametrize("delays, weights, needle", [
        ([-1e-6], [1.0], "delays"),
        ([math.nan], [1.0], "delays"),
        ([math.inf], [1.0], "delays"),
        ([1e-6], [-1.0], "weights"),
        ([1e-6], [math.nan], "weights"),
    ])
    def test_hop_samples_must_be_finite_and_non_negative(
            self, delays, weights, needle):
        with pytest.raises(ValueError, match=needle):
            HopSamples(delays=delays, weights=weights)

    def test_model_validates_calibration(self):
        with pytest.raises(ValueError):
            WhatIfModel(hop_samples={}, cal_senders=0,
                        cal_message_bytes=1.0)
        with pytest.raises(ValueError):
            WhatIfModel(hop_samples={}, cal_senders=1,
                        cal_message_bytes=0.0)
        with pytest.raises(ValueError):
            WhatIfModel(hop_samples={}, cal_senders=1,
                        cal_message_bytes=1.0, grid=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="message size"):
                WhatIfModel(hop_samples={}, cal_senders=1,
                            cal_message_bytes=bad)
            with pytest.raises(ValueError, match="grid"):
                WhatIfModel(hop_samples={}, cal_senders=1,
                            cal_message_bytes=1.0, grid=bad)
