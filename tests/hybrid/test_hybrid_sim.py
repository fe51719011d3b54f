"""HybridSim end-to-end contract on a tiny topology.

These are the unit-level checks for the packet-in-fluid coupling:
window placement (default / explicit / ``"peak"``), shared-admission
rejection counting, and the shape of :class:`HybridResult`.  The
campaign-level byte-identity of ``hybrid-smoke`` is CI's job.
"""

import json

import pytest

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest, reset_tenant_ids
from repro.flowsim import TenantWorkload, WorkloadConfig
from repro.hybrid import ForegroundTenant, HybridSim
from repro.hybrid.recorder import PortUsageRecorder
from repro.hybrid.sim import _peak_offset
from repro.placement import SiloPlacementManager
from repro.topology import TreeTopology


def build_topology():
    return TreeTopology(n_pods=2, racks_per_pod=2, servers_per_rack=2,
                        slots_per_server=2, link_rate=units.gbps(10),
                        oversubscription=5.0,
                        buffer_bytes=312 * units.KB)


def guarantee():
    return NetworkGuarantee(bandwidth=units.mbps(100),
                            burst=15 * units.KB,
                            delay=1000 * units.MICROS,
                            peak_rate=units.gbps(1))


def foreground(n_vms=4, app="memcached"):
    return ForegroundTenant(
        request=TenantRequest(n_vms=n_vms, guarantee=guarantee(),
                              tenant_class=TenantClass.CLASS_A),
        app=app)


def background(topo, seed=1):
    config = WorkloadConfig(a_flow_bytes=1 * units.MB,
                            b_flow_bytes=4 * units.MB,
                            mean_compute_time=0.05,
                            mean_vms=4.0, max_vms=8)
    return TenantWorkload.for_occupancy(config, 0.5, topo.n_slots,
                                        seed=seed)


class TestPeakOffset:
    def recorder(self, entries):
        recorder = PortUsageRecorder(entries.keys())
        for port, series in entries.items():
            for now, new in series:
                recorder.record((port,), old=recorder.used_at(port, now),
                                new=new, now=now)
        return recorder

    def test_picks_total_usage_argmax(self):
        recorder = self.recorder({1: [(1.0, 2.0), (2.0, 5.0), (3.0, 1.0)],
                                  2: [(2.0, 1.0)]})
        assert _peak_offset(recorder, until=8.0, fg_horizon=0.5) == 2.0

    def test_tie_breaks_toward_earliest(self):
        recorder = self.recorder({1: [(1.0, 5.0), (3.0, 5.0)]})
        assert _peak_offset(recorder, until=8.0, fg_horizon=0.5) == 1.0

    def test_clamped_so_window_fits_horizon(self):
        recorder = self.recorder({1: [(7.9, 5.0)]})
        assert _peak_offset(recorder, until=8.0, fg_horizon=1.0) == 7.0

    def test_untouched_ports_fall_back_to_midpoint(self):
        recorder = PortUsageRecorder([1, 2])
        assert _peak_offset(recorder, until=8.0, fg_horizon=0.5) == 4.0


class TestValidation:
    def test_needs_a_foreground_tenant(self):
        with pytest.raises(ValueError, match="foreground"):
            HybridSim(SiloPlacementManager(build_topology()), [])

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown foreground app"):
            foreground(app="quicsim")

    def test_offset_outside_horizon_rejected(self):
        reset_tenant_ids()
        topo = build_topology()
        sim = HybridSim(SiloPlacementManager(topo), [foreground()])
        with pytest.raises(ValueError, match="fg_offset"):
            sim.run(background(topo), until=1.0, fg_offset=2.0)


class TestRun:
    def run(self, fg_offset="peak", until=1.0, tenants=None):
        reset_tenant_ids()
        topo = build_topology()
        sim = HybridSim(SiloPlacementManager(topo),
                        tenants or [foreground()])
        return sim.run(background(topo), until=until,
                       fg_offset=fg_offset, fg_horizon=5e-3, seed=3)

    def test_memcached_foreground_reports_messages(self):
        result = self.run()
        assert result.rejected == 0
        assert result.watched_ports > 0
        (fg,) = result.foreground
        assert fg["app"] == "memcached" and fg["vms"] == 4
        assert fg["messages"] > 0
        assert fg["p50_us"] > 0 and fg["p99_us"] >= fg["p50_us"]
        assert 0.0 <= result.fg_offset <= 1.0
        assert result.background.finished_jobs >= 0

    def test_foreground_vms_are_built_by_the_silo_mechanism(
            self, monkeypatch):
        """Phase 3 goes through the registry: every foreground VM is one
        ``SiloMechanism.add_vm`` placed, paced from its guarantee."""
        from repro.mechanisms import SiloMechanism
        built = []
        add_vm = SiloMechanism.add_vm

        def recording_add_vm(self, net, vm_id, tenant_id, server,
                             guarantee):
            vm = add_vm(self, net, vm_id, tenant_id, server, guarantee)
            built.append((net, vm))
            return vm
        monkeypatch.setattr(SiloMechanism, "add_vm", recording_add_vm)
        result = self.run(tenants=[foreground(), foreground(n_vms=2)])
        (net,) = {id(net): net for net, _ in built}.values()
        assert list(net.vms.values()) == [vm for _, vm in built]
        assert [vm.vm_id for _, vm in built] == list(range(6))
        assert all(vm.pacer is not None and vm.guarantee == guarantee()
                   for _, vm in built)
        assert [fg["vms"] for fg in result.foreground] == [4, 2]

    def test_default_offset_is_midpoint(self):
        assert self.run(fg_offset=None).fg_offset == 0.5

    def test_oversized_foreground_counts_as_rejected(self):
        topo = build_topology()
        result = self.run(tenants=[foreground(),
                                   foreground(n_vms=topo.n_slots + 1)])
        assert result.rejected == 1
        assert len(result.foreground) == 1

    def test_to_dict_is_json_serializable(self):
        payload = self.run().to_dict()
        round_trip = json.loads(json.dumps(payload))
        assert round_trip["rejected_foreground"] == 0
        assert round_trip["fg_horizon"] == 5e-3
        assert set(round_trip["background"]) >= {"finished_jobs",
                                                 "mean_occupancy"}
