"""The service's one set of books: known tenants, adopt, pod cordon."""

import pytest

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.faults.model import FaultEvent, FaultTarget
from repro.service import ClusterBooks
from repro.topology import TreeTopology

POD_SERVERS = 2 * 3  # racks_per_pod * servers_per_rack


def build_cluster():
    topo = TreeTopology(n_pods=2, racks_per_pod=2, servers_per_rack=3,
                        slots_per_server=4, link_rate=units.gbps(10),
                        oversubscription=5.0,
                        buffer_bytes=312 * units.KB)
    return ClusterBooks(topo)


def guaranteed(tenant_id, n_vms=2, mbps=100.0):
    return TenantRequest(
        n_vms=n_vms,
        guarantee=NetworkGuarantee(bandwidth=units.mbps(mbps),
                                   burst=10 * units.KB, delay=None,
                                   peak_rate=None),
        tenant_class=TenantClass.CLASS_B,
        name=f"t{tenant_id}", tenant_id=tenant_id)


def best_effort(tenant_id, n_vms):
    return TenantRequest(n_vms=n_vms, guarantee=None,
                         tenant_class=TenantClass.BEST_EFFORT,
                         name=f"be{tenant_id}", tenant_id=tenant_id)


def down(target_spec, time=1.0):
    return FaultEvent.down(time=time,
                           target=FaultTarget.parse(target_spec))


def up(target_spec, time=2.0):
    return FaultEvent.up(time=time,
                         target=FaultTarget.parse(target_spec))


class TestPlacement:
    def test_duplicate_tenant_id_is_rejected(self):
        cluster = build_cluster()
        cluster.place(guaranteed(1), now=0.0)
        with pytest.raises(ValueError, match="already known"):
            cluster.place(guaranteed(1), now=0.0)
        with pytest.raises(ValueError, match="already known"):
            cluster.place_batch([guaranteed(2), guaranteed(1)], now=0.0)
        assert 2 not in cluster.placements  # checked before any commit

    def test_depart_unknown_tenant_raises(self):
        cluster = build_cluster()
        with pytest.raises(KeyError):
            cluster.depart(99)

    def test_adopt_reproduces_a_place_bit_identically(self):
        cluster = build_cluster()
        placement = cluster.place(guaranteed(1, n_vms=9), now=0.0)
        assert len(set(placement.vm_servers)) > 1  # ports reserved
        replayed = build_cluster()
        replayed.adopt(guaranteed(1, n_vms=9),
                       vm_servers=list(placement.vm_servers))
        assert replayed.state_digest() == cluster.state_digest()
        assert (list(replayed.placements[1].vm_servers)
                == list(placement.vm_servers))


class TestPodCordon:
    def crash_half_of_pod_0(self, cluster):
        for server in range(3):  # 3 of pod 0's 6 servers
            cluster.apply_fault(down(f"server:{server}",
                                     time=float(server)))

    def test_pod_cordon_engages_at_half_a_pod_down(self):
        cluster = build_cluster()
        cluster.apply_fault(down("server:0", time=0.0))
        cluster.apply_fault(down("server:1", time=1.0))
        assert cluster.cordoned_pods == set()
        assert cluster.manager.cordoned_servers == [0, 1]
        cluster.apply_fault(down("server:2", time=2.0))
        assert cluster.cordoned_pods == {0}
        assert cluster.manager.cordoned_servers == list(
            range(POD_SERVERS))
        # Placement routes around the cordoned pod.
        placement = cluster.place(guaranteed(1), now=5.0)
        assert placement is not None
        assert min(placement.vm_servers) >= POD_SERVERS

    def test_pod_cordon_is_reasserted_after_a_repair(self):
        """A repair uncordons the repaired server; with the pod still
        at the threshold the cordon takes it straight back."""
        cluster = build_cluster()
        self.crash_half_of_pod_0(cluster)
        cluster.apply_fault(down("server:3", time=3.0))
        cluster.apply_fault(up("server:3", time=4.0))
        assert cluster.cordoned_pods == {0}
        assert cluster.manager.cordoned_servers == list(
            range(POD_SERVERS))

    def test_pod_cordon_lifts_when_enough_servers_return(self):
        cluster = build_cluster()
        self.crash_half_of_pod_0(cluster)
        cluster.apply_fault(up("server:0", time=5.0))
        assert cluster.cordoned_pods == set()
        # Still-down servers stay individually fenced.
        assert cluster.controller.health.down_servers == {1, 2}
        assert cluster.manager.cordoned_servers == [1, 2]
        fresh = build_cluster().manager
        assert cluster.manager.free_slots[3:] == fresh.free_slots[3:]
        assert cluster.manager.free_slots[0] == fresh.free_slots[0]
