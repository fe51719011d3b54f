"""The service adds queueing and durability, not a second placement
policy: what it decides is what a bare ``SiloPlacementManager`` +
``ClusterController`` decide when fed the same operations in the same
order -- and a tenant the controller still tracks stays *known*."""

import random

import pytest

from repro import units
from repro.placement import ClusterController, SiloPlacementManager
from repro.service import AdmissionService, Priority
from repro.topology import TreeTopology

from tests.service.test_cluster import best_effort, down, guaranteed, up

POD_SERVERS = 2 * 3
POD_SLOTS = POD_SERVERS * 4


def build_topology():
    return TreeTopology(n_pods=4, racks_per_pod=2, servers_per_rack=3,
                        slots_per_server=4, link_rate=units.gbps(10),
                        oversubscription=5.0,
                        buffer_bytes=312 * units.KB)


def build_service(tmp_path):
    return AdmissionService(build_topology(), tmp_path / "svc",
                            queue_capacity=64, batch_size=8,
                            snapshot_every=0)


class Reference:
    """A bare manager + controller, plus the test's own record of which
    tenant ids were admitted and have not departed."""

    def __init__(self):
        self.manager = SiloPlacementManager(build_topology())
        self.controller = ClusterController(self.manager)
        self.alive = set()

    def step(self, ops, now):
        """Apply one tick's operations in the service's order: faults,
        then departures, then the admissions as one batch."""
        decisions = []
        for event in ops["fault"]:
            self.controller.apply(event, now=now)
            decisions.append(("fault", event.target.spec, "fault"))
        for tenant_id in ops["depart"]:
            if tenant_id in self.alive:
                self.alive.remove(tenant_id)
                if tenant_id in self.manager.placements:
                    self.manager.remove(tenant_id)
                self.controller.notify_departed(tenant_id, now)
                decisions.append(("depart", tenant_id, "departed"))
            else:
                decisions.append(("depart", tenant_id, "unknown"))
        placements = self.manager.place_batch(ops["admit"], now=now)
        for request, placement in zip(ops["admit"], placements):
            if placement is not None:
                self.alive.add(request.tenant_id)
            decisions.append(("admit", request.tenant_id,
                              "admitted" if placement is not None
                              else "rejected"))
        return decisions


def random_ops(rng, reference, next_id, now):
    """One tick's worth of seeded operations, drawn against the
    reference's state; at most two servers of a pod are ever down, so
    the pod cordon (tests/service/test_cluster.py) stays out of it."""
    ops = {"fault": [], "depart": [], "admit": []}
    down_servers = reference.controller.health.down_servers
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["admit", "admit", "admit", "depart", "crash",
                           "repair"])
        if kind == "admit":
            n_vms = rng.choice([1, 2, 3, 5, 8, 13])
            ops["admit"].append(guaranteed(
                next_id[0], n_vms=n_vms,
                mbps=rng.choice([50.0, 200.0, 800.0])))
            next_id[0] += 1
        elif kind == "depart":
            candidates = sorted(reference.alive - set(ops["depart"]))
            ops["depart"].append(rng.choice(candidates) if candidates
                                 and rng.random() < 0.9 else 10_000)
        elif kind == "crash":
            server = rng.randrange(reference.manager.topology.n_servers)
            pending = {e.target.index for e in ops["fault"]}
            pod_down = sum(1 for s in down_servers | pending
                           if s // POD_SERVERS == server // POD_SERVERS)
            if server not in down_servers | pending and pod_down < 2:
                ops["fault"].append(down(f"server:{server}", time=now))
        elif down_servers:
            server = rng.choice(sorted(down_servers))
            if server not in {e.target.index for e in ops["fault"]}:
                ops["fault"].append(up(f"server:{server}", time=now))
    return ops


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_service_decides_as_a_bare_manager_and_controller(tmp_path, seed):
    rng = random.Random(seed)
    service = build_service(tmp_path)
    reference = Reference()
    decided = []

    def record(item, outcome, now):
        if item.priority is Priority.FAULT:
            decided.append(("fault", item.payload.target.spec, outcome))
        elif item.priority is Priority.DEPARTURE:
            decided.append(("depart", item.payload, outcome))
        else:
            decided.append(("admit", item.payload.tenant_id, outcome))
    service.on_decision = record
    next_id = [1]
    cluster_scope_id = None
    for step in range(60):
        now = 0.25 * (step + 1)
        ops = random_ops(rng, reference, next_id, now)
        if step == 5:
            # Bigger than a pod: only cluster scope can hold it.
            cluster_scope_id = next_id[0]
            ops["admit"].append(best_effort(cluster_scope_id,
                                            n_vms=POD_SLOTS + 6))
            next_id[0] += 1
        for event in ops["fault"]:
            service.submit_fault(event, now=now)
        for tenant_id in ops["depart"]:
            service.submit_departure(tenant_id, now=now)
        for request in ops["admit"]:
            assert service.submit_admission(request, now=now)[0] == "queued"
        del decided[:]
        service.tick(now=now)
        assert decided == reference.step(ops, now), f"step {step}"
        assert ({tid: p.vm_servers
                 for tid, p in service.cluster.placements.items()}
                == {tid: p.vm_servers
                    for tid, p in reference.manager.placements.items()}
                ), f"step {step}"
        assert (service.cluster.manager.free_slots
                == reference.manager.free_slots), f"step {step}"
        assert service.cluster.cordoned_pods == set()
        if step == 5:
            spanned = {server // POD_SERVERS for server in
                       service.cluster.placements[cluster_scope_id]
                       .vm_servers}
            assert len(spanned) > 1
    assert (service.cluster.controller.report()
            == reference.controller.report())
    assert reference.controller.report().rows  # faults did hit tenants
    assert reference.manager.rejected > 0      # and the books filled up
    service.close()


class TestKnownTenants:
    """Placed *or* tracked by the controller = known, exactly what the
    sharded layout's ``owner`` map recorded."""

    def evict_one(self, service):
        """Fill every slot with one-server tenants, then crash server
        0: its tenant has nowhere to go and is evicted, still tracked."""
        n_servers = service.cluster.topology.n_servers
        for tid in range(1, n_servers + 1):
            service.submit_admission(guaranteed(tid, n_vms=4), now=0.0)
        for i in range(n_servers // 8):
            service.tick(now=0.1 * (i + 1))
        assert len(service.cluster.placements) == n_servers
        evicted, = service.cluster.manager.tenants_on_server(0)
        service.submit_fault(down("server:0", time=5.0), now=5.0)
        service.tick(now=5.0)
        assert evicted not in service.cluster.placements
        return evicted

    def test_resubmitting_a_live_or_evicted_id_is_rejected(self, tmp_path):
        service = build_service(tmp_path)
        evicted = self.evict_one(service)
        live = next(iter(service.cluster.placements))
        for tenant_id in (live, evicted):
            with pytest.raises(ValueError, match="already known"):
                service.cluster.place_batch([guaranteed(tenant_id)],
                                            now=6.0)
            with pytest.raises(ValueError, match="already known"):
                service.cluster.adopt(guaranteed(tenant_id), [1])
        service.close()

    def test_departure_of_an_evicted_tenant_is_departed(self, tmp_path):
        service = build_service(tmp_path)
        evicted = self.evict_one(service)
        del service  # kill -9: known-ness has to survive the replay
        service = build_service(tmp_path)
        decided = []
        service.on_decision = lambda item, outcome, now: decided.append(
            (item.payload, outcome))
        service.submit_departure(evicted, now=6.0)
        service.submit_departure(evicted, now=6.0)
        service.tick(now=6.0)
        assert decided == [(evicted, "departed"), (evicted, "unknown")]
        row, = service.cluster.controller.report().rows
        assert (row.tenant_id, row.outcome) == (evicted, "evicted")
        # The id is free again.
        service.submit_fault(up("server:0", time=7.0), now=7.0)
        service.submit_admission(guaranteed(evicted, n_vms=4), now=7.0)
        assert service.tick(now=7.0)["admitted"] == 1
        service.close()
