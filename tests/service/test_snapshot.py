"""Bit-exact state snapshots: dump/restore identity and digests."""

import copy
import json

from repro.faults.model import FaultEvent, FaultTarget
from repro.service import SnapshotStore
from repro.service.snapshot import (dump_manager, dump_request,
                                    restore_manager, restore_request,
                                    state_digest)

from tests.service.test_cluster import (build_cluster, best_effort,
                                        down, guaranteed, up)


def busy_cluster():
    """A cluster driven through every mutation path: pod- and
    cluster-scope placements, a departure, a fault and a repair."""
    cluster = build_cluster()
    for tid in range(1, 5):
        assert cluster.place(guaranteed(tid, n_vms=3), now=0.0)
    assert cluster.place(best_effort(9, n_vms=30), now=0.5)
    cluster.depart(2, now=1.0)
    cluster.apply_fault(down("server:0", time=2.0))
    cluster.apply_fault(up("server:0", time=3.0))
    return cluster


def pinned_cluster():
    """Small, fully deterministic books with one of everything the
    dump has a slot for: a one-server tenant, a tenant the crash of
    server 7 pushed out to cluster scope (an open recovery track), a
    degraded link (poison), crashed servers (cordons), a pod cordoned
    for having half its servers down, and a tracked tenant that
    departed (a closed report row)."""
    cluster = build_cluster()
    assert cluster.place(guaranteed(1, n_vms=3, mbps=33.3), now=0.0)
    assert cluster.place(guaranteed(2, n_vms=5, mbps=62.5), now=0.25)
    assert cluster.place(guaranteed(3, n_vms=22, mbps=3.3), now=0.5)
    link = cluster.topology.tor_up(3).port_id
    cluster.apply_fault(FaultEvent.degrade(
        time=1.0, target=FaultTarget("link", link), factor=0.75))
    for i, server in enumerate((7, 1, 9, 10)):
        cluster.apply_fault(down(f"server:{server}", time=2.0 + i))
    cluster.depart(2, now=6.0)
    return cluster


class TestClusterRoundTrip:
    def test_restore_reproduces_the_digest(self):
        cluster = busy_cluster()
        state = cluster.dump_state()
        restored = build_cluster()
        restored.restore_state(state)
        assert restored.state_digest() == cluster.state_digest()

    def test_restore_reproduces_the_dump_exactly(self):
        cluster = busy_cluster()
        state = cluster.dump_state()
        restored = build_cluster()
        restored.restore_state(state)
        assert (json.dumps(restored.dump_state(), sort_keys=True)
                == json.dumps(state, sort_keys=True))

    def test_snapshot_survives_a_json_round_trip(self):
        cluster = busy_cluster()
        state = json.loads(json.dumps(cluster.dump_state(),
                                      sort_keys=True))
        restored = build_cluster()
        restored.restore_state(state)
        assert restored.state_digest() == cluster.state_digest()

    def test_restored_cluster_keeps_working(self):
        cluster = busy_cluster()
        restored = build_cluster()
        restored.restore_state(cluster.dump_state())
        # Identical decisions for the next admission on both sides.
        live = cluster.place(guaranteed(50, n_vms=2), now=4.0)
        replayed = restored.place(guaranteed(50, n_vms=2), now=4.0)
        assert live is not None and replayed is not None
        assert list(live.vm_servers) == list(replayed.vm_servers)
        assert restored.state_digest() == cluster.state_digest()


class TestManagerRoundTrip:
    def test_registry_and_totals_round_trip(self):
        cluster = busy_cluster()
        manager = cluster.manager
        dump = dump_manager(manager)
        fresh = build_cluster().manager
        restore_manager(fresh, dump)
        assert (json.dumps(dump_manager(fresh), sort_keys=True)
                == json.dumps(dump, sort_keys=True))
        for port_id, state in manager.states.items():
            other = fresh.states[port_id]
            assert other.bandwidth == state.bandwidth
            assert other.burst == state.burst
            assert other.peak_rate == state.peak_rate
            assert other.packet_slack == state.packet_slack


class TestRequestRoundTrip:
    def test_guaranteed_request(self):
        request = guaranteed(7, n_vms=5, mbps=321.5)
        assert restore_request(dump_request(request)) == request

    def test_best_effort_request(self):
        request = best_effort(8, n_vms=4)
        assert restore_request(dump_request(request)) == request


class TestCanonicalForm:
    #: ``pinned_cluster().state_digest()``, re-pinned once at the
    #: commit after 340454a, where the dump became ``{manager,
    #: controller, cordoned_pods}`` (one set of books; the sharded
    #: layout pinned before it is not readable any more).  It moves
    #: only if the dump layout, the key order, float formatting or the
    #: counter strip do -- each of which also breaks recovery of
    #: snapshots already on disk, so update it knowingly.
    PINNED = ("ac863ecbcf3b545fd8477cd974314509"
              "db5b23918921f7c80649cfadd9f109fd")

    def test_pinned_cluster_has_one_of_everything(self):
        cluster = pinned_cluster()
        assert sorted(cluster.placements) == [1, 3]
        assert set(cluster.placements[1].vm_servers) == {0}
        pods = {cluster.topology.pod_of(server)
                for server in cluster.placements[3].vm_servers}
        assert pods == {0, 1}
        assert cluster.controller._poisoned[
            cluster.topology.tor_up(3).port_id] == 0.75
        assert cluster.controller.health.down_servers == {1, 7, 9, 10}
        assert cluster.cordoned_pods == {1}
        assert cluster.manager.cordoned_servers == [1, 6, 7, 8, 9, 10, 11]
        assert sorted(cluster.controller._tracks) == [3]
        assert [row.tenant_id
                for row in cluster.controller._closed_rows] == [2]

        def no_empty_slot(dump, path="state"):
            for key, value in dump.items():
                if isinstance(value, dict):
                    no_empty_slot(value, f"{path}.{key}")
                elif isinstance(value, list):
                    assert value, f"{path}.{key} is empty"
        no_empty_slot(cluster.dump_state())

    def test_digest_equals_the_parent_commits(self):
        assert pinned_cluster().state_digest() == self.PINNED

    def test_saved_bytes_are_sorted_key_json_and_round_trip(self,
                                                            tmp_path):
        cluster = pinned_cluster()
        state = {"time": 2.0, "done_count": 5,
                 "cluster": cluster.dump_state()}
        store = SnapshotStore(tmp_path / "snapshot.json")
        store.save(state)
        assert (store.path.read_bytes()
                == json.dumps(state, sort_keys=True).encode("utf-8"))
        restored = build_cluster()
        restored.restore_state(store.load()["cluster"])
        assert restored.dump_state() == state["cluster"]
        assert restored.state_digest() == self.PINNED

    def test_digest_reads_the_state_without_touching_it(self):
        state = pinned_cluster().dump_state()
        before = copy.deepcopy(state)
        digest = state_digest(state)
        assert state == before
        counters = state["manager"]["counters"]
        for key, value in counters.items():
            counters[key] = ({k: v + 7 for k, v in value.items()}
                             if isinstance(value, dict) else value + 7)
        assert state != before
        assert state_digest(state) == digest == self.PINNED


class TestDigest:
    def test_digest_ignores_attempt_counters(self):
        cluster = busy_cluster()
        state = cluster.dump_state()
        assert state["manager"]["counters"]["accepted"] > 0
        state["manager"]["counters"]["accepted"] += 100
        state["manager"]["counters"]["rejected"] += 3
        assert state_digest(state) == cluster.state_digest()

    def test_digest_pins_the_books(self):
        cluster = busy_cluster()
        state = cluster.dump_state()
        state["manager"]["free_slots"][-1] -= 1
        assert state_digest(state) != cluster.state_digest()
        state = cluster.dump_state()
        state["cordoned_pods"].append(1)
        assert state_digest(state) != cluster.state_digest()
