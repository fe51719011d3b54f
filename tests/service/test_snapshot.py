"""Bit-exact state snapshots: dump/restore identity and digests."""

import copy
import json

from repro.faults.model import FaultEvent, FaultTarget
from repro.service import AGG, SnapshotStore
from repro.service.snapshot import (dump_manager, dump_request,
                                    restore_manager, restore_request,
                                    state_digest)

from tests.service.test_cluster import (build_cluster, best_effort,
                                        down, guaranteed, up)


def busy_cluster():
    """A cluster driven through every mutation path: shard and
    aggregator placements, a departure, a fault and a repair."""
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
    dump has a slot for: a tenant per shard, an aggregator-owned
    cross-pod tenant (with its shard placeholders and reservations), a
    degraded link (poison), a crashed server (cordon) and two recovery
    tracks."""
    cluster = build_cluster()
    assert cluster.place(guaranteed(1, n_vms=3, mbps=33.3), now=0.0)
    assert cluster.place(guaranteed(2, n_vms=5, mbps=62.5), now=0.25)
    assert cluster.place(guaranteed(3, n_vms=22, mbps=3.3), now=0.5)
    link = cluster.topology.tor_up(3).port_id
    cluster.apply_fault(FaultEvent.degrade(
        time=1.0, target=FaultTarget("link", link), factor=0.75))
    cluster.apply_fault(down("server:7", time=2.0))
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
        manager = cluster.calc
        dump = dump_manager(manager)
        fresh = build_cluster().calc
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
    #: ``pinned_cluster().state_digest()`` at the commit before the
    #: digest lost its deep copy (74a239c).  It moves only if the dump
    #: layout, the key order, float formatting or the counter strip do
    #: -- each of which also breaks recovery of snapshots already on
    #: disk, so update it knowingly.
    PINNED = ("f49b65b8bbfe43d1733f91b961043076"
              "dd92c60ed32a25c3d6cb90b92fd18852")

    def test_pinned_cluster_has_one_of_everything(self):
        cluster = pinned_cluster()
        assert cluster.owner == {1: 0, 2: 1, 3: AGG}
        assert sorted(cluster._xpod[3]) == [0, 1]
        assert cluster.controllers[1]._poisoned[
            cluster.shard_topology.tor_up(1).port_id] == 0.75
        assert cluster.calc.cordoned_servers == [7]
        assert sorted(cluster.agg_controller._tracks) == [3]
        assert sorted(cluster.controllers[1]._tracks) == [2]

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
        for manager in ([shard["manager"] for shard in state["shards"]]
                        + [state["calc"]]):
            counters = manager["counters"]
            for key, value in counters.items():
                counters[key] = ({k: v + 7 for k, v in value.items()}
                                 if isinstance(value, dict) else value + 7)
        assert state != before
        assert state_digest(state) == digest == self.PINNED


class TestDigest:
    def test_digest_ignores_attempt_counters(self):
        cluster = busy_cluster()
        state = cluster.dump_state()
        assert state["calc"]["counters"]["accepted"] > 0
        state["calc"]["counters"]["accepted"] += 100
        state["shards"][0]["manager"]["counters"]["rejected"] += 3
        assert state_digest(state) == cluster.state_digest()

    def test_digest_pins_the_books(self):
        cluster = busy_cluster()
        state = cluster.dump_state()
        state["owner"][0][1] = 1 - state["owner"][0][1]
        assert state_digest(state) != cluster.state_digest()
