"""The admission service loop: backpressure, deadlines, shedding, and
crash-consistent recovery."""

import json

import pytest

from repro import units
from repro.service import (AdmissionService, IngressItem, Priority,
                           SnapshotError, WalError)
from repro.service.snapshot import dump_request
from repro.topology import TreeTopology

from tests.service.test_cluster import (best_effort, down, guaranteed,
                                        up)


def build_topology():
    return TreeTopology(n_pods=2, racks_per_pod=2, servers_per_rack=3,
                        slots_per_server=4, link_rate=units.gbps(10),
                        oversubscription=5.0,
                        buffer_bytes=312 * units.KB)


def build_service(tmp_path, **kwargs):
    kwargs.setdefault("queue_capacity", 8)
    kwargs.setdefault("batch_size", 4)
    kwargs.setdefault("snapshot_every", 0)
    return AdmissionService(build_topology(), tmp_path / "svc", **kwargs)


class TestIngress:
    def test_overload_bounces_with_retry_after(self, tmp_path):
        service = build_service(tmp_path, queue_capacity=4)
        statuses = [service.submit_admission(guaranteed(tid), now=0.0)
                    for tid in range(1, 8)]
        queued = [s for s, _ in statuses if s == "queued"]
        bounced = [(s, r) for s, r in statuses if s == "rejected"]
        assert len(queued) == 4 and len(bounced) == 3
        assert all(r is not None and r > 0 for _, r in bounced)
        assert service.metrics.rejected_backpressure == 3
        assert service.queue.max_admit_depth <= 4
        service.close()

    def test_deadline_expiry(self, tmp_path):
        service = build_service(tmp_path)
        service.submit_admission(guaranteed(1), now=0.0, deadline=1.0)
        service.submit_admission(guaranteed(2), now=0.0, deadline=9.0)
        counts = service.tick(now=5.0)  # past tenant 1's deadline
        assert counts["expired"] == 1
        assert counts["admitted"] == 1
        assert service.metrics.expired == 1
        assert 1 not in service.cluster.placements
        assert 2 in service.cluster.placements
        service.close()

    def test_admit_then_depart_round_trip(self, tmp_path):
        service = build_service(tmp_path)
        service.submit_admission(guaranteed(1), now=0.0)
        service.tick(now=0.1)
        assert 1 in service.cluster.placements
        service.submit_departure(1, now=1.0)
        counts = service.tick(now=1.1)
        assert counts["departed"] == 1
        assert 1 not in service.cluster.placements
        assert service.metrics.departed == 1
        service.close()

    def test_departure_of_unknown_tenant_is_absorbed(self, tmp_path):
        service = build_service(tmp_path)
        service.submit_departure(42, now=0.0)
        counts = service.tick(now=0.1)
        assert counts["departed"] == 1
        service.close()

    def test_on_decision_feedback_channel(self, tmp_path):
        service = build_service(tmp_path)
        decisions = []
        service.on_decision = (
            lambda item, outcome, now: decisions.append(
                (item.seq, outcome)))
        service.submit_admission(guaranteed(1), now=0.0)
        service.submit_departure(99, now=0.0)
        service.tick(now=0.1)
        assert sorted(decisions) == [(0, "admitted"), (1, "unknown")]
        service.close()


class TestSheddingAndDegradation:
    def test_forced_overshoot_is_shed_back_to_capacity(self, tmp_path):
        """Crash-recovery re-enqueue can overshoot the bound; the next
        tick trims back to capacity, earliest deadline first."""
        service = build_service(tmp_path, queue_capacity=2,
                                batch_size=1)
        for tid in range(1, 6):
            seq = service.wal.log_enq(
                "admit", 0.0,
                {"request": dump_request(guaranteed(tid)), "attempt": 0},
                deadline=float(tid))
            service.queue.offer(
                IngressItem(Priority.ADMIT, 0.0, guaranteed(tid),
                            seq=seq, deadline=float(tid)), force=True)
        assert len(service.queue) == 5
        counts = service.tick(now=0.1)
        assert counts["shed"] == 3
        assert service.metrics.shed == 3
        # The survivors are the two latest deadlines; batch_size=1
        # admitted the earlier of them.
        assert counts["admitted"] == 1
        assert len(service.queue) == 1
        service.close()


class TestRecovery:
    def drive(self, service):
        """Admissions + a departure + a fault/repair pair, over a few
        ticks -- touches every WAL record kind."""
        now = 0.0
        for tid in range(1, 9):
            service.submit_admission(guaranteed(tid), now=now)
            if tid == 3:
                service.submit_fault(down("server:0", time=now),
                                     now=now)
            if tid == 5:
                service.submit_departure(1, now=now)
            if tid == 6:
                service.submit_fault(up("server:0", time=now), now=now)
            now += 0.25
            service.tick(now=now)
        service.submit_admission(best_effort(50, n_vms=30), now=now)
        service.tick(now=now + 0.25)
        return now + 0.25

    def test_kill_restart_is_bit_identical(self, tmp_path):
        service = build_service(tmp_path)
        self.drive(service)
        digest = service.state_digest()
        del service  # kill -9: no close(), no final snapshot
        reborn = build_service(tmp_path)
        assert reborn.state_digest() == digest
        assert reborn.metrics.replayed > 0
        reborn.close()

    def test_recovery_from_snapshot_plus_wal_tail(self, tmp_path):
        service = build_service(tmp_path, snapshot_every=5)
        self.drive(service)
        assert service.metrics.snapshots > 0
        digest = service.state_digest()
        folded = service.snapshots.load()["done_count"]
        assert 0 < folded < service._done_count  # a real WAL tail
        del service
        reborn = build_service(tmp_path, snapshot_every=5)
        assert reborn.state_digest() == digest
        reborn.close()

    def test_open_intents_are_reenqueued(self, tmp_path):
        service = build_service(tmp_path)
        service.submit_admission(guaranteed(1), now=0.0)
        service.tick(now=0.1)
        service.submit_admission(guaranteed(2), now=0.2,
                                 deadline=9.0)  # queued, never ticked
        del service
        reborn = build_service(tmp_path)
        assert len(reborn.queue) == 1
        counts = reborn.tick(now=0.3)
        assert counts["admitted"] == 1
        assert 2 in reborn.cluster.placements
        reborn.close()

    def test_restarted_service_continues_identically(self, tmp_path):
        """One continuous life and a kill/restart life make the same
        decisions for the same subsequent traffic."""
        a = build_service(tmp_path / "a")
        end = self.drive(a)
        b = build_service(tmp_path / "b")
        self.drive(b)
        del b
        b = build_service(tmp_path / "b")  # crash + recover
        for service in (a, b):
            service.submit_admission(guaranteed(60, n_vms=3), now=end)
            service.tick(now=end + 0.25)
        assert a.state_digest() == b.state_digest()
        a.close()
        b.close()


class TestCorruptSnapshot:
    """A damaged ``snapshot.json`` fails the start with a diagnosis
    that names the file, never a bare decode/key error."""

    SHAPES = [
        ('{"cluster": {"shards": [', "not JSON"),       # truncated
        ("\x00\x01 not json at all", "not JSON"),
        ("[1, 2, 3]", "not a JSON object"),
        ('{"time": 1.0, "done_count": 3}', "no 'cluster' key"),
        # Valid JSON of the wrong shape, one level further down each.
        ('{"time": 0, "done_count": 0, "cluster": []}',
         "cluster state is not a JSON object"),
        ('{"time": 0, "done_count": 0, "cluster": {"manager": {}}}',
         "cluster state has no 'controller' key"),
        ('{"cluster": {"manager": {}, "controller": {},'
         ' "cordoned_pods": []}}', "manager dump has no 'free_slots' key"),
        # Written before the books became single: diagnosed, not read.
        ('{"done_count": 0, "cluster": {"shards": [], "calc": {},'
         ' "owner": []}}', "written by the sharded layout"),
    ]

    @pytest.mark.parametrize("text, what", SHAPES)
    def test_malformed_snapshot_is_diagnosed(self, tmp_path, text, what):
        path = tmp_path / "svc" / "snapshot.json"
        path.parent.mkdir()
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SnapshotError) as raised:
            build_service(tmp_path)
        assert str(path) in str(raised.value)
        assert what in str(raised.value)
        assert isinstance(raised.value, ValueError)

    def test_damaged_snapshot_leaves_the_wal_untouched(self, tmp_path):
        service = build_service(tmp_path)
        service.submit_admission(guaranteed(1), now=0.0)
        service.tick(now=0.1)
        service.close()
        wal = tmp_path / "svc" / "wal.jsonl"
        torn = wal.read_bytes() + b'{"t": "enq", "se'
        wal.write_bytes(torn)
        (tmp_path / "svc" / "snapshot.json").write_text("{")
        with pytest.raises(SnapshotError):
            build_service(tmp_path)
        assert wal.read_bytes() == torn

    def test_controller_dump_shape_is_checked(self, tmp_path):
        service = build_service(tmp_path)
        service.submit_admission(guaranteed(1), now=0.0)
        service.tick(now=0.1)
        service.snapshot(now=0.2)
        service.close()
        path = tmp_path / "svc" / "snapshot.json"
        state = json.loads(path.read_text(encoding="utf-8"))
        del state["cluster"]["controller"]["health"]["down_servers"]
        path.write_text(json.dumps(state), encoding="utf-8")
        with pytest.raises(SnapshotError,
                           match="health dump has no 'down_servers' key"):
            build_service(tmp_path)

    def test_missing_snapshot_is_a_clean_first_start(self, tmp_path):
        service = build_service(tmp_path)
        assert service.snapshots.load() is None
        assert service.metrics.replayed == 0
        assert not service.cluster.placements
        service.close()


class TestCorruptWal:
    """Only a torn *tail* is trimmed; damage with valid records behind
    it fails the start and leaves the file alone."""

    def durable_log(self, tmp_path):
        service = build_service(tmp_path)
        for tid in range(1, 7):
            service.submit_admission(guaranteed(tid), now=0.0)
        service.tick(now=0.1)
        service.tick(now=0.2)
        digest = service.state_digest()
        service.close()
        return tmp_path / "svc" / "wal.jsonl", digest

    @pytest.mark.parametrize("garbage", [
        b"\x00\xff garbage\n", b"[1, 2]\n", b'{"t": "enq"}\n',
        b'{"t": "enq", "seq": 3, "time": 0.0}\n',
        b'{"t": "done", "seq": 3}\n', b'{"t": "eh", "seq": 3}\n'])
    def test_mid_file_damage_is_diagnosed_not_truncated(self, tmp_path,
                                                        garbage):
        wal, _digest = self.durable_log(tmp_path)
        lines = wal.read_bytes().splitlines(keepends=True)
        assert len(lines) == 12
        lines[3] = garbage
        damaged = b"".join(lines)
        wal.write_bytes(damaged)
        with pytest.raises(WalError) as raised:
            build_service(tmp_path)
        assert str(wal) in str(raised.value)
        assert "line 4" in str(raised.value)
        assert isinstance(raised.value, ValueError)
        assert wal.read_bytes() == damaged

    @pytest.mark.parametrize("tail", [
        b'{"t": "enq", "se', b'{"t": "enq", "se\n', b"\x00\n\xff\n"])
    def test_torn_tail_is_trimmed_and_the_service_starts(self, tmp_path,
                                                         tail):
        wal, digest = self.durable_log(tmp_path)
        durable = wal.read_bytes()
        wal.write_bytes(durable + tail)
        reborn = build_service(tmp_path)
        assert reborn.state_digest() == digest
        assert wal.read_bytes() == durable
        reborn.close()


class TestServiceMetrics:
    """The SLO percentile series follows the repo-wide nearest-rank
    convention (regression: it used to floor-index with q in [0, 1],
    so p50 read one rank low and p99 silently truncated)."""

    def make_metrics(self):
        from repro.service import ServiceMetrics
        metrics = ServiceMetrics()
        metrics.admission_latencies = [float(i) for i in range(1, 101)]
        return metrics

    def test_nearest_rank_pins(self):
        metrics = self.make_metrics()
        assert metrics.latency_percentile(50.0) == 50.0
        assert metrics.latency_percentile(99.0) == 99.0
        assert metrics.latency_percentile(0.0) == 1.0
        assert metrics.latency_percentile(100.0) == 100.0

    def test_q_is_percent_not_fraction(self):
        """q=0.5 means the 0.5th percentile, not the median."""
        metrics = self.make_metrics()
        assert metrics.latency_percentile(0.5) == 1.0

    def test_out_of_range_q_raises(self):
        metrics = self.make_metrics()
        with pytest.raises(ValueError):
            metrics.latency_percentile(101.0)
        empty = type(metrics)()
        with pytest.raises(ValueError):
            empty.latency_percentile(-1.0)

    def test_empty_series_is_none(self):
        from repro.service import ServiceMetrics
        assert ServiceMetrics().latency_percentile(99.0) is None

    def test_to_dict_percentile_keys(self):
        metrics = self.make_metrics()
        out = metrics.to_dict()
        assert out["p50_admission_latency"] == 50.0
        assert out["p99_admission_latency"] == 99.0
