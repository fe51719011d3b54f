"""Write-ahead log durability and the recovery plan."""

import json

import pytest

from repro.service import SnapshotStore, WalError, WriteAheadLog
from repro.service.wal import recovery_plan, replay_records


class TestWriteAheadLog:
    def test_enq_done_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        seq = wal.log_enq("admit", 1.0, {"request": [1]}, deadline=6.0,
                          source=0)
        wal.log_done(seq, 2.0, "admitted", vm_servers=[3])
        wal.close()
        records = list(replay_records(tmp_path / "wal.jsonl"))
        assert [r["t"] for r in records] == ["enq", "done"]
        assert records[0]["seq"] == seq == 0
        assert records[0]["deadline"] == 6.0
        assert records[1]["vm_servers"] == [3]

    def test_reopen_continues_the_sequence(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.log_enq("admit", 1.0, {})
        wal.log_enq("depart", 2.0, {})
        wal.close()
        wal = WriteAheadLog(path)
        assert wal.log_enq("admit", 3.0, {}) == 2
        wal.close()

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.log_enq("admit", 1.0, {})
        wal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"t": "enq", "seq": 1, "kin')  # torn by kill -9
        assert len(list(replay_records(path))) == 1
        # Reopening truncates the torn tail, so the records appended
        # next do not sit behind a damaged line.
        wal = WriteAheadLog(path)
        seq = wal.log_enq("admit", 2.0, {})
        wal.close()
        assert seq == 1
        assert [r["seq"] for r in replay_records(path)] == [0, 1]

    def test_damage_before_a_valid_record_is_not_a_torn_tail(self,
                                                             tmp_path):
        """The reader used to stop at the first bad line and reopening
        truncated there: every durable record behind it was gone."""
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        for i in range(5):
            wal.log_enq("admit", float(i), {})
        wal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"#" * (len(lines[1]) - 1) + b"\n"
        damaged = b"".join(lines)
        path.write_bytes(damaged)
        with pytest.raises(WalError, match="line 2"):
            list(replay_records(path))
        with pytest.raises(WalError, match=str(path)):
            WriteAheadLog(path)
        assert path.read_bytes() == damaged

    def test_missing_file_is_an_empty_log(self, tmp_path):
        assert list(replay_records(tmp_path / "nope.jsonl")) == []


class TestRecoveryPlan:
    def build_log(self, path):
        """enq 0..3; done for 1 then 0 (EDF reordering); 2, 3 open."""
        wal = WriteAheadLog(path)
        for i in range(4):
            wal.log_enq("admit", float(i), {"i": i})
        wal.log_done(1, 4.0, "admitted", vm_servers=[0])
        wal.log_done(0, 5.0, "rejected")
        wal.close()

    def test_redo_follows_done_log_order_not_seq_order(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        self.build_log(path)
        redo, reenqueue, total_done = recovery_plan(path, folded_done=0)
        assert [r["seq"] for r in redo] == [1, 0]  # completion order
        assert [r["done"]["outcome"] for r in redo] == ["admitted",
                                                        "rejected"]
        assert [r["seq"] for r in reenqueue] == [2, 3]
        assert total_done == 2

    def test_folded_done_skips_the_snapshot_prefix(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        self.build_log(path)
        redo, reenqueue, total_done = recovery_plan(path, folded_done=1)
        assert [r["seq"] for r in redo] == [0]
        assert [r["seq"] for r in reenqueue] == [2, 3]
        assert total_done == 2

    def test_fully_folded_log_redoes_nothing(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        self.build_log(path)
        redo, reenqueue, total_done = recovery_plan(path, folded_done=2)
        assert redo == []
        assert [r["seq"] for r in reenqueue] == [2, 3]


class TestSnapshotStore:
    def test_save_load_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path / "snap.json")
        assert store.load() is None
        store.save({"done_count": 3, "cluster": {"x": [1, 2]}})
        assert store.load() == {"done_count": 3, "cluster": {"x": [1, 2]}}

    def test_save_replaces_atomically(self, tmp_path):
        store = SnapshotStore(tmp_path / "snap.json")
        store.save({"v": 1})
        store.save({"v": 2})
        assert store.load() == {"v": 2}
        # No temp droppings left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]

    def test_snapshot_is_canonical_json(self, tmp_path):
        store = SnapshotStore(tmp_path / "snap.json")
        store.save({"b": 1, "a": 2})
        raw = (tmp_path / "snap.json").read_text(encoding="utf-8")
        assert raw == json.dumps({"a": 2, "b": 1}, sort_keys=True)
