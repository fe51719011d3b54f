"""Typed readers for the committed trace artifacts."""

import json

import pytest

from repro.obs import (find_trace_artifacts, port_kind_of,
                       read_latency_csv, read_queues_csv)

LATENCY_HEADER = ("tenant_id,src_vm,dst_vm,size,start,finish,"
                  "latency,rto_events")
QUEUE_HEADER = "port,time,count,mean,min,max,last"


def write_latency(path, rows=("1,0,1,15000.0,0.0,0.0001,0.0001,0",)):
    path.write_text("\n".join([LATENCY_HEADER, *rows]) + "\n")


def write_queues(path, rows=("tor-down[3],0.0,5,100.0,0.0,300.0,50.0",)):
    path.write_text("\n".join([QUEUE_HEADER, *rows]) + "\n")


class TestReaders:
    def test_latency_round_trip(self, tmp_path):
        path = tmp_path / "latency.csv"
        write_latency(path, ["7,3,0,25000.0,0.01,0.0102,0.0002,1"])
        (record,) = read_latency_csv(path)
        assert record.tenant_id == 7
        assert record.src_vm == 3
        assert record.dst_vm == 0
        assert record.size == 25000.0
        assert record.latency == pytest.approx(0.0002)
        assert record.rto_events == 1

    def test_queues_grouped_by_port(self, tmp_path):
        path = tmp_path / "queues.csv"
        write_queues(path, ["tor-down[3],0.0,5,100.0,0.0,300.0,50.0",
                            "nic-up[0],0.0,2,10.0,0.0,20.0,10.0",
                            "tor-down[3],0.1,4,80.0,0.0,200.0,0.0"])
        series = read_queues_csv(path)
        assert set(series) == {"tor-down[3]", "nic-up[0]"}
        assert len(series["tor-down[3]"]) == 2
        bucket = series["tor-down[3]"][0]
        assert bucket.count == 5
        assert bucket.vmin == 0.0
        assert bucket.vmax == 300.0

    def test_wrong_header_raises(self, tmp_path):
        path = tmp_path / "latency.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="expected columns"):
            read_latency_csv(path)
        with pytest.raises(ValueError, match="expected columns"):
            read_queues_csv(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "queues.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_queues_csv(path)

    @pytest.mark.parametrize("bad_row, complaint", [
        ("1,2,3,15000.0,0.0", "expected 8 cells"),
        ("1,0,1,15000.0,0.0,0.0001,0.0001,0,9", "expected 8 cells"),
        ("1,0,1,abc,0.0,0.0001,0.0001,0", "abc"),
    ], ids=["short", "long", "non-numeric"])
    def test_malformed_latency_row_names_file_and_line(self, tmp_path,
                                                       bad_row, complaint):
        path = tmp_path / "latency.csv"
        write_latency(path, ["1,0,1,15000.0,0.0,0.0001,0.0001,0", bad_row])
        with pytest.raises(ValueError) as excinfo:
            read_latency_csv(path)
        assert f"{path}:3:" in str(excinfo.value)
        assert complaint in str(excinfo.value)

    @pytest.mark.parametrize("bad_row, complaint", [
        ("tor-down[3],0.0,5", "expected 7 cells"),
        ("tor-down[3],0.0,5,100.0,0.0,300.0,50.0,1", "expected 7 cells"),
        ("tor-down[3],0.0,abc,100.0,0.0,300.0,50.0", "abc"),
    ], ids=["short", "long", "non-numeric"])
    def test_malformed_queues_row_names_file_and_line(self, tmp_path,
                                                      bad_row, complaint):
        path = tmp_path / "queues.csv"
        write_queues(path, [bad_row])
        with pytest.raises(ValueError) as excinfo:
            read_queues_csv(path)
        assert f"{path}:2:" in str(excinfo.value)
        assert complaint in str(excinfo.value)


class TestPortKind:
    def test_indexed_name(self):
        assert port_kind_of("tor-down[3]") == "tor-down"
        assert port_kind_of("nic-up[127]") == "nic-up"

    def test_unindexed_name_unchanged(self):
        assert port_kind_of("vswitch") == "vswitch"


class TestFindTraceArtifacts:
    def test_plain_directory(self, tmp_path):
        write_latency(tmp_path / "latency.csv")
        write_queues(tmp_path / "queues.csv")
        (artifact,) = find_trace_artifacts(tmp_path)
        assert len(artifact.latencies()) == 1
        assert set(artifact.queues()) == {"tor-down[3]"}

    def test_campaign_directory(self, tmp_path):
        cell = tmp_path / "artifacts" / "0000-abc"
        cell.mkdir(parents=True)
        write_latency(cell / "latency.csv")
        write_queues(cell / "queues.csv")
        manifest = {"cells": [{"artifacts": [
            "artifacts/0000-abc/latency.csv",
            "artifacts/0000-abc/queues.csv",
            "artifacts/0000-abc/events.jsonl",  # pruned before commit
        ]}]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (artifact,) = find_trace_artifacts(tmp_path)
        assert artifact.latency_path == cell / "latency.csv"

    def test_campaign_without_csv_cells_raises(self, tmp_path):
        manifest = {"cells": [{"artifacts": ["artifacts/0000/x.csv"]}]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="no cells"):
            find_trace_artifacts(tmp_path)

    def test_unrecognized_directory_raises(self, tmp_path):
        with pytest.raises(ValueError, match="neither"):
            find_trace_artifacts(tmp_path)
