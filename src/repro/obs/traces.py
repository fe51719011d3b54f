"""Typed readers for the CLI's committed trace artifacts.

``python -m repro trace --out DIR`` (and every campaign cell built on
:func:`repro.campaign.scenarios.trace_cell`) dumps two figure-ready CSV
schemas:

* ``latency.csv`` -- one row per completed application message
  (``tenant_id,src_vm,dst_vm,size,start,finish,latency,rto_events``);
* ``queues.csv`` -- the bucketed queue-depth time series of every active
  switch port (``port,time,count,mean,min,max,last``), where ``port`` is
  the simulator's ``<kind>[<index>]`` name (e.g. ``tor-down[3]``) and the
  depth values are bytes.

These readers are the inverse of those writers: they parse the files
back into typed records so offline consumers (the what-if surrogate's
calibration fit, plotting scripts, tests) share one definition of the
schema instead of re-deriving column positions.  They also resolve a
*campaign* directory -- one holding a ``manifest.json`` -- to the
artifact files of its cells, so a committed trace campaign can be used
as a calibration corpus directly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple, Union

__all__ = [
    "LatencyRecord", "QueueBucket", "TraceArtifacts",
    "read_latency_csv", "read_queues_csv", "port_kind_of",
    "find_trace_artifacts", "LATENCY_COLUMNS", "QUEUE_COLUMNS",
]


@dataclass(frozen=True)
class LatencyRecord:
    """One completed message from a ``latency.csv`` artifact."""

    tenant_id: int
    src_vm: int
    dst_vm: int
    size: float
    start: float
    finish: float
    latency: float
    rto_events: int


@dataclass(frozen=True)
class QueueBucket:
    """One port's queue-depth aggregate over one time bucket (bytes)."""

    port: str
    time: float
    count: int
    mean: float
    vmin: float
    vmax: float
    last: float


@dataclass(frozen=True)
class TraceArtifacts:
    """The artifact files of one traced run (or one campaign cell)."""

    latency_path: Path
    queues_path: Path

    def latencies(self) -> List[LatencyRecord]:
        """Parsed ``latency.csv`` rows."""
        return read_latency_csv(self.latency_path)

    def queues(self) -> Dict[str, List[QueueBucket]]:
        """Parsed ``queues.csv`` series, keyed by port name."""
        return read_queues_csv(self.queues_path)


#: The artifact schemas, shared with the writers in
#: :mod:`repro.campaign.scenarios`.
LATENCY_COLUMNS = ("tenant_id", "src_vm", "dst_vm", "size", "start",
                    "finish", "latency", "rto_events")
QUEUE_COLUMNS = ("port", "time", "count", "mean", "min", "max", "last")


def _check_header(path: Path, header, expected: Tuple[str, ...]) -> None:
    if header is None or tuple(header) != expected:
        raise ValueError(
            f"{path}: expected columns {','.join(expected)}, "
            f"got {','.join(header) if header else '<empty file>'}")


def read_latency_csv(path: Union[str, Path]) -> List[LatencyRecord]:
    """Parse a ``latency.csv`` artifact into typed records.

    Raises ``ValueError`` when the header does not match the schema, so
    a stale or foreign file fails loudly instead of mis-parsing.
    """
    path = Path(path)
    records: List[LatencyRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        _check_header(path, next(reader, None), LATENCY_COLUMNS)
        for row in reader:
            records.append(LatencyRecord(
                tenant_id=int(row[0]), src_vm=int(row[1]),
                dst_vm=int(row[2]), size=float(row[3]),
                start=float(row[4]), finish=float(row[5]),
                latency=float(row[6]), rto_events=int(row[7])))
    return records


def read_queues_csv(path: Union[str, Path]
                    ) -> Dict[str, List[QueueBucket]]:
    """Parse a ``queues.csv`` artifact into per-port bucket lists."""
    path = Path(path)
    series: Dict[str, List[QueueBucket]] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        _check_header(path, next(reader, None), QUEUE_COLUMNS)
        for row in reader:
            bucket = QueueBucket(
                port=row[0], time=float(row[1]), count=int(row[2]),
                mean=float(row[3]), vmin=float(row[4]),
                vmax=float(row[5]), last=float(row[6]))
            series.setdefault(bucket.port, []).append(bucket)
    return series


def port_kind_of(port_name: str) -> str:
    """The port-kind part of a simulator port name.

    ``tor-down[3]`` -> ``tor-down``; names without an index bracket
    (e.g. ``vswitch``) are returned unchanged.
    """
    return port_name.split("[", 1)[0]


def find_trace_artifacts(path: Union[str, Path]) -> List[TraceArtifacts]:
    """Resolve a directory to the trace artifact sets it holds.

    Accepts either a plain artifact directory (one holding
    ``latency.csv`` + ``queues.csv`` directly) or a campaign directory
    (one holding ``manifest.json``), in which case every cell that
    produced both files contributes one :class:`TraceArtifacts`.

    Raises ``ValueError`` when the directory matches neither layout --
    the caller is pointing the calibration at the wrong place.
    """
    root = Path(path)
    direct = TraceArtifacts(latency_path=root / "latency.csv",
                            queues_path=root / "queues.csv")
    if direct.latency_path.is_file() and direct.queues_path.is_file():
        return [direct]
    manifest_path = root / "manifest.json"
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        found: List[TraceArtifacts] = []
        for cell in manifest.get("cells", []):
            files = {p.rsplit("/", 1)[-1]: root / p
                    for p in cell.get("artifacts", [])}
            if "latency.csv" in files and "queues.csv" in files:
                found.append(TraceArtifacts(
                    latency_path=files["latency.csv"],
                    queues_path=files["queues.csv"]))
        if found:
            return found
        raise ValueError(
            f"campaign {root} has no cells with latency.csv + queues.csv "
            f"artifacts (was it run with --out?)")
    raise ValueError(
        f"{root} is neither a trace artifact directory (latency.csv + "
        f"queues.csv) nor a campaign directory (manifest.json)")
