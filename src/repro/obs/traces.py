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
from typing import Dict, Iterator, List, Tuple, Union

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


#: One converter per column of the schemas above.
_LATENCY_TYPES = (int, int, int, float, float, float, float, int)
_QUEUE_TYPES = (str, float, int, float, float, float, float)


def _typed_rows(path: Path, columns: Tuple[str, ...],
                types: Tuple[type, ...]) -> Iterator[list]:
    """Yield each data row of a CSV artifact converted by ``types``.

    Raises ``ValueError`` naming the file (and, for a data row, its
    line) when the header does not match ``columns`` or a row is short,
    long or holds a non-numeric cell, so a stale, foreign or truncated
    file fails loudly instead of mis-parsing.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != columns:
            raise ValueError(
                f"{path}: expected columns {','.join(columns)}, "
                f"got {','.join(header) if header else '<empty file>'}")
        for row in reader:
            if len(row) != len(columns):
                raise ValueError(
                    f"{path}:{reader.line_num}: expected {len(columns)} "
                    f"cells ({','.join(columns)}), got {len(row)}")
            try:
                values = [convert(cell)
                          for convert, cell in zip(types, row)]
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{reader.line_num}: {exc}") from None
            yield values


def read_latency_csv(path: Union[str, Path]) -> List[LatencyRecord]:
    """Parse a ``latency.csv`` artifact into typed records."""
    return [LatencyRecord(*row) for row in
            _typed_rows(Path(path), LATENCY_COLUMNS, _LATENCY_TYPES)]


def read_queues_csv(path: Union[str, Path]
                    ) -> Dict[str, List[QueueBucket]]:
    """Parse a ``queues.csv`` artifact into per-port bucket lists."""
    series: Dict[str, List[QueueBucket]] = {}
    for row in _typed_rows(Path(path), QUEUE_COLUMNS, _QUEUE_TYPES):
        bucket = QueueBucket(*row)
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
