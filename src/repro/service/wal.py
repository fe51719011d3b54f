"""Write-ahead intent log and snapshot store for the admission service.

Durability model: every ingress item is logged as an ``enq`` intent
*before* it is enqueued, and closed with a ``done`` record carrying the
outcome (and, for admissions, the committed assignment) *after* the
state change.  Records are JSON lines, flushed after every write, so a
``kill -9`` can lose at most a partially written trailing line -- the
reader drops a damaged *last* line silently and treats everything
before it as the durable prefix.  A damaged line with valid records
after it is not a torn write: it raises :class:`WalError` instead of
costing the records behind it.

Recovery = load the latest snapshot, then redo the ``done`` records
the snapshot has not folded in yet -- **in log order**, which is the
order the original process applied their effects (the queue reorders
admissions by deadline, so completion order is not submission order)
-- then re-enqueue any ``enq`` without a matching ``done``: those were
in the queue or in flight when the process died.  Admissions are
re-committed via ``adopt`` with their logged assignment (no re-running
of admission math), so the rebuilt books are bit-identical.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["WriteAheadLog", "WalError", "SnapshotStore", "SnapshotError",
           "replay_records", "recovery_plan"]


class WalError(ValueError):
    """The write-ahead log is damaged somewhere other than its tail."""


class WriteAheadLog:
    """Append-only JSONL intent log, one flush per record.

    ``append`` assigns monotonically increasing sequence numbers to
    ``enq`` records; ``done`` records reference the sequence they
    close.  The log is opened in append mode so a restarted service
    keeps extending the same file past the replayed prefix.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._next_seq = 0
        durable_bytes = 0
        for raw, record in _durable_lines(self.path):
            durable_bytes += len(raw)
            if record.get("t") == "enq":
                self._next_seq = max(self._next_seq,
                                     int(record["seq"]) + 1)
        if (self.path.exists()
                and self.path.stat().st_size > durable_bytes):
            # Drop a torn trailing line (a kill -9 mid-write) before
            # appending: a damaged line with records after it is an
            # error to every reader, this one included.
            with open(self.path, "r+", encoding="utf-8") as fh:
                fh.truncate(durable_bytes)
        self._fh = open(self.path, "a", encoding="utf-8")

    def log_enq(self, kind: str, time: float, payload: Dict[str, Any],
                deadline: Optional[float] = None,
                source: Optional[int] = None) -> int:
        """Record intent to process one ingress item; returns its seq."""
        seq = self._next_seq
        self._next_seq += 1
        record = {"t": "enq", "seq": seq, "kind": kind, "time": time,
                  "payload": payload}
        if deadline is not None:
            record["deadline"] = deadline
        if source is not None:
            record["source"] = source
        self._write(record)
        return seq

    def log_done(self, seq: int, time: float, outcome: str,
                 **extra: Any) -> None:
        """Close intent ``seq`` with its outcome (after the state
        change it describes is in memory -- the redo payload, e.g. the
        committed assignment, rides in ``extra``)."""
        record = {"t": "done", "seq": seq, "time": time,
                  "outcome": outcome}
        record.update(extra)
        self._write(record)

    def _write(self, record: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Close the log file handle (recovery needs no clean close)."""
        self._fh.close()


#: Keys recovery reads from every record of each type.
_RECORD_KEYS = {"enq": ("seq", "time", "kind", "payload"),
                "done": ("seq", "time", "outcome")}


def _parse_line(raw: bytes) -> Dict[str, Any]:
    """One complete WAL line as a record; :class:`ValueError` saying
    what is wrong with it otherwise."""
    if not raw.endswith(b"\n"):
        raise ValueError("no trailing newline")
    record = json.loads(raw.decode("utf-8"))
    if not isinstance(record, dict):
        raise ValueError(f"not a JSON object "
                         f"(got {type(record).__name__})")
    kind = record.get("t")
    if kind not in _RECORD_KEYS:
        raise ValueError(f"record type 't' is {kind!r}")
    for key in _RECORD_KEYS[kind]:
        if key not in record:
            raise ValueError(f"{kind!r} record has no {key!r} key")
    return record


def _durable_lines(path: Path) -> Iterator[Tuple[bytes, Dict[str, Any]]]:
    """(raw line, parsed record) pairs of the durable prefix.

    Read in binary so the summed raw lengths are byte offsets -- the
    tear-truncation in :class:`WriteAheadLog` needs them for
    ``truncate``.  A crash can tear only the line being written, so a
    damaged line ends the prefix silently only when no valid record
    follows it; otherwise :class:`WalError` names the line.
    """
    path = Path(path)
    if not path.exists():
        return
    with open(path, "rb") as fh:
        lines = enumerate(fh, 1)
        for number, raw in lines:
            try:
                record = _parse_line(raw)
            except ValueError as exc:
                defect = exc
                break
            yield raw, record
        else:
            return
        for _number, later in lines:
            try:
                _parse_line(later)
            except ValueError:
                continue
            raise WalError(
                f"write-ahead log {path} line {number} is damaged "
                f"({defect}) and valid records follow it; not "
                f"truncating them away")


def replay_records(path: Path) -> Iterator[Dict[str, Any]]:
    """Yield the durable prefix of a WAL (see :func:`_durable_lines`)."""
    for _raw, record in _durable_lines(path):
        yield record


class SnapshotError(ValueError):
    """The snapshot file exists but is not a service snapshot."""


class SnapshotStore:
    """Atomic full-state snapshots, one file, replaced in place.

    Snapshots are written to a temp file in the same directory and
    ``os.replace``d over the target, so a crash mid-snapshot leaves the
    previous snapshot intact.  Each snapshot records ``last_seq`` -- the
    newest WAL sequence already folded into it -- so recovery knows
    where redo starts.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def save(self, state: Dict[str, Any]) -> None:
        """Write ``state`` atomically (temp file + ``os.replace``)."""
        # dumps, not dump(fh): same bytes, but the one-shot encoder runs
        # in C while the streaming one is a Python generator per value.
        payload = json.dumps(state, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=str(self.path.parent),
                                   prefix=self.path.name + ".")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, str(self.path))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def load(self) -> Optional[Dict[str, Any]]:
        """The current snapshot, or ``None`` if none was taken yet;
        :class:`SnapshotError` if the file is not a JSON object."""
        if not self.path.exists():
            return None
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                state = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise SnapshotError(
                f"snapshot {self.path} is not JSON: {exc}") from exc
        if not isinstance(state, dict):
            raise SnapshotError(
                f"snapshot {self.path} is not a JSON object "
                f"(got {type(state).__name__})")
        return state


def recovery_plan(path: Path, folded_done: int,
                  ) -> Tuple[List[Dict[str, Any]],
                             List[Dict[str, Any]], int]:
    """Split a WAL into (redo, reenqueue, total_done) vs a snapshot.

    ``folded_done`` is the snapshot's count of ``done`` records already
    folded into it (``done`` log positions are stable across restarts:
    the log is append-only and read up to its durable prefix).  ``redo``
    is every closed intent past that point, **in done-log order** --
    the order the effects were originally applied, which matters
    because the ingress queue reorders admissions by deadline.
    ``reenqueue`` is every open intent (``enq`` without ``done``), in
    seq order -- those were queued or in flight at the crash and must
    be processed again.  ``total_done`` is the durable done count, the
    restarted service's baseline for its next snapshot.
    """
    enq: Dict[int, Dict[str, Any]] = {}
    done_records: List[Dict[str, Any]] = []
    for record in replay_records(path):
        if record.get("t") == "enq":
            enq[int(record["seq"])] = record
        elif record.get("t") == "done":
            done_records.append(record)
    redo = []
    for position, done in enumerate(done_records):
        seq = int(done["seq"])
        if position >= folded_done and seq in enq:
            redo.append(dict(enq[seq], done=done))
    closed = {int(done["seq"]) for done in done_records}
    reenqueue = [enq[seq] for seq in sorted(enq) if seq not in closed]
    return redo, reenqueue, len(done_records)
