"""Parallel, resumable execution of sweep specs.

The runner fans a :class:`~repro.campaign.spec.SweepSpec` out across
worker processes and produces, per campaign directory::

    spec.json        the spec that ran (written before any cell)
    cells/<id>.json  one checkpoint per finished cell (atomic rename)
    artifacts/<id>/  per-cell artifact files (obs sinks, CSVs)
    manifest.json    cell -> checkpoint/artifact map, in commit order
    merged.json      every cell's params + result, in commit order

Determinism contract: a cell's result depends only on its parameters
and seed -- the runner resets the process-global tenant-id counter
before each cell and workers are fresh ``spawn`` processes, so cells
cannot see each other's interpreter state.  The merge stage reads
checkpoints strictly in spec commit order.  Together these make the
``manifest.json``/``merged.json`` of an N-worker run byte-identical to
the serial (``workers=0``) run, for any N and any completion order.

Crash recovery: checkpoints are written with write-to-temp +
``os.replace``, so a killed run leaves only whole cells behind.
Re-running with ``resume=True`` re-executes exactly the cells whose
checkpoint is missing or stale (cell ids digest the scenario, params
and seed, so editing the spec invalidates old checkpoints) and then
merges as usual -- the resumed merged output is identical to an
uninterrupted run's.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.campaign.registry import get_scenario, import_scenario_modules
from repro.campaign.spec import Cell, SweepSpec
from repro.core.tenant import reset_tenant_ids

__all__ = ["CellRecord", "CampaignResult", "CellTimeout", "run_campaign"]

#: JSON formatting shared by every campaign file; fixed so byte identity
#: is a property of the data alone.
_JSON_KW = dict(sort_keys=True, indent=1)

#: Seconds between repeats of an expired cell alarm (see :func:`_alarm`):
#: short against any budget worth setting, long against a signal handler.
_ALARM_REPEAT_S = 0.05


class CellTimeout(RuntimeError):
    """A cell exceeded the campaign's per-cell wall-clock budget."""


@dataclass
class CellRecord:
    """One finished cell: its identity, result and artifact files.

    A cell that failed (timed out or raised) carries ``error`` instead
    of a meaningful ``result``; failed cells are never checkpointed, so
    a resumed run retries them.
    """

    cell: Cell
    result: Any
    artifacts: List[str] = field(default_factory=list)
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """Checkpoint/merge representation of this record."""
        payload = {
            "id": self.cell.cell_id,
            "index": self.cell.index,
            "scenario": self.cell.scenario,
            "params": dict(self.cell.params),
            "seed": self.cell.seed,
            "result": self.result,
            "artifacts": list(self.artifacts),
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


@dataclass
class CampaignResult:
    """Everything a finished (or interrupted) campaign produced."""

    spec: SweepSpec
    records: List[CellRecord]
    out: Optional[Path] = None
    #: True when ``max_cells`` stopped the run before every cell ran
    #: (no manifest/merged files are written for a partial run).
    partial: bool = False
    #: Cells executed by *this* invocation (resume skips checkpointed
    #: ones; the difference is what a progress report shows).
    executed: int = 0
    #: Records of cells that failed (timeout or scenario error).  A
    #: campaign with failures is reported ``partial`` and writes no
    #: merge outputs; failed cells have no checkpoint, so resuming
    #: retries exactly them.
    failed: List[CellRecord] = field(default_factory=list)

    def results(self) -> List[Any]:
        """Cell results in commit order."""
        return [record.result for record in self.records]

    def get(self, seed: Optional[int] = None, **axes: Any) -> Any:
        """The result of the unique cell matching ``axes`` (and ``seed``).

        ``axes`` match against the cell's parameters (fixed parameters
        included); raises if no cell or more than one matches.
        """
        matches = [r for r in self.records
                   if all(dict(r.cell.params).get(k) == v
                          for k, v in axes.items())
                   and (seed is None or r.cell.seed == seed)]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} cells match {axes} "
                           f"seed={seed}")
        return matches[0].result


# ---------------------------------------------------------------------------
# Cell execution (shared by the serial path and pool workers)
# ---------------------------------------------------------------------------

def _wants_artifact_dir(fn: Callable[..., Any]) -> bool:
    """Whether the scenario accepts an ``artifact_dir`` keyword."""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins/C callables: be permissive
        return False
    if "artifact_dir" in params:
        return True
    return any(p.kind is inspect.Parameter.VAR_KEYWORD
               for p in params.values())


def _atomic_write_json(path: Path, payload: Any) -> None:
    """Write strict JSON (a ``NaN`` or infinity is a ``ValueError``) so
    that a kill mid-write can never leave a torn file."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, allow_nan=False, **_JSON_KW) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)


@contextlib.contextmanager
def _alarm(timeout: Optional[float]):
    """Raise :class:`CellTimeout` inside the block after ``timeout``
    wall-clock seconds (SIGALRM; a no-op when ``timeout`` is None).

    Works in the serial path and inside pool workers alike: both run
    cells on their process's main thread, the only place Python
    delivers SIGALRM.

    The timer repeats every :data:`_ALARM_REPEAT_S` after the first
    expiry: an exception raised while the interpreter is inside a
    ``__del__``, weakref or gc callback is printed as "Exception
    ignored in ..." and dropped, and a one-shot timer would then leave
    the cell running with no budget at all.  A block that finishes
    before a repeat lands is still over budget: its measured wall time
    decides, so the verdict does not hang on where a signal fell.
    """
    if timeout is None:
        yield
        return

    armed = True
    over = f"cell exceeded {timeout:g}s wall-clock budget"
    start = time.monotonic()

    def _on_alarm(signum, frame):
        if armed:
            raise CellTimeout(over)

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout, _ALARM_REPEAT_S)
    try:
        yield
    finally:
        # Cleared first: ``signal.signal`` runs pending handlers before
        # it swaps them, and a repeat that raised out of this teardown
        # would leave the timer armed for the rest of the process.
        armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    if time.monotonic() - start > timeout:
        raise CellTimeout(over)


def _execute_cell(cell: Cell, out: Optional[Path],
                  timeout: Optional[float] = None) -> CellRecord:
    """Run one cell: reset globals, call the scenario, checkpoint.

    A cell that outruns ``timeout`` comes back as a *failed* record
    (``error`` set, no checkpoint written) instead of hanging the
    campaign; any other scenario exception still propagates.
    """
    reset_tenant_ids()
    fn = get_scenario(cell.scenario)
    kwargs = cell.kwargs
    kwargs["seed"] = cell.seed
    artifacts: List[str] = []
    artifact_dir: Optional[Path] = None
    if out is not None and _wants_artifact_dir(fn):
        artifact_dir = out / "artifacts" / cell.cell_id
        artifact_dir.mkdir(parents=True, exist_ok=True)
        kwargs["artifact_dir"] = str(artifact_dir)
    try:
        with _alarm(timeout):
            result = fn(**kwargs)
    except CellTimeout as exc:
        return CellRecord(cell=cell, result=None, artifacts=[],
                          error=f"timeout: {exc}")
    except Exception as exc:
        raise RuntimeError(f"campaign cell failed: {cell.describe()}"
                           ) from exc
    if artifact_dir is not None:
        artifacts = sorted(
            str(p.relative_to(out).as_posix())
            for p in artifact_dir.rglob("*") if p.is_file())
    record = CellRecord(cell=cell, result=result, artifacts=artifacts)
    if out is not None:
        cells_dir = out / "cells"
        cells_dir.mkdir(parents=True, exist_ok=True)
        try:
            _atomic_write_json(cells_dir / f"{cell.cell_id}.json",
                               record.to_dict())
        except (TypeError, ValueError) as exc:
            raise RuntimeError(f"campaign cell result is not JSON: "
                               f"{cell.describe()}") from exc
    return record


def _load_checkpoint(cell: Cell, out: Path) -> Optional[CellRecord]:
    """A valid checkpoint for exactly this cell, or None."""
    path = out / "cells" / f"{cell.cell_id}.json"
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if data.get("id") != cell.cell_id:
        return None
    return CellRecord(cell=cell, result=data.get("result"),
                      artifacts=list(data.get("artifacts", [])))


# -- worker-process entry points (module-level so spawn can pickle them) ----

def _worker_init(modules: Sequence[str],
                 module_paths: Sequence[str]) -> None:
    """Pool initializer: make the spec's scenarios importable here."""
    import_scenario_modules(modules, module_paths)


def _worker_run(task: Tuple[Cell, Optional[str], Optional[float]]
                ) -> Tuple[int, Any, List[str], Optional[str]]:
    """Pool task: run one cell, checkpoint it, ship the result back."""
    cell, out, timeout = task
    record = _execute_cell(cell, Path(out) if out else None,
                           timeout=timeout)
    return cell.index, record.result, record.artifacts, record.error


# ---------------------------------------------------------------------------
# The campaign driver
# ---------------------------------------------------------------------------

def _write_merge_outputs(spec: SweepSpec, out: Path,
                         records: Sequence[CellRecord]) -> None:
    """Write manifest.json + merged.json from commit-ordered records."""
    manifest = {
        "name": spec.name,
        "scenario": spec.scenario,
        "spec": spec.to_dict(),
        "cells": [
            {
                "id": r.cell.cell_id,
                "index": r.cell.index,
                "params": dict(r.cell.params),
                "seed": r.cell.seed,
                "checkpoint": f"cells/{r.cell.cell_id}.json",
                "artifacts": list(r.artifacts),
            }
            for r in records
        ],
    }
    _atomic_write_json(out / "manifest.json", manifest)
    merged = {
        "name": spec.name,
        "scenario": spec.scenario,
        "cells": [r.to_dict() for r in records],
    }
    _atomic_write_json(out / "merged.json", merged)


def run_campaign(spec: SweepSpec,
                 out: Optional[os.PathLike] = None,
                 workers: int = 0,
                 resume: bool = False,
                 max_cells: Optional[int] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 cell_timeout: Optional[float] = None
                 ) -> CampaignResult:
    """Run every cell of ``spec`` and merge the results.

    ``workers=0`` runs serially in-process; ``workers >= 1`` fans cells
    out over that many fresh ``spawn`` worker processes.  Either way a
    cell's result is JSON: plain dicts, lists, strings, booleans and
    *finite* numbers (a ``NaN`` or infinity fails the cell's checkpoint
    write, naming the cell).  ``out`` enables the on-disk
    layout (checkpoints, artifacts, manifest, merged); without it the
    run is purely in-memory.  ``resume`` skips cells with a valid
    checkpoint.  ``max_cells`` stops after that many *newly executed*
    cells -- the hook the tests and tutorial use to simulate a crash
    mid-campaign -- leaving a partial, resumable directory behind.

    ``cell_timeout`` bounds each cell's wall-clock seconds: a cell that
    outruns it is recorded as *failed* (``result.failed``) instead of
    hanging the campaign -- the run completes, is marked partial, and
    writes no merge outputs; the failed cells have no checkpoint so
    ``resume`` retries exactly them.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if cell_timeout is not None and cell_timeout <= 0:
        raise ValueError("cell_timeout must be positive")
    if max_cells is not None and out is None:
        raise ValueError("max_cells (simulated crash) needs an out dir "
                         "to leave checkpoints in")
    import_scenario_modules(spec.modules, spec.module_paths)
    out_path: Optional[Path] = None
    if out is not None:
        out_path = Path(out)
        out_path.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(out_path / "spec.json", spec.to_dict())

    cells = list(spec.cells())
    done: Dict[int, CellRecord] = {}
    if resume and out_path is not None:
        for cell in cells:
            record = _load_checkpoint(cell, out_path)
            if record is not None:
                done[cell.index] = record
    todo = [cell for cell in cells if cell.index not in done]
    if max_cells is not None:
        todo = todo[:max_cells]
    if progress is not None and done:
        progress(f"resume: {len(done)}/{len(cells)} cells already "
                 f"checkpointed")

    executed = 0
    failed: Dict[int, CellRecord] = {}

    def _commit(record: CellRecord) -> None:
        nonlocal executed
        executed += 1
        if record.error is not None:
            failed[record.cell.index] = record
        else:
            done[record.cell.index] = record
        if progress is not None:
            state = "FAILED" if record.error is not None else "done"
            progress(f"cell {executed}/{len(todo)} {state}: "
                     f"{record.cell.describe()}")

    if workers == 0 or not todo:
        for cell in todo:
            _commit(_execute_cell(cell, out_path, timeout=cell_timeout))
    else:
        context = multiprocessing.get_context("spawn")
        tasks = [(cell, str(out_path) if out_path else None,
                  cell_timeout)
                 for cell in todo]
        by_index = {cell.index: cell for cell in todo}
        with context.Pool(processes=min(workers, len(todo)),
                          initializer=_worker_init,
                          initargs=(tuple(spec.modules),
                                    tuple(spec.module_paths))) as pool:
            for index, result, artifacts, error in pool.imap_unordered(
                    _worker_run, tasks):
                _commit(CellRecord(cell=by_index[index], result=result,
                                   artifacts=artifacts, error=error))

    partial = len(done) < len(cells)
    records = [done[cell.index] for cell in cells if cell.index in done]
    failed_records = [failed[cell.index] for cell in cells
                      if cell.index in failed]
    if out_path is not None and not partial:
        _write_merge_outputs(spec, out_path, records)
    return CampaignResult(spec=spec, records=records, out=out_path,
                          partial=partial, executed=executed,
                          failed=failed_records)
