"""Admission audit: which of Silo's constraints decided each request.

Section 4.2.3 admits a tenant only if (1) every port's queue bound stays
within its queue capacity and (2) some placement scope keeps the summed
queue capacities along all VM-to-VM paths within the delay guarantee.
The aggregate accept/reject counters cannot say *why* capacity ran out;
the audit records, per request, the binding constraint:

* ``CONSTRAINT_NONE`` -- admitted;
* ``CONSTRAINT_DELAY`` -- constraint 2: no scope (not even one server)
  satisfies the delay guarantee on this topology;
* ``CONSTRAINT_CAPACITY`` -- out of VM slots (no queueing theory needed);
* ``CONSTRAINT_QUEUE_BOUND`` -- constraint 1: slots existed within the
  allowed scope, but every arrangement pushed some port's queue bound
  past its queue capacity (for Oktopus, the analogous bandwidth check).

The classification is derived after the search fails, from checks that
are O(1) against the manager's cached state, so auditing adds nothing to
the admission hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, IO, Iterable, List, Optional, Union

__all__ = [
    "CONSTRAINT_NONE", "CONSTRAINT_DELAY", "CONSTRAINT_CAPACITY",
    "CONSTRAINT_QUEUE_BOUND", "AdmissionRecord", "AdmissionAudit",
]

CONSTRAINT_NONE = "none"
CONSTRAINT_DELAY = "delay"
CONSTRAINT_CAPACITY = "capacity"
CONSTRAINT_QUEUE_BOUND = "queue_bound"


@dataclass(frozen=True)
class AdmissionRecord:
    """One admission decision, annotated with its binding constraint."""

    seq: int
    tenant_id: int
    n_vms: int
    tenant_class: str
    admitted: bool
    constraint: str
    #: Scope of the committed assignment (admissions only).
    scope: Optional[str] = None
    #: Simulation time, when the caller supplied one (e.g. ClusterSim).
    time: Optional[float] = None


class AdmissionAudit:
    """Accumulates :class:`AdmissionRecord` entries for one manager."""

    def __init__(self) -> None:
        self.records: List[AdmissionRecord] = []

    def append(self, record: AdmissionRecord) -> None:
        """Record one admission decision."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def constraint_counts(self) -> Dict[str, int]:
        """Decisions per binding constraint (``"none"`` = admitted)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.constraint] = counts.get(record.constraint,
                                                   0) + 1
        return counts

    def rows(self) -> Iterable[Dict[str, Any]]:
        """Flat dict per record, for CSV/JSON export."""
        for r in self.records:
            yield {"seq": r.seq, "tenant_id": r.tenant_id,
                   "n_vms": r.n_vms, "tenant_class": r.tenant_class,
                   "admitted": r.admitted, "constraint": r.constraint,
                   "scope": r.scope, "time": r.time}

    def write_csv(self, target: Union[str, "IO[str]"]) -> None:
        """Write the audit as CSV to a path or open file."""
        if hasattr(target, "write"):
            self._write_csv(target)  # type: ignore[arg-type]
        else:
            with open(target, "w", encoding="utf-8") as handle:
                self._write_csv(handle)

    def _write_csv(self, out: "IO[str]") -> None:
        out.write("seq,tenant_id,n_vms,tenant_class,admitted,"
                  "constraint,scope,time\n")
        for r in self.records:
            out.write(f"{r.seq},{r.tenant_id},{r.n_vms},{r.tenant_class},"
                      f"{int(r.admitted)},{r.constraint},"
                      f"{r.scope if r.scope is not None else ''},"
                      f"{r.time if r.time is not None else ''}\n")

    def summary(self) -> str:
        """One-line human summary of the constraint breakdown."""
        counts = self.constraint_counts()
        admitted = counts.pop(CONSTRAINT_NONE, 0)
        parts = [f"admitted={admitted}"]
        parts.extend(f"{name}={counts[name]}" for name in sorted(counts))
        return " ".join(parts)
