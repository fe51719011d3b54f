"""Long-running admission-control service (see DESIGN.md).

Wraps the placement layer's admission math and the cluster controller's
fault-recovery machine in an always-on, crash-consistent service:

* :mod:`repro.service.queue` -- bounded ingress queue with priorities,
  deadlines, backpressure and overload shedding;
* :mod:`repro.service.wal` -- write-ahead intent log + atomic snapshot
  store (the crash-consistency substrate);
* :mod:`repro.service.snapshot` -- bit-exact (de)serialization of
  placement books and controller state;
* :mod:`repro.service.cluster` -- the one set of placement books
  (one placement manager + one cluster controller) and the pod cordon;
* :mod:`repro.service.server` -- the service loop
  (:class:`AdmissionService`);
* :mod:`repro.service.loadgen` -- seeded closed-loop load generator.

``python -m repro serve`` is the CLI entry point; ``docs/SERVICE.md``
walks through a kill -9 / restart / verify-identity session.
"""

from repro.service.queue import BoundedIngressQueue, IngressItem, Priority
from repro.service.wal import (SnapshotError, SnapshotStore, WalError,
                               WriteAheadLog)
from repro.service.snapshot import state_digest
from repro.service.cluster import ClusterBooks, ShardedCluster
from repro.service.server import AdmissionService, ServiceMetrics
from repro.service.loadgen import ClosedLoopLoadGen

__all__ = [
    "AdmissionService", "BoundedIngressQueue", "ClosedLoopLoadGen",
    "ClusterBooks", "IngressItem", "Priority", "ServiceMetrics",
    "ShardedCluster", "SnapshotError", "SnapshotStore", "WalError",
    "WriteAheadLog", "state_digest",
]
