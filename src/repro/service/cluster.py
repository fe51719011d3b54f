"""The admission service's placement books: one manager, one controller.

:class:`ClusterBooks` is the paper's logically centralised placement
manager (one :class:`SiloPlacementManager` over the full topology, so
the service runs the same first-fit-smallest-subtree search as every
other entry point) plus the self-healing :class:`ClusterController`
that re-validates guarantees after faults.  What it adds on top:

* a *known tenant* is one that is placed **or** still tracked by the
  controller (evicted by a fault, waiting for a repair): its id cannot
  be admitted a second time and its departure closes the track;
* **pod cordon** (graceful degradation): once half a pod's servers are
  down the whole pod is fenced out of placement.  The cordon is
  re-asserted after every event because a repair uncordons the
  repaired servers individually; when it lifts, servers that are still
  down stay fenced;
* one JSON dump of everything above, with a SHA-256 digest.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Set

from repro.core.tenant import Placement, TenantRequest
from repro.faults.model import FaultEvent
from repro.placement.controller import ClusterController
from repro.placement.silo import SiloPlacementManager
from repro.topology.tree import TreeTopology

from repro.service import snapshot as snapshot_mod
from repro.service.wal import SnapshotError

__all__ = ["ClusterBooks", "POD_DOWN_THRESHOLD"]

#: Fraction of a pod's servers that must be down before the whole pod
#: is cordoned out of placement.
POD_DOWN_THRESHOLD = 0.5


class ClusterBooks:
    """One set of placement books for the whole cluster.

    Args:
        topology: the full datacenter tree.
    """

    def __init__(self, topology: TreeTopology) -> None:
        self.topology = topology
        self.pod_servers = (topology.racks_per_pod
                            * topology.servers_per_rack)
        self.manager = SiloPlacementManager(topology)
        self.controller = ClusterController(self.manager,
                                            retry_evicted=True)
        self.cordoned_pods: Set[int] = set()

    # -- admission -----------------------------------------------------------

    def _known(self, tenant_id: int) -> bool:
        return (tenant_id in self.manager.placements
                or tenant_id in self.controller._tracks)

    def _require_unknown(self, tenant_id: int) -> None:
        if self._known(tenant_id):
            raise ValueError(f"tenant {tenant_id} is already known")

    def place(self, request: TenantRequest,
              now: Optional[float] = None) -> Optional[Placement]:
        """Admit one tenant, or ``None`` when no scope can hold it."""
        self._require_unknown(request.tenant_id)
        return self.manager.place(request, now=now)

    def place_batch(self, requests: Sequence[TenantRequest],
                    now: Optional[float] = None
                    ) -> List[Optional[Placement]]:
        """Admit a batch (see :meth:`PlacementManager.place_batch`:
        same decisions as sequential :meth:`place` calls, contribution
        math shared per request signature)."""
        for request in requests:
            self._require_unknown(request.tenant_id)
        return self.manager.place_batch(requests, now=now)

    def adopt(self, request: TenantRequest,
              vm_servers: Sequence[int]) -> Placement:
        """Crash-recovery redo: re-commit a logged admission verbatim
        (``vm_servers`` comes from the write-ahead log's ``done``
        record)."""
        self._require_unknown(request.tenant_id)
        return self.manager.adopt(request, dict(Counter(vm_servers)))

    def depart(self, tenant_id: int, now: float = 0.0) -> None:
        """A tenant leaves: release its books and close its track."""
        if not self._known(tenant_id):
            raise KeyError(f"tenant {tenant_id} is not known")
        if tenant_id in self.manager.placements:
            self.manager.remove(tenant_id)
        self.controller.notify_departed(tenant_id, now)

    @property
    def placements(self) -> Dict[int, Placement]:
        """All live placements."""
        return self.manager.placements

    # -- faults --------------------------------------------------------------

    def apply_fault(self, event: FaultEvent,
                    now: Optional[float] = None) -> Dict[int, str]:
        """Fold one fault/repair event in; returns the controller's
        ``{tenant_id: outcome}`` and re-asserts the pod cordons."""
        outcomes = self.controller.apply(event, now=now)
        self._refresh_pod_cordons()
        return outcomes

    def _refresh_pod_cordons(self) -> None:
        down = self.controller.health.down_servers
        down_per_pod = Counter(server // self.pod_servers
                               for server in down)
        for pod in sorted(self.cordoned_pods.union(down_per_pod)):
            servers = range(pod * self.pod_servers,
                            (pod + 1) * self.pod_servers)
            if down_per_pod[pod] / self.pod_servers >= POD_DOWN_THRESHOLD:
                self.cordoned_pods.add(pod)
                for server in servers:
                    self.manager.cordon_server(server)  # idempotent
            elif pod in self.cordoned_pods:
                self.cordoned_pods.discard(pod)
                for server in servers:
                    if server not in down:
                        self.manager.uncordon_server(server)

    # -- persistence ---------------------------------------------------------

    def dump_state(self) -> Dict:
        """The whole cluster's books as one JSON-serializable dict."""
        return {
            "manager": snapshot_mod.dump_manager(self.manager),
            "controller": snapshot_mod.dump_controller(self.controller),
            "cordoned_pods": sorted(self.cordoned_pods),
        }

    def restore_state(self, state: Dict) -> None:
        """Load a :meth:`dump_state` snapshot (must be freshly built);
        :class:`SnapshotError` if ``state`` is not one."""
        if isinstance(state, dict) and ("shards" in state
                                        or "calc" in state):
            raise SnapshotError(
                "cluster state was written by the sharded layout "
                "(per-pod shards + aggregator), which this version "
                "does not read")
        snapshot_mod.require_keys(
            state, ("manager", "controller", "cordoned_pods"),
            "cluster state")
        snapshot_mod.restore_manager(self.manager, state["manager"])
        snapshot_mod.restore_controller(self.controller,
                                        state["controller"])
        self.cordoned_pods = set(int(pod)
                                 for pod in state["cordoned_pods"])

    def state_digest(self, state: Optional[Dict] = None) -> str:
        """SHA-256 certificate over the whole cluster's books
        (``state``: a :meth:`dump_state` the caller already holds)."""
        if state is None:
            state = self.dump_state()
        return snapshot_mod.state_digest(state)


#: The name ``perf/layers.py`` patches its four service seams under;
#: ROADMAP item 11 (the ``benchmark`` re-baseline) removes it.
ShardedCluster = ClusterBooks
