"""Per-pod sharded cluster state with an aggregator fallback.

The admission service shards the cluster's placement books by pod: each
shard is a :class:`SiloPlacementManager` over a **single-pod** topology
(structurally identical to one pod of the full tree), with its own
:class:`ClusterController`.  Admission tries shards first -- a single-pod
manager's decisions are bit-identical to the full manager restricted to
pod scope, because every intra-pod port capacity and queue bound depends
only on intra-pod structure -- and falls back to a full-topology
*aggregator* manager for tenants that need cluster scope (or that no
single pod can hold).

The aggregator's manager (``calc``) mirrors **all** tenants so its
cluster-level admission math always sees the true load:

* shard-owned tenants are mirrored into ``calc`` as real placements via
  :meth:`PlacementManager.adopt` (same pure contribution function, so
  the mirrored registry entries are bit-identical);
* aggregator-owned (cross-pod) tenants are mirrored into each touched
  shard as a slots-only placeholder (best-effort request, no guarantee)
  plus per-port capacity reservations for their intra-pod contributions,
  so shard admission keeps respecting cross-pod tenants' reservations.

Mirroring rides the managers' ``_commit``/``remove`` paths (so every
placement route -- admission, crash-recovery redo, controller
re-placement -- propagates automatically) and is kept from recursing by
the ownership map: a tenant is owned by exactly one pod or by the
aggregator (:data:`AGG`), and each propagation hook acts only on
tenants its side owns.

Fault events fan out the same way: the aggregator controller applies
the global event first on a fault (dropping its owned tenants'
placeholders before shard controllers run) and last on a repair, while
each shard controller gets the event translated into its local
coordinates.  A shard whose pod has lost too many servers is cordoned
wholesale (graceful degradation); the cordon is re-asserted after every
event because repairs uncordon individual servers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.tenant import Placement, TenantClass, TenantRequest
from repro.faults.model import ACTION_UP, FaultEvent, FaultTarget
from repro.placement.controller import ClusterController, RecoveryReport
from repro.placement.silo import SiloPlacementManager
from repro.topology.tree import TreeTopology

from repro.service import snapshot as snapshot_mod

__all__ = ["AGG", "ShardedCluster"]

#: Owner sentinel for tenants placed by the cluster-scope aggregator.
AGG = -1


class _ShardManager(SiloPlacementManager):
    """One pod's books; propagates commits/removals to the aggregator."""

    def __init__(self, topology: TreeTopology, pod: int,
                 cluster: "ShardedCluster", **kwargs) -> None:
        super().__init__(topology, **kwargs)
        self._pod = pod
        self._cluster = cluster

    def _commit(self, request, assignment):
        placement = super()._commit(request, assignment)
        self._cluster._on_shard_commit(self._pod, request, placement)
        return placement

    def remove(self, tenant_id: int) -> None:
        super().remove(tenant_id)
        self._cluster._on_shard_remove(self._pod, tenant_id)

    # Cordons mirror to the aggregator books immediately (not at the
    # end of the fault fan-out): a shard controller that uncordons a
    # repaired server and re-places an evicted tenant onto it in the
    # same event needs the calc mirror to accept the adopt.  Both
    # cordon calls are idempotent, so the aggregator controller's own
    # pass over the same event is a no-op.

    def cordon_server(self, server: int) -> int:
        withheld = super().cordon_server(server)
        self._cluster.calc.cordon_server(
            self._cluster._to_global(self._pod, server))
        return withheld

    def uncordon_server(self, server: int) -> int:
        freed = super().uncordon_server(server)
        self._cluster.calc.uncordon_server(
            self._cluster._to_global(self._pod, server))
        return freed


class _CalcManager(SiloPlacementManager):
    """The full-topology aggregator books; propagates to the shards."""

    def __init__(self, topology: TreeTopology,
                 cluster: "ShardedCluster", **kwargs) -> None:
        super().__init__(topology, **kwargs)
        self._cluster = cluster

    def _commit(self, request, assignment):
        placement = super()._commit(request, assignment)
        self._cluster._on_calc_commit(request, placement)
        return placement

    def remove(self, tenant_id: int) -> None:
        super().remove(tenant_id)
        self._cluster._on_calc_remove(tenant_id)


class ShardedCluster:
    """Sharded admission state: per-pod managers + aggregator fallback.

    Args:
        topology: the full datacenter tree.
        shard_down_threshold: fraction of a pod's servers that must be
            down before the whole shard is cordoned out of placement.
        retry_evicted: passed to every controller (see
            :class:`ClusterController`).
    """

    def __init__(self, topology: TreeTopology,
                 shard_down_threshold: float = 0.5,
                 retry_evicted: bool = True) -> None:
        self.topology = topology
        self.n_pods = topology.n_pods
        self.pod_servers = (topology.racks_per_pod
                            * topology.servers_per_rack)
        self.shard_down_threshold = shard_down_threshold
        #: Single-pod twin of one pod of the full tree (shared by all
        #: shards; manager state is per-manager).
        self.shard_topology = TreeTopology(
            n_pods=1,
            racks_per_pod=topology.racks_per_pod,
            servers_per_rack=topology.servers_per_rack,
            slots_per_server=topology.slots_per_server,
            link_rate=topology.link_rate,
            oversubscription=topology.oversubscription,
            buffer_bytes=topology.buffer_bytes)
        self.shards: List[_ShardManager] = [
            _ShardManager(self.shard_topology, pod, self)
            for pod in range(self.n_pods)]
        self.calc = _CalcManager(topology, self)
        #: tenant id -> owning pod, or :data:`AGG`.
        self.owner: Dict[int, int] = {}
        #: Aggregator tenants' per-shard reservations:
        #: tenant id -> {pod: [local port ids]}.
        self._xpod: Dict[int, Dict[int, List[int]]] = {}
        self.cordoned_shards: Set[int] = set()
        self.controllers: List[ClusterController] = [
            ClusterController(
                self.shards[pod], retry_evicted=retry_evicted,
                owns=lambda tid, pod=pod: self.owner.get(tid) == pod)
            for pod in range(self.n_pods)]
        self.agg_controller = ClusterController(
            self.calc, retry_evicted=retry_evicted,
            owns=lambda tid: self.owner.get(tid) == AGG)
        self._port_map = self._build_port_map()
        #: Batch-mode memo tag (see :meth:`place_batch`).
        self._batch_signature: Optional[tuple] = None
        self._memo_fresh: Set[int] = set()

    def _build_port_map(self) -> Dict[int, Tuple[int, int]]:
        """Global port id -> (pod, local port id) for intra-pod ports.

        Aggregation uplinks and core downlinks are absent: a single-pod
        shard never probes them (its tenants span at most one pod), so
        faults there concern only the aggregator.
        """
        topo, local = self.topology, self.shard_topology
        mapping: Dict[int, Tuple[int, int]] = {}
        for server in range(topo.n_servers):
            pod = topo.pod_of(server)
            s_local = server - pod * self.pod_servers
            mapping[topo.nic_up(server).port_id] = (
                pod, local.nic_up(s_local).port_id)
            mapping[topo.tor_down(server).port_id] = (
                pod, local.tor_down(s_local).port_id)
        for rack in range(topo.n_racks):
            pod = rack // topo.racks_per_pod
            r_local = rack - pod * topo.racks_per_pod
            mapping[topo.tor_up(rack).port_id] = (
                pod, local.tor_up(r_local).port_id)
            mapping[topo.agg_down(rack).port_id] = (
                pod, local.agg_down(r_local).port_id)
        return mapping

    def _to_global(self, pod: int, local_server: int) -> int:
        return pod * self.pod_servers + local_server

    def _to_local(self, server: int) -> Tuple[int, int]:
        pod = server // self.pod_servers
        return pod, server - pod * self.pod_servers

    # -- mirror propagation (ownership-guarded) ------------------------------

    def _on_shard_commit(self, pod: int, request: TenantRequest,
                         placement: Placement) -> None:
        if self.owner.get(request.tenant_id) != pod:
            return  # aggregator placeholder landing in this shard
        assignment: Dict[int, int] = {}
        for local_server in placement.vm_servers:
            server = self._to_global(pod, local_server)
            assignment[server] = assignment.get(server, 0) + 1
        self.calc.adopt(request, assignment)

    def _on_shard_remove(self, pod: int, tenant_id: int) -> None:
        if self.owner.get(tenant_id) != pod:
            return
        if tenant_id in self.calc.placements:
            self.calc.remove(tenant_id)

    def _on_calc_commit(self, request: TenantRequest,
                        placement: Placement) -> None:
        tenant_id = request.tenant_id
        if self.owner.get(tenant_id) != AGG:
            return  # a shard tenant's mirror landing in calc
        per_pod: Dict[int, Dict[int, int]] = {}
        for server in placement.vm_servers:
            pod, local_server = self._to_local(server)
            counts = per_pod.setdefault(pod, {})
            counts[local_server] = counts.get(local_server, 0) + 1
        reservations: Dict[int, List[int]] = {}
        for pod in sorted(per_pod):
            counts = per_pod[pod]
            placeholder = TenantRequest(
                n_vms=sum(counts.values()), guarantee=None,
                tenant_class=TenantClass.BEST_EFFORT,
                name=request.name, tenant_id=tenant_id)
            self.shards[pod].adopt(placeholder, counts)
            reservations[pod] = []
        key = f"xpod:{tenant_id}"
        for global_pid, contribution in self.calc._commits[tenant_id]:
            mapped = self._port_map.get(global_pid)
            if mapped is None:
                continue  # agg uplink / core downlink: aggregator-only
            pod, local_pid = mapped
            self.shards[pod].reserve_capacity(local_pid, contribution,
                                              key)
            reservations[pod].append(local_pid)
        self._xpod[tenant_id] = reservations

    def _on_calc_remove(self, tenant_id: int) -> None:
        if self.owner.get(tenant_id) != AGG:
            return
        reservations = self._xpod.pop(tenant_id, {})
        key = f"xpod:{tenant_id}"
        for pod in sorted(reservations):
            shard = self.shards[pod]
            for local_pid in reservations[pod]:
                shard.release_capacity(local_pid, key)
            if tenant_id in shard.placements:
                shard.remove(tenant_id)

    # -- admission -----------------------------------------------------------

    def _shard_order(self) -> List[int]:
        """Most-free shard first (deterministic tie-break on pod id),
        skipping cordoned shards."""
        candidates = [pod for pod in range(self.n_pods)
                      if pod not in self.cordoned_shards]
        return sorted(candidates,
                      key=lambda pod: (-self.shards[pod]._total_free, pod))

    def _manager_place(self, manager, request: TenantRequest,
                       now: Optional[float]):
        """One admission attempt, sharing the contribution memo across
        a batch of same-signature requests (see :meth:`place_batch`)."""
        if self._batch_signature is None:
            return manager.place(request, now=now)
        if id(manager) not in self._memo_fresh:
            manager._contribution_memo.clear()
            self._memo_fresh.add(id(manager))
        return manager._place_impl(request, now)

    def place(self, request: TenantRequest,
              now: Optional[float] = None) -> Optional[Placement]:
        """Admit a tenant: most-free shard first, aggregator fallback.

        Returns the *global* placement (from the aggregator mirror) or
        ``None`` when no shard and not even cluster scope can hold the
        request.
        """
        tenant_id = request.tenant_id
        if tenant_id in self.owner:
            raise ValueError(f"tenant {tenant_id} is already known")
        for pod in self._shard_order():
            shard = self.shards[pod]
            if shard._total_free < request.n_vms:
                continue
            self.owner[tenant_id] = pod
            placement = self._manager_place(shard, request, now)
            if placement is not None:
                return self.calc.placements[tenant_id]
            del self.owner[tenant_id]
        self.owner[tenant_id] = AGG
        placement = self._manager_place(self.calc, request, now)
        if placement is None:
            del self.owner[tenant_id]
            return None
        return placement

    def place_batch(self, requests: Sequence[TenantRequest],
                    now: Optional[float] = None
                    ) -> List[Optional[Placement]]:
        """Admit a batch, amortizing contribution math per signature.

        Same grouping semantics as
        :meth:`PlacementManager.place_batch`: requests are processed
        group by group (first-seen order), sequentially within a group,
        so decisions are identical to sequential :meth:`place` calls in
        that order.
        """
        results: List[Optional[Placement]] = [None] * len(requests)
        groups: Dict[tuple, List[int]] = {}
        order: List[tuple] = []
        for i, request in enumerate(requests):
            signature = (request.n_vms, request.guarantee)
            if signature not in groups:
                groups[signature] = []
                order.append(signature)
            groups[signature].append(i)
        try:
            for signature in order:
                self._batch_signature = signature
                self._memo_fresh = set()
                for i in groups[signature]:
                    results[i] = self.place(requests[i], now=now)
        finally:
            self._batch_signature = None
            self._memo_fresh = set()
        return results

    def adopt(self, request: TenantRequest, owner: int,
              vm_servers: Sequence[int]) -> Placement:
        """Crash-recovery redo: re-commit a logged admission verbatim.

        ``owner`` and ``vm_servers`` (global server ids) come from the
        write-ahead log's ``done`` record; mirroring propagates exactly
        as it did on the original commit.
        """
        tenant_id = request.tenant_id
        if tenant_id in self.owner:
            raise ValueError(f"tenant {tenant_id} is already known")
        self.owner[tenant_id] = owner
        if owner == AGG:
            assignment: Dict[int, int] = {}
            for server in vm_servers:
                assignment[server] = assignment.get(server, 0) + 1
            return self.calc.adopt(request, assignment)
        local: Dict[int, int] = {}
        for server in vm_servers:
            pod, local_server = self._to_local(server)
            if pod != owner:
                raise ValueError(
                    f"tenant {tenant_id}: server {server} is outside "
                    f"owning pod {owner}")
            local[local_server] = local.get(local_server, 0) + 1
        self.shards[owner].adopt(request, local)
        return self.calc.placements[tenant_id]

    def depart(self, tenant_id: int, now: float = 0.0) -> None:
        """A tenant leaves: release its books and close its track."""
        owner = self.owner.get(tenant_id)
        if owner is None:
            raise KeyError(f"tenant {tenant_id} is not known")
        if owner == AGG:
            if tenant_id in self.calc.placements:
                self.calc.remove(tenant_id)
            self.agg_controller.notify_departed(tenant_id, now)
        else:
            shard = self.shards[owner]
            if tenant_id in shard.placements:
                shard.remove(tenant_id)
            self.controllers[owner].notify_departed(tenant_id, now)
        del self.owner[tenant_id]

    @property
    def placements(self) -> Dict[int, Placement]:
        """All live placements in global coordinates (the calc mirror)."""
        return self.calc.placements

    @property
    def total_free(self) -> int:
        """Free slots across the cluster (cordoned servers excluded)."""
        return self.calc._total_free

    # -- faults --------------------------------------------------------------

    def apply_fault(self, event: FaultEvent,
                    now: Optional[float] = None) -> Dict[int, str]:
        """Fan one fault event out to the aggregator and shard
        controllers; returns merged ``{tenant_id: outcome}``.

        On a fault the aggregator goes first so its owned tenants'
        shard placeholders are gone before shard controllers re-place
        into the degraded pod; on a repair the shards go first so their
        tenants reclaim pod capacity before the aggregator retries
        cross-pod evictees.
        """
        if now is None:
            now = event.time
        outcomes: Dict[int, str] = {}
        shard_events = self._split_event(event)
        if event.action == ACTION_UP:
            for pod, local_event in shard_events:
                outcomes.update(self.controllers[pod].apply(local_event,
                                                            now=now))
            outcomes.update(self.agg_controller.apply(event, now=now))
        else:
            outcomes.update(self.agg_controller.apply(event, now=now))
            for pod, local_event in shard_events:
                outcomes.update(self.controllers[pod].apply(local_event,
                                                            now=now))
        self._refresh_shard_health()
        return outcomes

    def _split_event(self, event: FaultEvent
                     ) -> List[Tuple[int, FaultEvent]]:
        """Translate a global fault event into per-shard local events."""
        target = event.target
        topo = self.topology

        def local(pod: int, local_target: FaultTarget
                  ) -> List[Tuple[int, FaultEvent]]:
            return [(pod, FaultEvent(time=event.time, target=local_target,
                                     action=event.action,
                                     factor=event.factor))]

        if target.kind == "server":
            pod, local_server = self._to_local(target.index)
            return local(pod, FaultTarget("server", local_server))
        if target.kind == "switch":
            if target.level == "tor":
                pod = target.index // topo.racks_per_pod
                r_local = target.index - pod * topo.racks_per_pod
                return local(pod, FaultTarget("switch", r_local,
                                              level="tor"))
            if target.level == "agg":
                return local(target.index, FaultTarget("switch", 0,
                                                       level="agg"))
            return []  # core: aggregator-only
        mapped = self._port_map.get(target.index)
        if mapped is None:
            return []  # agg uplink / core downlink
        pod, local_pid = mapped
        return local(pod, FaultTarget("link", local_pid))

    def _refresh_shard_health(self) -> None:
        """Cordon/uncordon whole shards by their down-server fraction.

        Re-asserted after every event: a repair's uncordon pass may
        have freed individual servers of a still-unhealthy shard.
        """
        for pod in range(self.n_pods):
            down = len(self.controllers[pod].health.down_servers)
            if down / self.pod_servers >= self.shard_down_threshold:
                self.cordon_shard(pod)
            elif pod in self.cordoned_shards:
                self.uncordon_shard(pod)

    def cordon_shard(self, pod: int) -> None:
        """Fence a whole pod out of placement (idempotent)."""
        self.cordoned_shards.add(pod)
        shard = self.shards[pod]
        for local_server in range(self.pod_servers):
            shard.cordon_server(local_server)
            self.calc.cordon_server(self._to_global(pod, local_server))

    def uncordon_shard(self, pod: int) -> None:
        """Lift a shard cordon, keeping individually-down servers
        fenced."""
        self.cordoned_shards.discard(pod)
        down = self.controllers[pod].health.down_servers
        shard = self.shards[pod]
        for local_server in range(self.pod_servers):
            if local_server in down:
                continue
            shard.uncordon_server(local_server)
            self.calc.uncordon_server(self._to_global(pod, local_server))

    # -- reporting and persistence -------------------------------------------

    def finalize(self, end_time: float) -> None:
        """Close every controller's open outage windows at ``end_time``."""
        for controller in self.controllers:
            controller.finalize(end_time)
        self.agg_controller.finalize(end_time)

    def recovery_report(self) -> RecoveryReport:
        """Merged per-tenant recovery outcomes across all controllers."""
        rows = []
        for controller in self.controllers:
            rows.extend(controller.report().rows)
        rows.extend(self.agg_controller.report().rows)
        rows.sort(key=lambda row: (row.tenant_id, row.lost_at))
        return RecoveryReport(rows=rows)

    def dump_state(self) -> Dict:
        """The whole cluster's books as one JSON-serializable dict."""
        return {
            "shards": [
                {"manager": snapshot_mod.dump_manager(self.shards[pod]),
                 "controller": snapshot_mod.dump_controller(
                     self.controllers[pod])}
                for pod in range(self.n_pods)],
            "calc": snapshot_mod.dump_manager(self.calc),
            "agg_controller": snapshot_mod.dump_controller(
                self.agg_controller),
            "owner": sorted([tid, owner]
                            for tid, owner in self.owner.items()),
            "xpod": [[tid, [[pod, list(pids)] for pod, pids
                            in sorted(self._xpod[tid].items())]]
                     for tid in sorted(self._xpod)],
            "cordoned_shards": sorted(self.cordoned_shards),
        }

    def restore_state(self, state: Dict) -> None:
        """Load a :meth:`dump_state` snapshot (must be freshly built).

        Managers are restored registry-verbatim -- the mirror hooks do
        not fire because nothing is re-committed -- then the cluster's
        ownership and cordon maps are reloaded raw.
        """
        for pod, shard_state in enumerate(state["shards"]):
            snapshot_mod.restore_manager(self.shards[pod],
                                         shard_state["manager"])
            snapshot_mod.restore_controller(self.controllers[pod],
                                            shard_state["controller"])
        snapshot_mod.restore_manager(self.calc, state["calc"])
        snapshot_mod.restore_controller(self.agg_controller,
                                        state["agg_controller"])
        self.owner = {int(tid): int(owner)
                      for tid, owner in state["owner"]}
        self._xpod = {
            int(tid): {int(pod): [int(pid) for pid in pids]
                       for pod, pids in pods}
            for tid, pods in state["xpod"]}
        self.cordoned_shards = set(int(pod)
                                   for pod in state["cordoned_shards"])

    def state_digest(self, state: Optional[Dict] = None) -> str:
        """SHA-256 certificate over the whole cluster's books
        (``state``: a :meth:`dump_state` the caller already holds)."""
        if state is None:
            state = self.dump_state()
        return snapshot_mod.state_digest(state)
