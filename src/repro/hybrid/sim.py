"""Hybrid-fidelity simulation: packet foreground in a fluid background.

The paper evaluates Silo at two fidelities that cannot meet in one run:
the packet simulator resolves microsecond message latencies but tops
out at a few racks, while the fluid simulator reaches the paper's ~32K
servers but only sees flow-level rates.  :class:`HybridSim` couples
them through the shared event core so fidelity becomes a per-tenant
property:

1. **Shared admission.**  Foreground tenants are placed first, at
   ``t=0``, through the same :class:`repro.placement.base.PlacementManager`
   the background uses -- their bandwidth reservations constrain
   background admission for the whole run, exactly as on a real
   cluster.
2. **Fluid background.**  A :class:`repro.flowsim.sim.ClusterSim` runs
   the background tenant churn and feeds every rate change to a
   :class:`~repro.hybrid.recorder.PortUsageRecorder` over the
   foreground tenants' path ports, producing an exact stepwise
   ``(time, used_rate)`` series per port.
3. **Packet foreground.**  A :class:`repro.mechanisms.run.PacketRun`
   over the *same topology* runs the foreground applications at packet
   fidelity for a window of the background run; each watched port's
   residual fraction ``(capacity * health - background_used) /
   capacity`` -- ``health`` is the port's factor under the background's
   fault schedule, 1 without one -- is pre-scheduled onto the packet
   engine as capacity factors (the same per-port mechanism fault
   degradation uses), so foreground packets serialize at exactly the
   rate the background leaves free.

The coupling is one-way (background drives foreground): a paced
foreground tenant's traffic is bounded by its own reservation, which
admission already subtracted from what the background can use, and at
thousands of background servers its marginal effect on the fluid rates
is below the fluid model's own resolution.  The window construction --
run the packet phase against the residual series starting at
``fg_offset`` -- lets a millisecond-scale packet simulation sample the
background at steady-state occupancy instead of the empty cluster at
``t=0``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import units
from repro.core.tenant import TenantRequest
from repro.faults.model import HealthState
from repro.flowsim.sim import ClusterSim, ClusterStats
from repro.flowsim.workload import TenantWorkload
from repro.hybrid.recorder import PortUsageRecorder
from repro.mechanisms import PacketRun, PacketTenant, get_mechanism
from repro.phynet.apps import EpochBurstApp, MemcachedApp
from repro.phynet.metrics import MetricsCollector
from repro.phynet.network import PacketNetwork
from repro.placement.base import PlacementManager
from repro.workloads.distributions import Fixed
from repro.workloads.memcached import EtcWorkload

__all__ = ["ForegroundTenant", "HybridResult", "HybridSim"]

#: Residual capacity factors never drop below this fraction, except on a
#: port the background's faults hold down.  Under reserved sharing
#: admission kept the foreground's share free and the floor does not
#: bind; under max-min sharing the background fills the foreground's
#: ports, the residual is zero up to rounding, and the floor is what
#: keeps those ports draining (docs/HYBRID.md, "The residual floor").
RESIDUAL_FLOOR = 1e-3

#: The ``burst`` foreground app's message size and epoch.
FOREGROUND_MESSAGE = 20 * units.KB
FOREGROUND_EPOCH = 1000 * units.MICROS


@dataclass
class ForegroundTenant:
    """One tenant to run at packet fidelity.

    ``app`` picks the packet application: ``"memcached"`` runs
    request/response RPCs from every other VM against the first
    (section 6.1's testbed shape); ``"burst"`` runs the synchronized
    epoch-burst sender of the fig. 11--14 experiments with
    :data:`FOREGROUND_MESSAGE` per :data:`FOREGROUND_EPOCH`.
    """

    request: TenantRequest
    app: str = "memcached"

    def __post_init__(self) -> None:
        if self.app not in ("memcached", "burst"):
            raise ValueError(f"unknown foreground app {self.app!r}")


@dataclass
class HybridResult:
    """Outcome of one hybrid run."""

    #: Fluid-side counters for the background churn.
    background: ClusterStats
    #: Packet-side message records for the foreground tenants.
    metrics: MetricsCollector
    #: One summary dict per *admitted* foreground tenant.
    foreground: List[dict] = field(default_factory=list)
    #: Foreground tenants rejected by the shared admission.
    rejected: int = 0
    #: Ports on foreground paths watched by the recorder.
    watched_ports: int = 0
    #: Residual capacity-factor changes pre-scheduled on the packet engine.
    residual_events: int = 0
    #: Background time at which the packet window starts.
    fg_offset: float = 0.0
    #: Packet window length (seconds).
    fg_horizon: float = 0.0

    def to_dict(self) -> dict:
        """JSON-serializable summary (campaign cell format)."""
        bg = self.background
        return {
            "background": {
                "finished_jobs": bg.finished_jobs,
                "mean_occupancy": bg.mean_occupancy,
                "network_utilization": bg.network_utilization,
                "peak_concurrent_flows": bg.peak_concurrent_flows,
                "evicted_jobs": bg.evicted_jobs,
                "rerouted_jobs": bg.rerouted_jobs,
            },
            "foreground": self.foreground,
            "rejected_foreground": self.rejected,
            "watched_ports": self.watched_ports,
            "residual_events": self.residual_events,
            "fg_offset": self.fg_offset,
            "fg_horizon": self.fg_horizon,
        }


class HybridSim:
    """Couples a packet-fidelity foreground to a fluid background.

    Both phases run on their own :class:`repro.core.engine.EventEngine`
    (one per fidelity, one core implementation); the fluid phase's
    exact per-port usage series is replayed into the packet phase as
    pre-scheduled capacity factors.
    """

    def __init__(self, manager: PlacementManager,
                 foreground: List[ForegroundTenant],
                 sharing: str = "reserved", faults=None):
        """``faults`` (a :class:`repro.faults.FaultSchedule`) applies to
        the background cluster and is replayed on the packet window as
        port health (see :meth:`_preschedule_residuals`).  The packet
        network and its VMs are built through the registered ``silo``
        mechanism: foreground VMs that carry a guarantee are paced."""
        if not foreground:
            raise ValueError("hybrid simulation needs >= 1 foreground "
                             "tenant")
        self.manager = manager
        self.topology = manager.topology
        self.foreground = list(foreground)
        self.sharing = sharing
        self.faults = faults

    def run(self, background: TenantWorkload, until: float,
            fg_offset: Optional[object] = None,
            fg_horizon: float = 20e-3, seed: int = 0) -> HybridResult:
        """Run the full hybrid scenario and return a :class:`HybridResult`.

        ``background`` churns for ``until`` seconds of fluid time; the
        packet window replays the residual series from ``fg_offset``
        (default: halfway, where occupancy has typically reached steady
        state) for ``fg_horizon`` seconds.  Passing the string
        ``"peak"`` aligns the window with the recorded peak of total
        background usage on the watched ports -- the deterministic
        worst case, useful when background traffic on the foreground's
        paths is bursty and a fixed offset would usually sample idle
        air.
        """
        if fg_offset is None:
            fg_offset = until / 2.0
        elif fg_offset == "peak":
            pass  # resolved after the fluid phase, below
        elif not 0.0 <= fg_offset <= until:
            raise ValueError("fg_offset must fall inside the background "
                             "horizon")
        # Phase 1: foreground admission through the shared manager.
        placements = []
        rejected = 0
        watch: Set[int] = set()
        for tenant in self.foreground:
            placement = self.manager.place(tenant.request, now=0.0)
            if placement is None:
                rejected += 1
                continue
            placements.append((tenant, placement))
            watch.update(port.port_id for port, _, _ in
                         self.topology.hose_cuts(placement.vms_per_server()))

        # Phase 2: fluid background with the usage recorder attached.
        cluster = ClusterSim(self.manager, sharing=self.sharing,
                             faults=self.faults)
        recorder = PortUsageRecorder(watch)
        cluster.monitor_port_usage(recorder)
        bg_stats = cluster.run(background, until)
        if fg_offset == "peak":
            fg_offset = _peak_offset(recorder, until, fg_horizon)

        # Phase 3: packet foreground inside the recorded residuals.
        rng = random.Random(seed)

        def memcached(net, metrics, tenant_id, vm_ids):
            return MemcachedApp(net, metrics, tenant_id, server_vm=vm_ids[0],
                                client_vms=vm_ids[1:],
                                workload=EtcWorkload(), rng=rng)

        def burst(net, metrics, tenant_id, vm_ids):
            return EpochBurstApp(net, metrics, tenant_id, vm_ids,
                                 Fixed(FOREGROUND_MESSAGE),
                                 epoch=FOREGROUND_EPOCH, rng=rng)

        run = PacketRun(get_mechanism("silo"), self.topology, [
            PacketTenant(tenant.request, placement.vm_servers,
                         memcached if tenant.app == "memcached" else burst)
            for tenant, placement in placements])
        residual_events = self._preschedule_residuals(
            run.net, recorder, fg_offset, fg_offset + fg_horizon)
        run.run(until=fg_horizon)

        foreground = []
        for (fg, _), tenant, app in zip(placements, run.tenants, run.apps):
            summary = {
                "tenant_id": tenant.request.tenant_id,
                "app": fg.app,
                "vms": len(tenant.vm_servers),
                "messages": len(run.metrics.latencies(
                    tenant.request.tenant_id)),
                "p50_us": run.percentile_us(tenant, 50.0),
                "p99_us": run.percentile_us(tenant, 99.0),
            }
            if fg.app == "memcached":
                summary["rps"] = app.throughput_rps(fg_horizon)
            else:
                summary["late"] = run.late(tenant)
            foreground.append(summary)
        return HybridResult(background=bg_stats, metrics=run.metrics,
                            foreground=foreground, rejected=rejected,
                            watched_ports=len(watch),
                            residual_events=residual_events,
                            fg_offset=fg_offset, fg_horizon=fg_horizon)

    def _preschedule_residuals(self, net: PacketNetwork,
                               recorder: PortUsageRecorder,
                               start: float, end: float) -> int:
        """Replay the recorded window as packet-port capacity factors.

        A watched port's factor is ``(capacity * health - used) /
        capacity``, re-evaluated at every usage and fault breakpoint of
        the window: ``used`` is the background's recorded rate and
        ``health`` the port's factor under the background's fault
        schedule (exactly 1.0 without one, so fault-free factors are
        bit for bit ``(capacity - used) / capacity``).  A port the
        schedule holds down replays as down: factor 0, never raised to
        :data:`RESIDUAL_FLOOR`.  Factors ride the ports' existing
        fault-degradation machinery
        (:meth:`repro.phynet.port.OutputPort.set_fault_factor`), so
        in-flight serialization stretches and queue drains all behave
        exactly as they do under partial faults.  Returns the number of
        scheduled factor changes.
        """
        specs = self.topology.ports
        health_steps = _health_steps(self.topology, self.faults,
                                     recorder.ports, start, end)
        count = 0
        for port_id in sorted(recorder.ports):
            port = net.port(port_id)
            cap = specs[port_id].capacity
            # Usage and health breakpoints in window order; at equal
            # times the usage step comes first.
            changes = sorted(
                [(when, used, None) for when, used
                 in recorder.window(port_id, start, end)]
                + [(when, None, health) for when, health
                   in health_steps.get(port_id, ())],
                key=lambda change: change[0])
            used, health = 0.0, 1.0
            last = 1.0  # ports start undegraded
            for when, new_used, new_health in changes:
                if new_health is None:
                    used = new_used
                else:
                    health = new_health
                if health <= 0.0:
                    factor = 0.0
                else:
                    factor = (cap * health - used) / cap
                    if factor < RESIDUAL_FLOOR:
                        factor = RESIDUAL_FLOOR
                    elif factor > 1.0:
                        factor = 1.0
                if factor == last:
                    continue
                net.sim.schedule_at(when, port.set_fault_factor, factor)
                count += 1
                last = factor
        return count


def _health_steps(topology, faults, watched, start: float, end: float
                  ) -> Dict[int, List[Tuple[float, float]]]:
    """``{port: [(window time, health factor), ...]}`` for the watched
    ports ``faults`` touches before ``end``: the factor in force at
    ``start`` first (at window time 0), then every in-window change.

    The schedule is folded through one
    :class:`~repro.faults.model.HealthState`, the composition the fluid
    side applied, so both fidelities see one health timeline.
    """
    steps: Dict[int, List[Tuple[float, float]]] = {}
    if faults is None:
        return steps
    health = HealthState(topology)
    for event in faults:
        if event.time >= end:
            break
        when = max(event.time - start, 0.0)
        for port_id, factor in health.apply(event).items():
            if port_id in watched:
                series = steps.setdefault(port_id, [])
                if series and series[-1][0] == when:
                    series.pop()
                series.append((when, factor))
    return steps


def _peak_offset(recorder: PortUsageRecorder, until: float,
                 fg_horizon: float) -> float:
    """Window start maximizing total watched-port usage (``"peak"`` mode).

    Candidates are the recorded breakpoint times (usage is stepwise
    constant, so the maximum of the total-usage step function is
    attained at one of them); ties break toward the earliest time for
    determinism.  Falls back to the midpoint when the background never
    touched a watched port, and is clamped so the whole packet window
    fits inside the fluid horizon.
    """
    times = sorted({t for series in recorder.series.values()
                    for t, _ in series if t > 0.0})
    best_time, best_total = None, 0.0
    for t in times:
        total = sum(recorder.used_at(p, t) for p in recorder.ports)
        if total > best_total:
            best_time, best_total = t, total
    if best_time is None:
        return until / 2.0
    return max(0.0, min(best_time, until - fg_horizon))

