"""Which functions the traced pass wraps, and the per-layer metrics
derived from what the wrappers saw.

A layer is a module name of ``src/repro`` without the ``repro.``
prefix.  Every key in :data:`TARGETS` is ``<layer>.<what>``; engine
callbacks land under ``<layer>.callback`` for the layer that owns the
callback, which keeps attribution complete by construction: whatever a
workload's timed call does is self time of exactly one key, and
``other_s`` is what no listed layer claimed.

``_s`` metrics are self time unless the README marks them inclusive.
"""

from __future__ import annotations

from typing import Dict, List

from perf.trace import Target, Tracer
from perf.workloads import percentile

__all__ = ["TARGETS", "ROOT_KEY", "install", "layer_metrics"]

#: The traced instance's own frame; its self time lands in ``other_s``.
ROOT_KEY = "other.root"

#: Layers that own engine callbacks or wrapped calls, longest first so
#: ``phynet.transport.base`` resolves to ``phynet.transport``.
_LAYERS = ("phynet.transport", "phynet.port", "phynet.shaper",
           "phynet.network", "phynet.apps", "pacer.token_bucket",
           "mechanisms", "hybrid", "faults", "placement", "flowsim",
           "service", "core.engine", "maxmin")


#: Layers whose self time some metric of :func:`layer_metrics` reports.
_REPORTED_LAYERS = frozenset((
    "core.engine", "phynet.port", "phynet.shaper", "pacer.token_bucket",
    "phynet.transport", "phynet.network", "phynet.apps", "placement",
    "maxmin", "flowsim", "hybrid", "service"))


def layer_of(module: str) -> str:
    """The layer a ``repro`` module belongs to (itself if unlisted)."""
    name = module[len("repro."):] if module.startswith("repro.") else module
    for layer in _LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return name


def _count_accept(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.counters["placement.accepted"] += 1


def _gauge_flows(tracer: Tracer, args, result) -> None:
    tracer.gauge("maxmin.flows_resolved", args[0],
                 args[0].affected_flow_count)


def _gauge_rate_updates(tracer: Tracer, args, result) -> None:
    tracer.gauge("flowsim.rate_updates", args[0],
                 args[0].rate_update_count)


#: (module, attribute, key, keep raw spans, post hook).  ``place`` is
#: traced at ``_place_impl``, the body both ``place`` and the batched
#: service path call.
TARGETS: List[Target] = [
    ("repro.core.engine", "EventEngine.run", "core.engine.run", True, None),
    ("repro.phynet.port", "OutputPort.enqueue", "phynet.port.enqueue",
     False, None),
    ("repro.phynet.shaper", "VMShaper.submit", "phynet.shaper.submit",
     False, None),
    ("repro.pacer.token_bucket", "TokenBucket.would_stamp",
     "pacer.token_bucket.would_stamp", False, None),
    ("repro.pacer.token_bucket", "TokenBucket.stamp",
     "pacer.token_bucket.stamp", False, None),
    ("repro.phynet.transport.base", "Transport.send_message",
     "phynet.transport.send_message", False, None),
    ("repro.phynet.transport.base", "Transport.on_data",
     "phynet.transport.on_data", False, None),
    ("repro.phynet.transport.base", "Transport.on_ack",
     "phynet.transport.on_ack", False, None),
    ("repro.phynet.transport.base", "Transport.on_drop",
     "phynet.transport.on_drop", False, None),
    ("repro.phynet.network", "PacketNetwork.transmit",
     "phynet.network.transmit", False, None),
    ("repro.placement.base", "PlacementManager._place_impl",
     "placement.place", True, _count_accept),
    ("repro.placement.base", "PlacementManager.remove",
     "placement.remove", True, None),
    ("repro.placement.state", "PortState.admits",
     "placement.port_admits", False, None),
    ("repro.maxmin", "IncrementalMaxMin.recompute", "maxmin.recompute",
     True, _gauge_flows),
    ("repro.maxmin", "max_min_fair", "maxmin.full_solve", False, None),
    ("repro.flowsim.sim", "ClusterSim.run", "flowsim.run", True,
     _gauge_rate_updates),
    ("repro.hybrid.sim", "HybridSim.run", "hybrid.run", True, None),
    ("repro.hybrid.recorder", "PortUsageRecorder.record",
     "hybrid.recorder_record", False, None),
    ("repro.service.server", "AdmissionService.tick", "service.tick",
     True, None),
    ("repro.service.server", "AdmissionService.submit_admission",
     "service.submit_admission", True, None),
    ("repro.service.server", "AdmissionService.submit_departure",
     "service.submit_departure", True, None),
    ("repro.service.server", "AdmissionService.submit_fault",
     "service.submit_fault", True, None),
    ("repro.service.server", "AdmissionService.snapshot",
     "service.snapshot", True, None),
    ("repro.service.wal", "SnapshotStore.save", "service.snapshot_save",
     True, None),
    ("repro.service.wal", "WriteAheadLog.log_enq", "service.wal_enq",
     True, None),
    ("repro.service.wal", "WriteAheadLog.log_done", "service.wal_done",
     True, None),
    ("repro.service.cluster", "ShardedCluster.place_batch",
     "service.cluster_place_batch", True, None),
    ("repro.service.cluster", "ShardedCluster.apply_fault",
     "service.cluster_apply_fault", True, None),
    ("repro.service.cluster", "ShardedCluster.depart",
     "service.cluster_depart", True, None),
    ("repro.service.cluster", "ShardedCluster.state_digest",
     "service.digest", True, None),
    ("repro.service.loadgen", "ClosedLoopLoadGen.run",
     "service.loadgen_run", True, None),
]


def install(tracer: Tracer) -> None:
    """Patch every target and the event engine into ``tracer``."""
    from repro.core.engine import EventEngine
    tracer.install(TARGETS)
    tracer.install_engine(EventEngine, layer_of)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced instance that took
    ``wall_s``; outcome-derived ones (drops, bytes, ...) are merged in
    by the runner from the workload's own summary."""
    calls, inclusive, self_s = (tracer.calls, tracer.inclusive,
                                tracer.layer_self)
    fired = sum(cell[0] for key, cell in tracer.aggregates.items()
                if key.endswith(".callback"))
    scheduled = tracer.counters["engine.scheduled"]
    place_us = [d * 1e6 for d in tracer.span_durations("placement.place")]
    tick_ms = [d * 1e3 for d in tracer.span_durations("service.tick")]
    recomputes = calls("maxmin.recompute")
    flows_resolved = tracer.gauge_total("maxmin.flows_resolved")
    stamps = calls("pacer.token_bucket.stamp")
    places = calls("placement.place")
    admits = calls("placement.port_admits")
    # Unattributed: the root frame's own time, plus wrapped code in a
    # layer that has no metric below (say, a mechanism's control loop).
    other_s = sum(cell[2] for key, cell in tracer.aggregates.items()
                  if key.rpartition(".")[0] not in _REPORTED_LAYERS)
    return {
        "core.engine.events_scheduled": scheduled,
        "core.engine.events_fired": fired,
        "core.engine.cancel_ratio": _ratio(
            tracer.counters["engine.cancelled"], scheduled),
        "core.engine.dispatch_self_s": self_s("core.engine"),
        "core.engine.us_per_event": _ratio(
            inclusive("core.engine.run") * 1e6, fired),
        "phynet.port.enqueue_calls": calls("phynet.port.enqueue"),
        "phynet.port.self_s": self_s("phynet.port"),
        "phynet.shaper.submit_calls": calls("phynet.shaper.submit"),
        "phynet.shaper.self_s": self_s("phynet.shaper"),
        "pacer.token_bucket.would_stamp_calls":
            calls("pacer.token_bucket.would_stamp"),
        "pacer.token_bucket.stamp_calls": stamps,
        "pacer.token_bucket.probes_per_stamp": _ratio(
            calls("pacer.token_bucket.would_stamp"), stamps),
        "pacer.token_bucket.self_s": self_s("pacer.token_bucket"),
        "phynet.transport.send_message_calls":
            calls("phynet.transport.send_message"),
        "phynet.transport.on_ack_calls": calls("phynet.transport.on_ack"),
        "phynet.transport.on_drop_calls":
            calls("phynet.transport.on_drop"),
        "phynet.transport.self_s": self_s("phynet.transport"),
        "phynet.network.self_s": self_s("phynet.network"),
        "phynet.apps.self_s": self_s("phynet.apps"),
        "placement.place_calls": places,
        "placement.place_s": inclusive("placement.place"),
        "placement.place_p50_us":
            percentile(place_us, 50.0) if place_us else 0.0,
        "placement.place_p99_us":
            percentile(place_us, 99.0) if place_us else 0.0,
        "placement.remove_calls": calls("placement.remove"),
        "placement.remove_s": inclusive("placement.remove"),
        "placement.accept_ratio": _ratio(
            tracer.counters["placement.accepted"], places),
        "placement.port_admits_calls": admits,
        "placement.port_admits_per_place": _ratio(admits, places),
        "placement.self_s": self_s("placement"),
        "maxmin.recompute_calls": recomputes,
        "maxmin.recompute_s": inclusive("maxmin.recompute"),
        "maxmin.full_solve_calls": calls("maxmin.full_solve"),
        "maxmin.full_solve_s": inclusive("maxmin.full_solve"),
        "maxmin.flows_resolved": flows_resolved,
        "maxmin.flows_per_recompute": _ratio(flows_resolved, recomputes),
        "flowsim.run_self_s": self_s("flowsim"),
        "flowsim.rate_updates":
            tracer.gauge_total("flowsim.rate_updates"),
        "hybrid.self_s": self_s("hybrid"),
        "hybrid.recorder_record_calls": calls("hybrid.recorder_record"),
        "service.tick_calls": calls("service.tick"),
        "service.tick_p50_ms":
            percentile(tick_ms, 50.0) if tick_ms else 0.0,
        "service.tick_p99_ms":
            percentile(tick_ms, 99.0) if tick_ms else 0.0,
        "service.tick_max_ms": max(tick_ms, default=0.0),
        "service.submit_s": sum(
            inclusive("service.submit_" + kind)
            for kind in ("admission", "departure", "fault")),
        "service.wal.appends": (calls("service.wal_enq")
                                + calls("service.wal_done")),
        "service.wal.s": (inclusive("service.wal_enq")
                          + inclusive("service.wal_done")),
        "service.snapshot.calls": calls("service.snapshot"),
        "service.snapshot.s": inclusive("service.snapshot"),
        "service.digest_s": inclusive("service.digest"),
        "service.cluster.place_batch_s":
            inclusive("service.cluster_place_batch"),
        "service.cluster.apply_fault_s":
            inclusive("service.cluster_apply_fault"),
        "service.cluster.depart_s": inclusive("service.cluster_depart"),
        "service.self_s": self_s("service"),
        "other_s": other_s,
        "attributed_fraction": 1.0 - _ratio(other_s, wall_s),
    }
