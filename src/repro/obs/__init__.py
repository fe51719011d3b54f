"""Observability: event tracing and time-series metrics.

A zero-overhead-when-disabled instrumentation layer shared by the packet
simulator (:mod:`repro.phynet`), the fluid simulator
(:mod:`repro.flowsim`), the pacing stack (:mod:`repro.pacer`) and
admission control (:mod:`repro.placement`).  Components hold an optional
:class:`TraceSink` / :class:`TimeSeries` reference that defaults to
``None`` and guard every emission with a single ``is not None`` test, so
un-instrumented runs pay one pointer check per hook -- the repo
benchmark (``perf/run.py``) takes its end-to-end metrics with tracing
off and reports the traced pass's cost as ``trace_overhead_ratio``.

See DESIGN.md ("Observability layer") for the event schema and the
overhead contract, and ``python -m repro trace --help`` for the CLI.
"""

from repro.obs.events import (
    EVENT_KINDS,
    AdmissionDecision,
    FlowFinish,
    FlowStart,
    PacerStamp,
    PacketDrop,
    PacketEnqueue,
    PacketMark,
    PacketTx,
    RateFeedback,
    ServiceDecision,
    ServiceIngress,
    ServiceSnapshot,
    VoidEmit,
    event_record,
)
from repro.obs.sink import JsonlSink, NullSink, RingBufferSink, TraceSink
from repro.obs.timeseries import Bucket, TimeSeries
from repro.obs.traces import (
    LatencyRecord,
    QueueBucket,
    TraceArtifacts,
    find_trace_artifacts,
    port_kind_of,
    read_latency_csv,
    read_queues_csv,
)

__all__ = [
    "AdmissionDecision", "Bucket", "EVENT_KINDS", "FlowFinish",
    "FlowStart", "JsonlSink", "LatencyRecord", "NullSink", "PacerStamp",
    "PacketDrop", "PacketEnqueue", "PacketMark", "PacketTx",
    "QueueBucket", "RateFeedback", "RingBufferSink",
    "ServiceDecision", "ServiceIngress",
    "ServiceSnapshot", "TimeSeries", "TraceArtifacts", "TraceSink",
    "VoidEmit", "event_record", "find_trace_artifacts", "port_kind_of",
    "read_latency_csv", "read_queues_csv",
]
