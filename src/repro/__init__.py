"""Reproduction of "Silo: Predictable Message Latency in the Cloud".

Silo (SIGCOMM 2015) gives cloud tenants three coupled network guarantees --
bandwidth, packet delay and burst allowance -- by combining a network-calculus
driven VM placement manager with fine-grained hypervisor packet pacing.

This package re-implements the full system in Python:

``repro.netcalc``
    Network-calculus machinery: arrival/service curves, queue bounds,
    hose-model aggregation and burst propagation (paper section 4.2.2).
``repro.topology``
    Multi-rooted tree datacenter topologies with buffered switch ports.
``repro.placement``
    Silo's admission control and VM placement algorithm plus the Oktopus
    (bandwidth-only) and locality-aware baselines (section 4.2.3).
``repro.pacer``
    The hypervisor pacer: hierarchical token buckets, void-packet pacing and
    paced IO batching (sections 4.3 and 5).
``repro.phynet``
    A packet-level discrete-event simulator with TCP/DCTCP/HULL transports
    used to reproduce the ns2 experiments (section 6.2).
``repro.flowsim``
    A flow-level cluster simulator used to reproduce the datacenter-scale
    placement and utilization experiments (section 6.3).
``repro.workloads``
    Workload generators: Poisson messages, memcached-ETC, traffic patterns.
``repro.analysis``
    Percentiles, CDFs, outlier classification and report helpers.
``repro.core``
    The tenant-facing API: guarantees, requests and latency estimates,
    plus the event engine both simulators run on.  A tenant is admitted
    by :class:`repro.placement.SiloPlacementManager` and bounds its own
    message latency from its guarantee alone.
"""

from repro.core.guarantees import NetworkGuarantee, message_latency_bound
from repro.core.tenant import TenantClass, TenantRequest

__version__ = "1.0.0"

__all__ = [
    "NetworkGuarantee",
    "message_latency_bound",
    "TenantClass",
    "TenantRequest",
    "__version__",
]
