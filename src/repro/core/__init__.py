"""Tenant-facing API plus the shared event core.

Guarantees and requests (tenant-facing), and the
:class:`~repro.core.engine.EventEngine` both simulator fidelities run
on.  Admission lives in :mod:`repro.placement`; this package imports
nothing above :mod:`repro.units`.
"""

from repro.core.engine import EventEngine
from repro.core.guarantees import NetworkGuarantee, message_latency_bound
from repro.core.tenant import TenantClass, TenantRequest, Placement

__all__ = [
    "EventEngine",
    "NetworkGuarantee",
    "message_latency_bound",
    "TenantClass",
    "TenantRequest",
    "Placement",
]
