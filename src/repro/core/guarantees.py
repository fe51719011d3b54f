"""Silo's per-VM network guarantee ``{B, S, d}`` plus burst rate ``Bmax``.

Section 4.1 of the paper: every VM of a tenant is attached to a virtual
switch by a link of bandwidth ``B`` and one-way delay ``d/2``, and its
traffic is shaped by a token bucket of size ``S`` draining at up to
``Bmax``.  From these a tenant can compute the worst-case latency of any
message between its VMs without knowing anything about other tenants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import units


@dataclass(frozen=True)
class NetworkGuarantee:
    """The network capabilities of one VM: ``{B, S, d}`` and ``Bmax``.

    Attributes:
        bandwidth: guaranteed average rate ``B`` (bytes/second, hose model).
        burst: burst allowance ``S`` (bytes); a VM that has under-used its
            bandwidth may send this much above ``B``.
        delay: guaranteed NIC-to-NIC packet delay ``d`` (seconds) for
            bandwidth-compliant packets; ``None`` for tenants that need only
            bandwidth (the paper's class-B tenants).
        peak_rate: maximum rate ``Bmax`` at which a burst may be sent
            (bytes/second); defaults to ``bandwidth`` when not set, i.e. no
            bursting above the average rate.
    """

    bandwidth: float
    burst: float = units.MTU
    delay: Optional[float] = None
    peak_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("guaranteed bandwidth must be positive")
        if self.burst < 0:
            raise ValueError("burst allowance must be >= 0")
        if self.delay is not None and self.delay <= 0:
            raise ValueError("delay guarantee must be positive")
        if self.peak_rate is not None and self.peak_rate < self.bandwidth:
            raise ValueError("Bmax must be at least the bandwidth guarantee")

    @property
    def effective_peak_rate(self) -> float:
        """``Bmax``, falling back to ``B`` when bursting is not allowed."""
        return self.peak_rate if self.peak_rate is not None else self.bandwidth

    @property
    def wants_delay(self) -> bool:
        """True when the tenant asked for a packet-delay guarantee."""
        return self.delay is not None

    def message_latency_bound(self, message_size: float) -> float:
        """Worst-case latency of one message of ``message_size`` bytes.

        See :func:`message_latency_bound`; requires a delay guarantee.
        """
        if self.delay is None:
            raise ValueError(
                "latency bounds need a delay guarantee; this tenant has none")
        return message_latency_bound(
            message_size,
            bandwidth=self.bandwidth,
            burst=self.burst,
            delay=self.delay,
            peak_rate=self.effective_peak_rate,
        )


def message_latency_bound(message_size: float, bandwidth: float,
                          burst: float, delay: float,
                          peak_rate: Optional[float] = None) -> float:
    """The paper's latency guarantee for a message of ``M`` bytes.

    With a fresh burst allowance (section 4.1):

    * ``M <= S``: the whole message rides the burst, latency is at most
      ``M / Bmax + d``;
    * ``M > S``: the first ``S`` bytes go at ``Bmax``, the remainder at the
      guaranteed bandwidth: ``S / Bmax + (M - S) / B + d``.
    """
    if message_size <= 0:
        raise ValueError("message size must be positive")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if delay < 0:
        raise ValueError("delay must be >= 0")
    peak = bandwidth if peak_rate is None else peak_rate
    if peak < bandwidth:
        raise ValueError("peak rate must be at least the bandwidth")
    if message_size <= burst:
        return message_size / peak + delay
    return burst / peak + (message_size - burst) / bandwidth + delay


#: Convenience presets mirroring the paper's evaluation (Table 3).
CLASS_A_GUARANTEE = NetworkGuarantee(
    bandwidth=units.gbps(0.25),
    burst=15 * units.KB,
    delay=1000 * units.MICROS,
    peak_rate=units.gbps(1.0),
)

CLASS_B_GUARANTEE = NetworkGuarantee(
    bandwidth=units.gbps(2.0),
    burst=1.5 * units.KB,
    delay=None,
    peak_rate=None,
)
