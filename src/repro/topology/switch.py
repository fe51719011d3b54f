"""Switch and NIC ports: the queuing points Silo reasons about.

Every directed hop in the datacenter tree is a :class:`Port` -- an output
queue draining at line rate into a link.  A port's *queue capacity* is the
time it takes to drain a full buffer (e.g. 312 KB at 10 Gbps is ~250 us);
Silo's placement constraints are phrased entirely in terms of queue bounds
versus queue capacities (section 4.2.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro import units

#: Fixed hypervisor vswitch latency: the hop out of a sender's hypervisor
#: and into a receiver's.  The packet network charges it on the vswitch
#: port intra-server traffic crosses; the what-if surrogate adds it twice
#: to every message's contention-free latency.
VSWITCH_DELAY = 2 * units.MICROS


class PortKind(enum.Enum):
    """Where in the tree a port sits (used for readable diagnostics)."""

    NIC_UP = "nic-up"            # server NIC egress onto the wire
    TOR_DOWN = "tor-down"        # ToR port facing one server
    TOR_UP = "tor-up"            # ToR uplink towards aggregation
    AGG_DOWN = "agg-down"        # aggregation port facing one rack
    AGG_UP = "agg-up"            # aggregation uplink towards the core
    CORE_DOWN = "core-down"      # core port facing one pod


@dataclass
class Port:
    """A directed, buffered, line-rate output port.

    Attributes:
        port_id: unique integer id within the topology.
        kind: the port's position in the tree.
        capacity: drain rate in bytes/second.
        buffer_bytes: output buffer size in bytes.
        upstream_queue_capacity: worst-case sum of the queue capacities of
            ports a packet may have crossed *before* this one; used to bound
            the burst inflation of propagated traffic (section 4.2.2).
        index: position among sibling ports (e.g. which server a TOR_DOWN
            port faces).
    """

    port_id: int
    kind: PortKind
    capacity: float
    buffer_bytes: float
    index: int = 0
    upstream_queue_capacity: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("port capacity must be positive")
        if self.buffer_bytes <= 0:
            raise ValueError("port buffer must be positive")

    @property
    def queue_capacity(self) -> float:
        """Seconds to drain a full buffer: the paper's queue capacity."""
        return self.buffer_bytes / self.capacity

    @property
    def name(self) -> str:
        """The ``<kind>[<index>]`` label used in traces and ``queues.csv``.

        Matches the name the packet simulator gives the corresponding
        simulated port, so offline consumers can join ``queues.csv``
        rows back to topology ports.
        """
        return f"{self.kind.value}[{self.index}]"

    def __repr__(self) -> str:
        return (f"Port(#{self.port_id} {self.name} "
                f"{self.capacity * 8 / 1e9:.1f}Gbps "
                f"{self.buffer_bytes / 1e3:.0f}KB)")
