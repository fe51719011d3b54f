"""Packet-level discrete-event network simulator.

Reproduces the paper's ns2 experiments (section 6.2): switches with
shallow drop-tail output queues, ECN marking (DCTCP) and phantom queues
(HULL), 802.1q-style strict priorities, hypervisor pacing for Silo, and
message-oriented transports on top of TCP-style congestion control.

The simulator is deliberately at the same abstraction level as ns2: every
data packet and ACK is an individual event crossing individual output
ports; pacing releases packets at the exact token-bucket stamps (the
void-packet wire realisation is modelled and validated separately in
:mod:`repro.pacer`, since its sub-100 ns quantization is far below packet
serialization times).
"""

from repro.phynet.packet import Packet, PRIORITY_GUARANTEED, PRIORITY_BEST_EFFORT
from repro.phynet.port import OutputPort, PortStats
from repro.phynet.network import PacketNetwork, VirtualMachine
from repro.phynet.metrics import MessageRecord, MetricsCollector
from repro.phynet.oldi import PartitionAggregateApp, QueryRecord
from repro.phynet.transport.base import Transport
from repro.phynet.transport.tcp import TcpReno
from repro.phynet.transport.dctcp import Dctcp
from repro.phynet.transport.hull import HullTcp
from repro.phynet.transport.swp import SwpTransport

__all__ = [
    "Packet",
    "PRIORITY_GUARANTEED",
    "PRIORITY_BEST_EFFORT",
    "OutputPort",
    "PortStats",
    "PacketNetwork",
    "VirtualMachine",
    "MessageRecord",
    "MetricsCollector",
    "PartitionAggregateApp",
    "QueryRecord",
    "Transport",
    "TcpReno",
    "Dctcp",
    "HullTcp",
    "SwpTransport",
]
