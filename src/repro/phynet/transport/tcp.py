"""Plain TCP Reno: the status-quo transport of the paper's evaluation."""

from __future__ import annotations

from repro.phynet.transport.base import Transport


class TcpReno(Transport):
    """Standard Reno; all mechanics live in the base class."""
