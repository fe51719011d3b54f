"""Unit conventions and conversion helpers.

Everything inside this package uses **bytes** for data and **seconds** for
time, so rates are **bytes per second**.  The paper (and networking at large)
quotes link speeds in bits per second and delays in micro- or milliseconds;
the helpers below keep conversions explicit and greppable at API boundaries.
"""

from __future__ import annotations

#: Bytes in one kilobyte / megabyte / gigabyte (decimal, as used for rates).
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

#: Binary sizes, used for buffer sizes quoted in KiB-style units.
KIB = 1_024
MIB = 1_048_576

#: Seconds in common sub-units.
MILLIS = 1e-3
MICROS = 1e-6
NANOS = 1e-9

#: Default maximum transmission unit (Ethernet payload + headers), bytes.
MTU = 1_500

#: Minimum Ethernet frame on the wire (used for void packets), bytes.
#: 64-byte frame + 12-byte inter-frame gap + 8-byte preamble = 84 bytes,
#: exactly the figure the paper uses for its 68 ns minimum spacing claim.
MIN_WIRE_FRAME = 84


def gbps(rate: float) -> float:
    """Convert a rate in gigabits per second to bytes per second."""
    return rate * 1e9 / 8.0


def mbps(rate: float) -> float:
    """Convert a rate in megabits per second to bytes per second."""
    return rate * 1e6 / 8.0


def to_gbps(rate_bytes_per_s: float) -> float:
    """Convert a rate in bytes per second to gigabits per second."""
    return rate_bytes_per_s * 8.0 / 1e9


def to_mbps(rate_bytes_per_s: float) -> float:
    """Convert a rate in bytes per second to megabits per second."""
    return rate_bytes_per_s * 8.0 / 1e6


def usec(t: float) -> float:
    """Convert microseconds to seconds."""
    return t * MICROS


def msec(t: float) -> float:
    """Convert milliseconds to seconds."""
    return t * MILLIS


def to_usec(t_seconds: float) -> float:
    """Convert seconds to microseconds."""
    return t_seconds / MICROS


def to_msec(t_seconds: float) -> float:
    """Convert seconds to milliseconds."""
    return t_seconds / MILLIS
