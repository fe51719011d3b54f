# Differential-test oracle: the ``TokenBucket`` of
# ``src/repro/pacer/token_bucket.py`` as it stood before ``stamp`` and
# ``would_stamp`` were flattened into straight-line arithmetic, copied
# verbatim below this header
# (``git show 947d0cd:src/repro/pacer/token_bucket.py``).
# ``tests/pacer/test_token_bucket_oracle.py`` drives it beside the live
# bucket and requires ``==`` returns and state.  Do not optimise or "fix"
# this file: it is the reference, not product code.
"""Virtual token buckets.

The prototype's driver never holds packets against a hardware timer;
instead each packet is *timestamped* with the earliest moment it may leave
(section 5: "we use virtual token buckets, i.e. packets are not drained at
an absolute time, rather we timestamp when each packet needs to be sent
out").  :meth:`TokenBucket.stamp` implements exactly that: it debits the
bucket and returns the departure time, which later stages (chained buckets,
the void-packet scheduler) may only push further into the future.
"""

from __future__ import annotations

from repro import units


class TokenBucket:
    """A token bucket with ``rate`` bytes/s refill and ``capacity`` bytes.

    The bucket starts full.  Negative balances are allowed transiently while
    computing a stamp: a packet larger than the current tokens is stamped
    for the future moment the bucket will have refilled enough.
    """

    __slots__ = ("rate", "capacity", "_tokens", "_updated")

    def __init__(self, rate: float, capacity: float,
                 start_time: float = 0.0):
        if rate <= 0:
            raise ValueError("token bucket rate must be positive")
        if capacity <= 0:
            raise ValueError("token bucket capacity must be positive")
        self.rate = rate
        self.capacity = capacity
        self._tokens = capacity
        self._updated = start_time

    def _refill(self, now: float) -> None:
        if now > self._updated:
            self._tokens = min(self.capacity,
                               self._tokens + self.rate * (now - self._updated))
            self._updated = now

    def tokens_at(self, now: float) -> float:
        """Token balance at time ``now`` without consuming anything.

        ``now`` earlier than the bucket's virtual clock (which a deficit
        stamp pushes into the future) reads the balance at the clock
        instead: the bucket has already committed those tokens.
        """
        if now <= self._updated:
            return min(self._tokens, self.capacity)
        return min(self.capacity,
                   self._tokens + self.rate * (now - self._updated))

    def stamp(self, size: float, now: float) -> float:
        """Debit ``size`` bytes and return the earliest departure time.

        If the bucket holds enough tokens the packet may leave at ``now``;
        otherwise the departure is deferred until the deficit refills.  The
        debit is applied either way, so back-to-back stamps space a packet
        train at exactly ``rate``.  A ``now`` before the bucket's virtual
        clock is clamped to it (the clock marks when already-stamped
        traffic has drained).
        """
        if size <= 0:
            raise ValueError("packet size must be positive")
        now = max(now, self._updated)
        self._refill(now)
        if self._tokens >= size:
            self._tokens -= size
            return now
        deficit = size - self._tokens
        wait = deficit / self.rate
        self._tokens = 0.0
        self._updated = now + wait
        return now + wait

    def would_stamp(self, size: float, now: float) -> float:
        """The departure time :meth:`stamp` would return, without debiting."""
        start = max(now, self._updated)
        tokens = self.tokens_at(start)
        if tokens >= size:
            return start if start > now else now
        return start + (size - tokens) / self.rate

    def deficit(self, now: float) -> float:
        """Bytes of already-stamped traffic still draining at ``now``.

        A deficit stamp pushes the bucket's virtual clock into the future;
        until the clock catches up, ``(clock - now) * rate`` bytes of
        committed traffic are outstanding.  This is the *virtual backlog*
        the observability layer records as "token-bucket backlog": the
        pacer never physically queues these bytes (they carry future
        timestamps instead), but they measure how far the source is
        running ahead of its guarantee.
        """
        if self._updated <= now:
            return 0.0
        return (self._updated - now) * self.rate

    def set_rate(self, rate: float, now: float) -> None:
        """Change the refill rate (used by the EyeQ-style coordination)."""
        if rate <= 0:
            raise ValueError("token bucket rate must be positive")
        self._refill(now)
        self.rate = rate

    def __repr__(self) -> str:
        return (f"TokenBucket({units.to_mbps(self.rate):.1f}Mbps, "
                f"{self.capacity:.0f}B)")
