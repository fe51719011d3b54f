"""Bounded-memory recording of a scalar signal over simulation time.

Hot paths call :meth:`TimeSeries.record` on every change of the signal
(queue depth, link utilization, shaper backlog); recording must therefore
be O(1) and the stored state must not grow with the run length.  Two
complementary reductions, each optional:

* **fixed-interval buckets** -- time is cut into ``interval``-second
  buckets and each keeps count/mean/min/max/last.  This is the
  figure-ready form: plot ``max`` per bucket for worst-case queue
  occupancy, ``mean`` for utilization.
* **reservoir sampling** -- a uniform sample of ``reservoir_size`` raw
  ``(time, value)`` points (Vitter's algorithm R with a fixed seed, so
  runs stay reproducible).  This preserves outliers' *values* without
  binning and feeds CDFs.

Like the trace sinks, a series is attached by handing it to a component
(``port.depth_series = TimeSeries(...)``); components guard recording
behind ``if series is not None`` so the disabled path stays free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import IO, List, Optional, Tuple, Union

__all__ = ["Bucket", "TimeSeries"]


@dataclass
class Bucket:
    """Aggregates of one fixed-length time bucket."""

    start: float
    count: int
    mean: float
    vmin: float
    vmax: float
    last: float


class TimeSeries:
    """Records ``(time, value)`` observations with bounded memory."""

    __slots__ = ("name", "interval", "reservoir_size", "count", "last",
                 "last_time", "_buckets", "_open_start", "_open_count",
                 "_open_sum", "_open_min", "_open_max", "_open_last",
                 "_samples", "_rng")

    def __init__(self, name: str = "", interval: Optional[float] = None,
                 reservoir_size: int = 0, seed: int = 0):
        if interval is not None and interval <= 0:
            raise ValueError("bucket interval must be positive")
        if reservoir_size < 0:
            raise ValueError("reservoir size must be >= 0")
        if interval is None and reservoir_size == 0:
            raise ValueError("enable bucketing, a reservoir, or both")
        self.name = name
        self.interval = interval
        self.reservoir_size = reservoir_size
        self.count = 0
        self.last = 0.0
        self.last_time = 0.0
        self._buckets: List[Bucket] = []
        self._open_start: Optional[float] = None
        self._open_count = 0
        self._open_sum = 0.0
        self._open_min = 0.0
        self._open_max = 0.0
        self._open_last = 0.0
        self._samples: List[Tuple[float, float]] = []
        self._rng = random.Random(seed)

    # -- recording -----------------------------------------------------------

    def record(self, t: float, value: float) -> None:
        """Observe ``value`` at time ``t``.

        Times must not run backwards past the open bucket: an
        observation older than that bucket's start cannot be binned
        without rewriting closed buckets, so it is a ``ValueError``
        naming the series and both times.  An earlier time within the
        open bucket folds into it.
        """
        interval = self.interval
        if interval is not None:
            start = (t // interval) * interval
            open_start = self._open_start
            if open_start is not None and start < open_start:
                raise ValueError(
                    f"time series {self.name!r}: observation at t={t!r} "
                    f"is older than its open bucket, which starts at "
                    f"{open_start!r}")
        self.count += 1
        self.last = value
        self.last_time = t
        if interval is not None:
            if open_start is None:
                self._open_bucket(start, value)
            elif start > open_start:
                self._close_bucket()
                self._open_bucket(start, value)
            else:
                self._open_count += 1
                self._open_sum += value
                if value < self._open_min:
                    self._open_min = value
                if value > self._open_max:
                    self._open_max = value
                self._open_last = value
        size = self.reservoir_size
        if size:
            if len(self._samples) < size:
                self._samples.append((t, value))
            else:
                slot = self._rng.randrange(self.count)
                if slot < size:
                    self._samples[slot] = (t, value)

    def _open_bucket(self, start: float, value: float) -> None:
        self._open_start = start
        self._open_count = 1
        self._open_sum = value
        self._open_min = value
        self._open_max = value
        self._open_last = value

    def _close_bucket(self) -> None:
        self._buckets.append(Bucket(
            start=self._open_start, count=self._open_count,
            mean=self._open_sum / self._open_count,
            vmin=self._open_min, vmax=self._open_max,
            last=self._open_last))

    # -- export --------------------------------------------------------------

    def buckets(self) -> List[Bucket]:
        """All buckets, including the still-open one."""
        closed = list(self._buckets)
        if self._open_start is not None:
            closed.append(Bucket(
                start=self._open_start, count=self._open_count,
                mean=self._open_sum / self._open_count,
                vmin=self._open_min, vmax=self._open_max,
                last=self._open_last))
        return closed

    def samples(self) -> List[Tuple[float, float]]:
        """Reservoir sample of raw ``(time, value)`` points, time-ordered."""
        return sorted(self._samples)

    def write_csv(self, target: Union[str, "IO[str]"]) -> None:
        """Dump the bucketed series (or raw samples) as CSV.

        Bucket mode columns: ``time,count,mean,min,max,last``; pure
        reservoir mode: ``time,value``.
        """
        if hasattr(target, "write"):
            self._write_csv(target)  # type: ignore[arg-type]
        else:
            with open(target, "w", encoding="utf-8") as handle:
                self._write_csv(handle)

    def _write_csv(self, out: "IO[str]") -> None:
        if self.interval is not None:
            out.write("time,count,mean,min,max,last\n")
            for b in self.buckets():
                out.write(f"{b.start:.9g},{b.count},{b.mean:.9g},"
                          f"{b.vmin:.9g},{b.vmax:.9g},{b.last:.9g}\n")
        else:
            out.write("time,value\n")
            for t, value in self.samples():
                out.write(f"{t:.9g},{value:.9g}\n")

    def __repr__(self) -> str:
        mode = []
        if self.interval is not None:
            mode.append(f"interval={self.interval:g}")
        if self.reservoir_size:
            mode.append(f"reservoir={self.reservoir_size}")
        return (f"TimeSeries({self.name!r}, {', '.join(mode)}, "
                f"n={self.count})")
