"""Piecewise-linear concave curves represented as a minimum of affine pieces.

A concave, non-decreasing, piecewise-linear function ``A`` on ``t >= 0`` can
always be written as::

    A(t) = min_i (rate_i * t + burst_i)

This representation makes the two operations network calculus needs cheap and
exact:

* **addition** -- ``min_i f_i + min_j g_j = min_{i,j} (f_i + g_j)`` for each
  fixed ``t``, so the sum is the minimum over pairwise-summed pieces;
* **minimum** -- the union of the two piece sets.

After either operation redundant pieces are pruned with a convex-hull-trick
sweep so curves stay small no matter how many tenants are aggregated.

All arrival curves in this package are instances of :class:`Curve`; see
:mod:`repro.netcalc.arrival` for the standard constructors.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

#: Prune tolerance of :func:`_prune` (equal-rate dedup, dominated pieces,
#: empty active intervals).  ``netcalc.fastbounds`` and
#: ``placement.state`` import it so their closed forms prune exactly as
#: the Curve does.
_EPS = 1e-12


@dataclass(frozen=True)
class AffinePiece:
    """One affine piece ``f(t) = rate * t + burst`` of a concave curve.

    ``rate`` is in bytes per second and ``burst`` in bytes.  ``burst`` may be
    zero (e.g. a pure rate cap) but never negative: arrival curves bound
    cumulative traffic, which is non-negative.
    """

    rate: float
    burst: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"piece rate must be >= 0, got {self.rate}")
        if self.burst < 0:
            raise ValueError(f"piece burst must be >= 0, got {self.burst}")

    def __call__(self, t: float) -> float:
        return self.rate * t + self.burst


def _prune(pieces: Iterable[AffinePiece]) -> List[AffinePiece]:
    """Keep only the pieces on the lower envelope ``min_i f_i``.

    Sorts by rate descending (the steepest piece is active first) and runs a
    convex-hull-trick sweep, dropping pieces that are dominated everywhere or
    whose active interval is empty.
    """
    by_rate = sorted(pieces, key=lambda p: (-p.rate, p.burst))
    # Deduplicate equal rates: only the lowest burst can ever be the minimum.
    deduped: List[AffinePiece] = []
    for piece in by_rate:
        if deduped and math.isclose(deduped[-1].rate, piece.rate,
                                    rel_tol=_EPS, abs_tol=_EPS):
            # Effectively equal rates: only the lowest burst survives.
            if piece.burst < deduped[-1].burst:
                deduped[-1] = piece
            continue
        deduped.append(piece)

    kept: List[AffinePiece] = []
    # breaks[i] is the time at which kept[i] takes over from kept[i-1].
    breaks: List[float] = []
    for piece in deduped:
        while kept:
            top = kept[-1]
            if piece.burst <= top.burst + _EPS:
                # piece has a lower rate (sorted) and a lower-or-equal burst,
                # so it is below top everywhere: top is dominated.
                kept.pop()
                breaks.pop()
                continue
            crossover = (piece.burst - top.burst) / (top.rate - piece.rate)
            if breaks and crossover <= breaks[-1] + _EPS:
                # top would take over after piece already has: never active.
                kept.pop()
                breaks.pop()
                continue
            kept.append(piece)
            breaks.append(crossover)
            break
        else:
            kept.append(piece)
            breaks.append(0.0)
    return kept


class Curve:
    """A concave non-decreasing piecewise-linear curve on ``t >= 0``.

    Instances are immutable; all operators return new curves.  Construct via
    :meth:`from_pieces` or the helpers in :mod:`repro.netcalc.arrival`.
    """

    __slots__ = ("_pieces", "_breaks")

    def __init__(self, pieces: Sequence[AffinePiece]):
        pruned = _prune(pieces)
        if not pruned:
            raise ValueError("a curve needs at least one affine piece")
        self._pieces: Tuple[AffinePiece, ...] = tuple(pruned)
        # _breaks[i]: time at which piece i becomes active (first is 0).
        breaks = [0.0]
        for prev, nxt in zip(self._pieces, self._pieces[1:]):
            breaks.append((nxt.burst - prev.burst) / (prev.rate - nxt.rate))
        self._breaks: Tuple[float, ...] = tuple(breaks)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pieces(cls, pieces: Iterable[Tuple[float, float]]) -> "Curve":
        """Build a curve from ``(rate, burst)`` tuples."""
        return cls([AffinePiece(rate, burst) for rate, burst in pieces])

    @classmethod
    def affine(cls, rate: float, burst: float) -> "Curve":
        """A single token-bucket-shaped piece ``rate * t + burst``."""
        return cls([AffinePiece(rate, burst)])

    # -- inspection --------------------------------------------------------

    @property
    def pieces(self) -> Tuple[AffinePiece, ...]:
        """The active affine pieces, ordered by decreasing rate."""
        return self._pieces

    @property
    def breakpoints(self) -> Tuple[float, ...]:
        """Times at which the active piece changes (first entry is 0)."""
        return self._breaks

    @property
    def burst(self) -> float:
        """``A(0)``: the instantaneous burst the curve allows."""
        return min(p.burst for p in self._pieces)

    @property
    def sustained_rate(self) -> float:
        """The long-run rate of the curve (rate of the flattest piece)."""
        return self._pieces[-1].rate

    @property
    def peak_rate(self) -> float:
        """The short-run rate of the curve (rate of the steepest piece)."""
        return self._pieces[0].rate

    def __call__(self, t: float) -> float:
        """Evaluate the curve at time ``t`` (seconds)."""
        if t < 0:
            raise ValueError("curves are defined for t >= 0 only")
        idx = bisect_right(self._breaks, t) - 1
        return self._pieces[idx](t)

    def active_piece(self, t: float) -> AffinePiece:
        """The affine piece that attains the minimum at time ``t``."""
        if t < 0:
            raise ValueError("curves are defined for t >= 0 only")
        idx = bisect_right(self._breaks, t) - 1
        return self._pieces[idx]

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Curve") -> "Curve":
        """Exact sum of two concave curves (aggregate of two sources)."""
        if not isinstance(other, Curve):
            return NotImplemented
        summed = [
            AffinePiece(p.rate + q.rate, p.burst + q.burst)
            for p in self._pieces
            for q in other._pieces
        ]
        return Curve(summed)

    def minimum(self, other: "Curve") -> "Curve":
        """Pointwise minimum (e.g. capping a source at a link rate)."""
        return Curve(list(self._pieces) + list(other._pieces))

    def scale(self, factor: float) -> "Curve":
        """Scale the whole curve: ``factor * A(t)`` (``factor > 0``)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Curve([AffinePiece(p.rate * factor, p.burst * factor)
                      for p in self._pieces])

    def shift_earlier(self, delta: float) -> "Curve":
        """Return ``t -> A(t + delta)`` for ``delta >= 0``.

        This is exactly Silo's egress-burst propagation: traffic that spent
        up to ``delta`` seconds queued inside a switch may leave bunched, so
        the egress of a port with queue capacity ``delta`` is bounded by the
        ingress curve advanced by ``delta``.
        """
        if delta < 0:
            raise ValueError("shift must be >= 0")
        return Curve([AffinePiece(p.rate, p.burst + p.rate * delta)
                      for p in self._pieces])

    # -- comparisons -------------------------------------------------------

    def dominates(self, other: "Curve") -> bool:
        """True if ``self(t) >= other(t)`` on ``[0, 10]``.

        Checked at the union of breakpoints plus the horizon, which is exact
        for piecewise-linear curves whose final pieces extend past the last
        breakpoint.
        """
        points = set(self._breaks) | set(other._breaks) | {10.0}
        return all(self(t) >= other(t) - _EPS for t in points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Curve):
            return NotImplemented
        if len(self._pieces) != len(other._pieces):
            return False
        return all(
            math.isclose(p.rate, q.rate, rel_tol=1e-9, abs_tol=1e-6)
            and math.isclose(p.burst, q.burst, rel_tol=1e-9, abs_tol=1e-6)
            for p, q in zip(self._pieces, other._pieces)
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash(self._pieces)

    def __repr__(self) -> str:
        body = ", ".join(f"({p.rate:.6g}*t + {p.burst:.6g})"
                         for p in self._pieces)
        return f"Curve(min[{body}])"
