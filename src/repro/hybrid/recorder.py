"""Per-port used-rate recording inside the fluid simulator.

The hybrid-fidelity coupling (:mod:`repro.hybrid.sim`) needs to know,
for each port on a foreground tenant's paths, how much capacity the
fluid *background* is using at every point in virtual time.  The fluid
simulator already knows exactly when any flow's rate changes -- that is
its event model -- so the recorder simply folds those deltas into a
per-port running sum and appends a ``(time, used_rate)`` breakpoint
whenever the sum moves.

:class:`repro.hybrid.sim.HybridSim` builds one over the foreground's
ports and hands it to
:meth:`repro.flowsim.sim.ClusterSim.monitor_port_usage`.
The hot-path contract matches the rest of ``obs/``: detached costs one
``is None`` test per actual rate change; attached costs one frozenset
membership test per (watched candidate) port per change, and nothing at
all for flows that never touch a watched port beyond that test.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

__all__ = ["PortUsageRecorder"]


class PortUsageRecorder:
    """Breakpoint series of background used rate on a watched port set.

    The series for each port starts with an implicit ``(0.0, 0.0)``
    breakpoint (an empty cluster carries nothing) and is stepwise
    constant between breakpoints -- exactly the fluid model's semantics,
    so resampling is exact, not an approximation.
    """

    def __init__(self, ports: Iterable[int]):
        """Watch ``ports`` (an iterable of topology port ids)."""
        self.ports = frozenset(ports)
        self._used: Dict[int, float] = {p: 0.0 for p in self.ports}
        #: port id -> [(time, used_rate), ...], time non-decreasing with
        #: at most one entry per distinct time.
        self.series: Dict[int, List[Tuple[float, float]]] = {
            p: [(0.0, 0.0)] for p in self.ports}

    def record(self, links: Tuple[int, ...], old: float, new: float,
               now: float) -> None:
        """Fold one flow rate change (``old`` -> ``new``) into every
        watched port along ``links``."""
        delta = new - old
        if delta == 0.0:
            return
        used = self._used
        series = self.series
        for port_id in links:
            if port_id not in used:
                continue
            value = used[port_id] + delta
            # Float slop on the way down can leave a tiny negative sum;
            # clamp so residual factors never exceed 1.
            if value < 0.0:
                value = 0.0
            used[port_id] = value
            entries = series[port_id]
            if entries[-1][0] == now:
                entries[-1] = (now, value)
            else:
                entries.append((now, value))

    def used_at(self, port_id: int, when: float) -> float:
        """Background used rate on ``port_id`` at time ``when`` (the last
        breakpoint at or before ``when``; 0 before the first)."""
        value = 0.0
        for time, used in self.series[port_id]:
            if time > when:
                break
            value = used
        return value

    def window(self, port_id: int, start: float,
               end: float) -> List[Tuple[float, float]]:
        """Breakpoints covering ``[start, end)``, re-based to ``start``.

        The first entry is always at relative time 0.0 (the level
        prevailing at ``start``); later entries are the in-window
        breakpoints shifted by ``-start``.
        """
        out: List[Tuple[float, float]] = [(0.0, self.used_at(port_id,
                                                             start))]
        for time, used in self.series[port_id]:
            if time <= start:
                continue
            if time >= end:
                break
            out.append((time - start, used))
        return out
