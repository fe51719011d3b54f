"""Per-hop queueing surrogate for what-if tail-latency estimation.

Silo's admission control answers *yes/no* from worst-case network
calculus, but an operator planning capacity wants the latency
*distribution* a proposed placement would actually see -- and packet
simulation at that fidelity takes minutes per candidate.  Following the
per-hop decomposition approach of "Scalable Tail Latency Estimation for
Data Center Networks" (see PAPERS.md), this module predicts a class-A
tenant's message-latency distribution in milliseconds of compute:

1. **Calibrate** (:func:`fit_whatif_model`): harvest per-port
   queue-depth samples from a traced packet campaign's ``queues.csv``
   (restricted to ports on the calibration tenants' incast paths), turn
   each depth into the M/D/1-style waiting time ``depth / line_rate``,
   and pool them per port *kind* (``nic-up``, ``tor-down``, ...).  An
   affine quantile correction (offset + spread scale) is then fit
   against the observed message latencies in ``latency.csv``, absorbing
   everything the depth samples cannot see (epoch phasing, pacer
   serialization, within-bucket variance).
2. **Estimate** (:meth:`WhatIfModel.estimate`): for a proposed
   placement, enumerate each sender's directed port path
   (:func:`repro.placement.paths.incast_paths`), scale every hop's
   empirical delay samples by the what-if's burst term -- incast-shared
   down-facing ports grow linearly with ``senders x message_bytes``,
   sender-private up-facing ports with ``message_bytes`` alone --
   compose the hops by discrete convolution on a fixed time grid, mix
   across senders, and read p50/p95/p99/p999 off the resulting CDF.
3. **Anchor**: every estimate is clamped by the worst-case
   network-calculus bound for the same placement (token-bucket hose
   arrival through the concatenated store-and-forward hops, via
   :func:`repro.netcalc.concat.end_to_end_delay_bound`, and the paper's
   ``{B, S, d, Bmax}`` message bound when the tenant holds a delay
   guarantee) so the surrogate can never promise more than the math.

The fitted model is a small JSON document (``to_dict``/``from_dict``)
meant to be committed next to the calibration campaign, so CI and the
README example can score what-ifs without re-simulating anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import units
from repro.analysis.stats import percentile
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import Placement
from repro.netcalc.arrival import token_bucket
from repro.netcalc.concat import end_to_end_delay_bound
from repro.netcalc.service import store_and_forward
from repro.obs.traces import TraceArtifacts, port_kind_of
from repro.placement.paths import IncastPaths, incast_paths
from repro.topology.tree import TreeTopology

__all__ = [
    "REPORT_QUANTILES", "HopSamples", "WhatIfEstimate", "WhatIfModel",
    "fit_whatif_model", "quantile_label",
]

#: The quantiles an estimate reports, matching the evaluation tables.
REPORT_QUANTILES = (50.0, 95.0, 99.0, 99.9)

#: Quantiles the affine correction is fit over -- a denser ladder than
#: the report set so the least-squares slope sees the body *and* tail.
_FIT_QUANTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Port kinds whose queue carries the *aggregated* incast toward the
#: receiver; their burst term scales with ``senders x message_bytes``.
#: Every other kind is crossed by a single sender's traffic and scales
#: with the message size alone.
_DOWN_KINDS = frozenset({"tor-down", "agg-down", "core-down"})

#: Key under which the model keeps the all-kinds sample pool, used as a
#: fallback when a what-if path crosses a kind the calibration topology
#: never exercised (e.g. core ports after a single-pod calibration).
_POOLED_KIND = "*"

#: Default convolution grid (seconds).  2 us resolves the NIC drain of
#: a single MTU at 1 Gbps (12 us) without inflating the model file.
_DEFAULT_GRID = 2.0 * units.MICROS

#: Hard ceiling on any single hop-delay sample (seconds); a sample past
#: this is clipped rather than allocating an absurd convolution grid.
_HORIZON = 0.1

#: Guard rails on the fitted spread scale: a degenerate calibration
#: (e.g. two nearly identical quantile points) must not explode or
#: collapse the predicted distribution.
_MIN_SCALE = 0.1
_MAX_SCALE = 10.0

#: Within-bucket sample weighting: a ``queues.csv`` bucket only keeps
#: (min, mean, max) of the depths observed during its interval, so each
#: bucket contributes three delay points with these weight fractions.
_BUCKET_WEIGHTS = ((lambda b: b.vmin, 0.25), (lambda b: b.mean, 0.5),
                   (lambda b: b.vmax, 0.25))


def quantile_label(q: float) -> str:
    """The conventional short label for a quantile: 99.9 -> ``p999``."""
    text = f"{q:g}".replace(".", "")
    return f"p{text}"


@dataclass
class HopSamples:
    """Weighted empirical queue-delay samples for one port kind.

    ``delays`` are seconds a packet arriving at a random instant would
    wait behind the sampled queue depth; ``weights`` are the sample
    counts backing each point (time-proportional, since the simulator
    samples depths on a fixed interval).
    """

    delays: List[float]
    weights: List[float]

    def __post_init__(self) -> None:
        if len(self.delays) != len(self.weights):
            raise ValueError("need one weight per delay sample")

    @property
    def total_weight(self) -> float:
        """Sum of the sample weights."""
        return sum(self.weights)


@dataclass(frozen=True)
class WhatIfEstimate:
    """The surrogate's answer for one proposed placement.

    All times are seconds; ``quantiles`` maps q in [0, 100] to the
    estimated message latency, already clamped to the worst-case
    ``bound`` and floored at the contention-free ``base``.
    """

    quantiles: Dict[float, float]
    bound: float
    base: float
    n_senders: int
    message_bytes: float

    def to_dict(self) -> Dict[str, float]:
        """JSON-friendly summary with latencies in microseconds."""
        out: Dict[str, float] = {
            f"{quantile_label(q)}_us": units.to_usec(v)
            for q, v in sorted(self.quantiles.items())
        }
        out["bound_us"] = units.to_usec(self.bound)
        out["base_us"] = units.to_usec(self.base)
        out["n_senders"] = self.n_senders
        out["message_bytes"] = self.message_bytes
        return out


@dataclass
class WhatIfModel:
    """A calibrated per-hop surrogate, queryable in microseconds of CPU.

    Attributes:
        hop_samples: port kind -> weighted queue-delay samples harvested
            from the calibration trace (plus the ``*`` pooled fallback).
        cal_senders: senders per class-A tenant in the calibration
            scenario; the reference point of the incast burst term.
        cal_message_bytes: the calibration scenario's message size.
        offset: additive quantile correction (seconds) from the fit.
        scale: multiplicative spread correction from the fit.
        grid: convolution resolution in seconds.
        meta: free-form provenance (scenario parameters, sample counts).
    """

    hop_samples: Dict[str, HopSamples]
    cal_senders: int
    cal_message_bytes: float
    offset: float = 0.0
    scale: float = 1.0
    grid: float = _DEFAULT_GRID
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cal_senders < 1:
            raise ValueError("calibration needs at least one sender")
        if self.cal_message_bytes <= 0:
            raise ValueError("calibration message size must be positive")
        if self.grid <= 0:
            raise ValueError("convolution grid must be positive")

    # -- composition ---------------------------------------------------------

    def _kind_pmf(self, kind: str, ratio: float) -> np.ndarray:
        """Probability mass of one hop's queue delay on the time grid.

        ``ratio`` is the what-if burst term: sampled delays are scaled
        linearly before binning.  Unseen kinds fall back to the pooled
        sample set; a kind with no samples at all contributes a
        zero-delay hop.
        """
        samples = self.hop_samples.get(kind)
        if samples is None or not samples.delays:
            samples = self.hop_samples.get(_POOLED_KIND)
        if samples is None or not samples.delays:
            return np.ones(1)
        scaled = [min(d * ratio, _HORIZON) for d in samples.delays]
        n_bins = int(round(max(scaled) / self.grid)) + 1
        pmf = np.zeros(n_bins)
        for delay, weight in zip(scaled, samples.weights):
            pmf[int(round(delay / self.grid))] += weight
        total = pmf.sum()
        if total <= 0:
            return np.ones(1)
        return pmf / total

    def _path_pmf(self, kinds: Sequence[str], ratio_up: float,
                  ratio_down: float) -> np.ndarray:
        """Convolve the per-hop delay pmfs along one sender's path."""
        pmf = np.ones(1)
        for kind in kinds:
            ratio = ratio_down if kind in _DOWN_KINDS else ratio_up
            pmf = np.convolve(pmf, self._kind_pmf(kind, ratio))
        return pmf

    def _raw_quantiles(self,
                       profiles: Sequence[Tuple[Tuple[str, ...], float]],
                       ratio_up: float, ratio_down: float,
                       quantiles: Sequence[float]) -> Dict[float, float]:
        """Quantiles of the mixture latency distribution over senders.

        ``profiles`` holds one ``(hop kinds, base latency)`` entry per
        sender; every sender emits the same number of messages, so the
        tenant-level latency distribution is their uniform mixture.
        """
        if not profiles:
            raise ValueError("need at least one sender profile")
        path_cache: Dict[Tuple[str, ...], np.ndarray] = {}
        parts: List[Tuple[int, np.ndarray]] = []
        for kinds, base in profiles:
            if kinds not in path_cache:
                path_cache[kinds] = self._path_pmf(kinds, ratio_up,
                                                   ratio_down)
            pmf = path_cache[kinds]
            parts.append((int(round(base / self.grid)), pmf))
        length = max(shift + len(pmf) for shift, pmf in parts)
        mix = np.zeros(length)
        for shift, pmf in parts:
            mix[shift:shift + len(pmf)] += pmf
        mix /= mix.sum()
        cdf = np.cumsum(mix)
        out: Dict[float, float] = {}
        for q in quantiles:
            idx = int(np.searchsorted(cdf, q / 100.0, side="left"))
            out[q] = min(idx, length - 1) * self.grid
        return out

    def _profiles(self, paths: IncastPaths, guarantee: NetworkGuarantee,
                  message_bytes: float
                  ) -> List[Tuple[Tuple[str, ...], float]]:
        """One (hop kinds, contention-free base latency) per sender."""
        return _model_profiles(paths, guarantee, message_bytes)

    # -- queries -------------------------------------------------------------

    def estimate(self, topology: TreeTopology, placement: Placement,
                 message_bytes: Optional[float] = None
                 ) -> WhatIfEstimate:
        """Score one proposed all-to-one placement.

        Args:
            topology: the tree the placement's servers index into.
            placement: the candidate placement (its request must carry
                a guarantee -- best-effort tenants have no burst model).
            message_bytes: per-epoch message size; defaults to the
                calibration scenario's size.

        Returns:
            Estimated latency quantiles, clamped to the worst-case
            bound for the same placement.
        """
        guarantee = placement.request.guarantee
        if guarantee is None:
            raise ValueError("what-if estimates need a guarantee")
        if message_bytes is None:
            message_bytes = self.cal_message_bytes
        if message_bytes <= 0:
            raise ValueError("message size must be positive")
        paths = incast_paths(topology, placement)
        n_senders = len(paths.senders)
        if n_senders == 0:
            raise ValueError("what-if needs at least one sender VM")
        ratio_up = message_bytes / self.cal_message_bytes
        ratio_down = (n_senders * message_bytes) / (
            self.cal_senders * self.cal_message_bytes)
        profiles = self._profiles(paths, guarantee, message_bytes)
        raw = self._raw_quantiles(profiles, ratio_up, ratio_down,
                                  REPORT_QUANTILES)
        raw_p50 = raw[50.0]
        base = min(b for _, b in profiles)
        bound = self.worst_case_bound(paths, guarantee, message_bytes)
        calibrated: Dict[float, float] = {}
        floor = base
        for q in sorted(raw):
            value = raw_p50 + self.offset + self.scale * (raw[q] - raw_p50)
            value = min(max(value, floor), bound)
            calibrated[q] = value
            floor = value  # quantiles must be monotone in q
        return WhatIfEstimate(quantiles=calibrated, bound=bound,
                              base=base, n_senders=n_senders,
                              message_bytes=message_bytes)

    def worst_case_bound(self, paths: IncastPaths,
                         guarantee: NetworkGuarantee,
                         message_bytes: float) -> float:
        """Network-calculus ceiling for the estimate (seconds).

        The aggregate incast at the receiver is hose-limited: the
        receiving guarantee caps the sustained rate at ``B`` while each
        of the ``N`` senders may contribute its burst ``S``, so the
        arrival is the token bucket ``(B, N*S)``.  Concatenating the
        longest sender path's store-and-forward servers gives the
        pay-bursts-once queueing bound; serialization at ``Bmax`` and
        the hypervisor hops are added on top.  When the tenant holds a
        delay guarantee the paper's ``{B, S, d, Bmax}`` message bound
        (which Silo's admission enforces) tightens the ceiling.
        """
        n_senders = max(1, len(paths.senders))
        longest: Tuple[object, ...] = ()
        for sender in paths.senders:
            if len(sender.ports) > len(longest):
                longest = sender.ports
        queueing = 0.0
        if longest:
            arrival = token_bucket(guarantee.bandwidth,
                                   n_senders * guarantee.burst)
            services = [store_and_forward(port.capacity)
                        for port in longest]
            queueing = end_to_end_delay_bound(arrival, services)
        bound = (message_bytes / guarantee.effective_peak_rate
                 + queueing + 2 * _vswitch_delay())
        if guarantee.wants_delay:
            bound = min(bound,
                        guarantee.message_latency_bound(message_bytes))
        return bound

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (delays stored in microseconds)."""
        return {
            "format": 1,
            "grid_us": units.to_usec(self.grid),
            "cal_senders": self.cal_senders,
            "cal_message_bytes": self.cal_message_bytes,
            "offset_us": units.to_usec(self.offset),
            "scale": self.scale,
            "hop_samples": {
                kind: {"delays_us": [units.to_usec(d)
                                     for d in samples.delays],
                       "weights": list(samples.weights)}
                for kind, samples in sorted(self.hop_samples.items())
            },
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WhatIfModel":
        """Inverse of :meth:`to_dict`; validates the format tag."""
        if data.get("format") != 1:
            raise ValueError(
                f"unsupported what-if model format {data.get('format')!r}")
        hop_samples = {
            kind: HopSamples(
                delays=[units.usec(d) for d in entry["delays_us"]],
                weights=list(entry["weights"]))
            for kind, entry in data["hop_samples"].items()
        }
        return cls(hop_samples=hop_samples,
                   cal_senders=int(data["cal_senders"]),
                   cal_message_bytes=float(data["cal_message_bytes"]),
                   offset=units.usec(float(data["offset_us"])),
                   scale=float(data["scale"]),
                   grid=units.usec(float(data["grid_us"])),
                   meta=dict(data.get("meta", {})))

    def save(self, path: Union[str, Path]) -> None:
        """Write the model as pretty-printed JSON."""
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        Path(path).write_text(text + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "WhatIfModel":
        """Read a model written by :meth:`save`; anything but a JSON
        object is a ``ValueError``."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"a what-if model is a JSON object, not "
                             f"{type(data).__name__}")
        return cls.from_dict(data)


def _vswitch_delay() -> float:
    """The simulator's hypervisor vswitch hop delay (seconds).

    Imported lazily: :mod:`repro.phynet` itself imports from
    :mod:`repro.analysis`, so a module-level import here would be
    circular.
    """
    from repro.phynet.network import VSWITCH_DELAY
    return VSWITCH_DELAY


def _base_latency(guarantee: NetworkGuarantee, message_bytes: float,
                  ports: Sequence) -> float:
    """Contention-free latency of one message along one sender path.

    Serialization of the whole message at the burst rate ``Bmax``, plus
    one store-and-forward MTU per switch hop, plus the sending and
    receiving hypervisor vswitch hops.
    """
    base = (message_bytes / guarantee.effective_peak_rate
            + 2 * _vswitch_delay())
    for port in ports:
        base += units.MTU / port.capacity
    return base


def _quantize_samples(points: Iterable[Tuple[float, float]],
                      grid: float) -> HopSamples:
    """Merge (delay, weight) points onto the grid to keep models small."""
    binned: Dict[int, float] = {}
    for delay, weight in points:
        if weight <= 0:
            continue
        key = int(round(min(delay, _HORIZON) / grid))
        binned[key] = binned.get(key, 0.0) + weight
    keys = sorted(binned)
    return HopSamples(delays=[k * grid for k in keys],
                      weights=[binned[k] for k in keys])


def fit_whatif_model(topology: TreeTopology,
                     placements: Sequence[Placement],
                     guarantee: NetworkGuarantee,
                     message_bytes: float,
                     artifacts: Sequence[TraceArtifacts],
                     meta: Optional[Dict[str, object]] = None
                     ) -> "WhatIfModel":
    """Calibrate a :class:`WhatIfModel` from traced packet campaigns.

    Args:
        topology: the tree the calibration trace ran on.
        placements: the class-A placements that generated the trace
            (re-derivable by replaying admission, which is
            deterministic); only ports on their incast paths contribute
            samples, so idle ports cannot dilute the tail.
        guarantee: the class-A guarantee of the calibration tenants.
        message_bytes: the calibration scenario's epoch message size;
            also selects the class-A rows of ``latency.csv`` (bulk
            traffic uses a different chunk size).
        artifacts: one or more traced runs (``latency.csv`` +
            ``queues.csv`` pairs, e.g. from
            :func:`repro.obs.traces.find_trace_artifacts`).
        meta: provenance to embed in the model.

    Returns:
        The fitted model, affine-corrected against the observed
        calibration latencies when enough messages are available.
    """
    if not placements:
        raise ValueError("calibration needs at least one placement")
    if not artifacts:
        raise ValueError("calibration needs at least one trace")
    port_caps = {port.name: port.capacity for port in topology.ports}
    profiles: List[Tuple[Tuple[str, ...], float]] = []
    path_port_names = set()
    cal_senders = 0
    for placement in placements:
        paths = incast_paths(topology, placement)
        cal_senders = max(cal_senders, len(paths.senders))
        profiles.extend(_model_profiles(paths, guarantee, message_bytes))
        for sender in paths.senders:
            path_port_names.update(port.name for port in sender.ports)
    if cal_senders == 0:
        raise ValueError("calibration placements have no senders")

    kind_points: Dict[str, List[Tuple[float, float]]] = {}
    observed: List[float] = []
    for artifact in artifacts:
        for port_name, buckets in artifact.queues().items():
            if port_name not in path_port_names:
                continue
            capacity = port_caps.get(port_name)
            if capacity is None:
                continue
            points = kind_points.setdefault(port_kind_of(port_name), [])
            for bucket in buckets:
                if bucket.count <= 0:
                    continue
                for depth_of, fraction in _BUCKET_WEIGHTS:
                    points.append((depth_of(bucket) / capacity,
                                   fraction * bucket.count))
        observed.extend(record.latency
                        for record in artifact.latencies()
                        if record.size == message_bytes)

    hop_samples = {kind: _quantize_samples(points, _DEFAULT_GRID)
                   for kind, points in kind_points.items()}
    pooled = [point for points in kind_points.values()
              for point in points]
    if pooled:
        hop_samples[_POOLED_KIND] = _quantize_samples(pooled, _DEFAULT_GRID)
    model = WhatIfModel(hop_samples=hop_samples, cal_senders=cal_senders,
                        cal_message_bytes=message_bytes,
                        meta=dict(meta or {}))
    model.meta.setdefault("calibration_messages", len(observed))
    if len(observed) >= len(_FIT_QUANTILES):
        _fit_affine(model, profiles, observed)
    return model


def _model_profiles(paths: IncastPaths, guarantee: NetworkGuarantee,
                    message_bytes: float
                    ) -> List[Tuple[Tuple[str, ...], float]]:
    """Sender profiles for a placement (module-level fit helper)."""
    return [
        (tuple(port.kind.value for port in sender.ports),
         _base_latency(guarantee, message_bytes, sender.ports))
        for sender in paths.senders
    ]


def _fit_affine(model: WhatIfModel,
                profiles: Sequence[Tuple[Tuple[str, ...], float]],
                observed: Sequence[float]) -> None:
    """Least-squares fit of the offset/scale quantile correction.

    Regresses the observed calibration quantiles on the raw predicted
    quantiles (centred at the raw median), so at query time
    ``est(q) = raw_p50 + offset + scale * (raw(q) - raw_p50)``.
    """
    raw = model._raw_quantiles(profiles, 1.0, 1.0, _FIT_QUANTILES)
    raw_p50 = raw[50.0]
    xs = np.array([raw[q] - raw_p50 for q in _FIT_QUANTILES])
    ys = np.array([percentile(observed, q) for q in _FIT_QUANTILES])
    spread = float(np.dot(xs - xs.mean(), xs - xs.mean()))
    if spread > 0:
        slope = float(np.dot(xs - xs.mean(), ys - ys.mean())) / spread
    else:
        slope = 1.0
    slope = min(max(slope, _MIN_SCALE), _MAX_SCALE)
    intercept = float(ys.mean()) - slope * float(xs.mean())
    model.scale = slope
    model.offset = intercept - raw_p50
