"""Declarative sweep specifications: what a campaign runs.

A :class:`SweepSpec` names a registered scenario function and describes
a parameter grid (the cartesian product of its axes) crossed with a
list of seeds.  Enumerating the spec yields :class:`Cell` objects in a
deterministic *commit order* -- grid axes vary in declaration order
with seeds innermost -- and every cell carries a stable ``cell_id``
that digests the scenario, parameters and seed.  That order and those
ids are what make campaign runs reproducible: an N-worker run merges
its cells in spec order, so its merged output is byte-identical to the
serial run, and a resumed run can trust an on-disk checkpoint exactly
when its ``cell_id`` still matches.

Seed policy is part of the spec, not of the scenario: with
``derive_cell_seeds=False`` (the default) every cell of a given seed
axis value receives that seed verbatim (common random numbers across
the grid, the mode the figure sweeps use); with ``True`` each cell's
seed is a stable hash of the base seed and the cell's parameters, so
no two cells share an RNG stream and no scenario needs ad-hoc
per-cell seed arithmetic.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

__all__ = ["Cell", "SweepSpec", "derive_seed"]

#: Mask keeping derived seeds inside the non-negative 31-bit range every
#: stdlib RNG accepts.
_SEED_MASK = 0x7FFFFFFF


def derive_seed(base: int, *parts: Any) -> int:
    """Mix ``base`` and JSON-serializable ``parts`` into a stable seed.

    Uses SHA-256 over a canonical JSON encoding, so the result depends
    only on the values (never on hash randomization, interpreter
    version or platform).
    """
    payload = json.dumps([base, *parts], sort_keys=True,
                         separators=(",", ":"), default=str)
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & _SEED_MASK


@dataclass(frozen=True)
class Cell:
    """One point of a sweep: scenario parameters plus a seed.

    ``index`` is the cell's position in the spec's commit order;
    ``params`` already includes the spec's fixed parameters.
    """

    index: int
    scenario: str
    params: Tuple[Tuple[str, Any], ...]
    seed: int

    @property
    def cell_id(self) -> str:
        """Filesystem-safe stable id: commit index plus content digest.

        The digest covers scenario, parameters and seed, so a checkpoint
        written under this id is valid only for exactly this cell --
        editing the spec invalidates stale checkpoints by construction.
        """
        payload = json.dumps([self.scenario, self.params, self.seed],
                             sort_keys=True, separators=(",", ":"),
                             default=str)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:10]
        return f"{self.index:04d}-{digest}"

    @property
    def kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for the scenario call (without the seed)."""
        return dict(self.params)

    def describe(self) -> str:
        """Human-oriented one-line rendering for progress output."""
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"[{self.index}] {self.scenario}({inner}, seed={self.seed})"


@dataclass
class SweepSpec:
    """A declarative sweep: scenario x parameter grid x seeds.

    ``grid`` maps axis names to value lists; cells enumerate the
    cartesian product in axis declaration order, seeds innermost.
    ``fixed`` parameters are passed unchanged to every cell.
    ``modules`` / ``module_paths`` name modules (dotted or by file
    path) that worker processes import before running cells, so
    scenarios registered outside :mod:`repro.campaign.scenarios` --
    e.g. in an example script -- resolve in spawned workers too.
    """

    name: str
    scenario: str
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seeds: Sequence[int] = (0,)
    fixed: Mapping[str, Any] = field(default_factory=dict)
    derive_cell_seeds: bool = False
    modules: Sequence[str] = ("repro.campaign.scenarios",)
    module_paths: Sequence[str] = ()

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("a sweep needs at least one seed")
        overlap = set(self.grid) & set(self.fixed)
        if overlap:
            raise ValueError(f"parameters both swept and fixed: "
                             f"{sorted(overlap)}")
        for axis, values in self.grid.items():
            if not values:
                raise ValueError(f"grid axis {axis!r} has no values")

    # -- enumeration ---------------------------------------------------------

    def cells(self) -> Iterator[Cell]:
        """Yield every cell in commit order (grid order, seeds innermost)."""
        axes = list(self.grid.items())
        names = [name for name, _ in axes]
        index = 0
        for combo in itertools.product(*(values for _, values in axes)):
            params = tuple(sorted(
                {**dict(self.fixed), **dict(zip(names, combo))}.items()))
            for seed in self.seeds:
                cell_seed = (derive_seed(seed, self.scenario, params)
                             if self.derive_cell_seeds else seed)
                yield Cell(index=index, scenario=self.scenario,
                           params=params, seed=cell_seed)
                index += 1

    def __len__(self) -> int:
        """Total cell count of the sweep."""
        total = len(self.seeds)
        for values in self.grid.values():
            total *= len(values)
        return total

    def restrict(self, seeds: Sequence[int] = None,
                 **axes: Sequence[Any]) -> "SweepSpec":
        """A reduced copy of the spec (micro-grids for CI and --quick).

        Keyword arguments replace grid axes wholesale; ``seeds``
        replaces the seed list.  Unknown axes are an error.
        """
        unknown = set(axes) - set(self.grid)
        if unknown:
            raise ValueError(f"unknown grid axes: {sorted(unknown)}")
        grid = {name: list(axes.get(name, values))
                for name, values in self.grid.items()}
        return SweepSpec(
            name=f"{self.name}-restricted", scenario=self.scenario,
            grid=grid, seeds=tuple(seeds if seeds is not None
                                   else self.seeds),
            fixed=dict(self.fixed),
            derive_cell_seeds=self.derive_cell_seeds,
            modules=tuple(self.modules),
            module_paths=tuple(self.module_paths))

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "scenario": self.scenario,
            "grid": {axis: list(values)
                     for axis, values in self.grid.items()},
            "seeds": list(self.seeds),
            "fixed": dict(self.fixed),
            "derive_cell_seeds": self.derive_cell_seeds,
            "modules": list(self.modules),
            "module_paths": list(self.module_paths),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a spec file).

        Anything but a JSON object naming at least ``name`` and
        ``scenario`` is a ``ValueError`` that says what is wrong.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"a sweep spec is a JSON object, not "
                             f"{type(data).__name__}")
        known = {"name", "scenario", "grid", "seeds", "fixed",
                 "derive_cell_seeds", "modules", "module_paths"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        missing = sorted({"name", "scenario"} - set(data))
        if missing:
            raise ValueError(f"missing spec fields: {missing}")
        kwargs = {key: data[key] for key in known if key in data}
        kwargs["seeds"] = tuple(kwargs.get("seeds", (0,)))
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        """Load a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
