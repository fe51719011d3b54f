"""Scenario and named-sweep registries.

A *scenario* is a plain function ``fn(..., seed, artifact_dir=None)``
that runs one cell of a sweep and returns its result as JSON (dicts,
lists, strings, booleans, ``None`` and finite numbers).  Scenarios
register under a string name so a
:class:`~repro.campaign.spec.SweepSpec` -- itself plain JSON -- can
reference them, and so spawned worker processes can resolve them after
importing the spec's declared modules.  Its signature, with what
``@scenario`` adds, declares its parameters
(:mod:`repro.campaign.params`); :func:`check_cell` holds a cell to it.

Named sweeps work the same way for whole specs: the benchmark grids
(``mechanism-compare``, ``fig15``, ``fig16``, ``table1``,
``failure-recovery``) register factory functions, and both
``python -m repro campaign --name`` and the benchmarks fetch the *same*
spec object, so there is exactly one definition of each grid and its
seeds.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

from repro.campaign.params import Declaration, Group, Param, UnknownName
from repro.campaign.spec import Cell, SweepSpec

__all__ = ["scenario", "get_scenario", "declaration", "check_cell",
           "sweep", "get_sweep", "list_sweeps", "import_scenario_modules"]

_SCENARIOS: Dict[str, Callable[..., Any]] = {}
_DECLARATIONS: Dict[str, Declaration] = {}
_SWEEPS: Dict[str, Callable[[], SweepSpec]] = {}


def _same_definition(a: Callable[..., Any], b: Callable[..., Any]) -> bool:
    """Whether two callables are one source definition imported twice.

    A scenario script runs under several module names -- ``__main__``
    for the user, ``__mp_main__`` in spawn workers, and a private name
    when the runner imports it by path -- and each execution produces a
    fresh function object.  Same file plus same qualified name means
    they are all the same definition, not a conflict.
    """
    try:
        return (a.__qualname__ == b.__qualname__
                and a.__code__.co_filename == b.__code__.co_filename)
    except AttributeError:
        return False


def scenario(name: str, *groups: Group, **params: Param
             ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Class of decorators registering a cell function under ``name``.

    The function's signature declares its parameters; ``groups`` and
    ``params`` add what a signature cannot hold (see
    :mod:`repro.campaign.params`), which :func:`check_cell` enforces.
    """
    def register(fn: Callable[..., Any]) -> Callable[..., Any]:
        existing = _SCENARIOS.get(name)
        if (existing is not None and existing is not fn
                and not _same_definition(existing, fn)):
            raise ValueError(f"scenario {name!r} is already registered "
                             f"by {existing.__module__}")
        if _SCENARIOS.setdefault(name, fn) is fn:
            _DECLARATIONS[name] = Declaration(name, fn, groups, params)
        return fn
    return register


def get_scenario(name: str) -> Callable[..., Any]:
    """Resolve a registered scenario function by name."""
    fn = _SCENARIOS.get(name) if isinstance(name, str) else None
    if fn is None:
        known = ", ".join(sorted(_SCENARIOS)) or "(none imported)"
        raise UnknownName(f"unknown scenario {name!r}; registered: "
                          f"{known}")
    return fn


def declaration(name: str) -> Declaration:
    """The registered scenario's parameter declaration."""
    get_scenario(name)  # an unknown name's UnknownName
    return _DECLARATIONS[name]


def check_cell(cell: Cell) -> None:
    """Raise :class:`~repro.campaign.params.ParamError` (a
    ``ValueError``) unless ``cell``'s parameters pass its scenario's
    declaration: the one input check every campaign cell passes."""
    declaration(cell.scenario).check(dict(cell.params), cell.seed)


def sweep(name: str) -> Callable[[Callable[[], SweepSpec]],
                                 Callable[[], SweepSpec]]:
    """Decorator registering a named sweep-spec factory."""
    def register(fn: Callable[[], SweepSpec]) -> Callable[[], SweepSpec]:
        existing = _SWEEPS.get(name)
        if existing is not None and existing is not fn:
            raise ValueError(f"sweep {name!r} is already registered")
        _SWEEPS[name] = fn
        return fn
    return register


def get_sweep(name: str) -> SweepSpec:
    """Build the named sweep's spec (a fresh object each call)."""
    import repro.campaign.scenarios  # noqa: F401  (registers built-ins)
    try:
        factory = _SWEEPS[name]
    except KeyError:
        raise UnknownName(f"unknown sweep {name!r}; known: "
                          f"{', '.join(list_sweeps())}") from None
    return factory()


def list_sweeps() -> List[str]:
    """Names of every registered sweep, sorted."""
    import repro.campaign.scenarios  # noqa: F401
    return sorted(_SWEEPS)


def import_scenario_modules(modules: Sequence[str],
                            module_paths: Sequence[str] = ()) -> None:
    """Import the modules a spec declares, registering their scenarios.

    ``modules`` are dotted names; ``module_paths`` are files imported
    under a name derived from their stem (so example scripts can define
    scenarios that spawned workers resolve).  Importing twice is a
    no-op.
    """
    for name in modules:
        importlib.import_module(name)
    for path in module_paths:
        resolved = Path(path).resolve()
        mod_name = f"_campaign_module_{resolved.stem}"
        if mod_name in sys.modules:
            continue
        spec = importlib.util.spec_from_file_location(mod_name,
                                                      str(resolved))
        if spec is None or spec.loader is None:
            raise ImportError(f"cannot import scenario module {path}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[mod_name] = module
        spec.loader.exec_module(module)
