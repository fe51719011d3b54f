"""Declared scenario parameters, and the one check a cell's values pass.

A scenario's signature says each parameter's name, JSON type (its
annotation) and default.  ``@scenario(name, *groups, **params)`` adds
what a signature cannot hold: :class:`Param` bounds, choices, a
predicate, help and a flag spelling, and :class:`Group` s of parameters
that several scenarios and commands share (the topology, the
guarantee), declared once by the signature of the function that builds
them.  :meth:`Declaration.check` raises :class:`ParamError`, a
``ValueError`` naming the parameter; ``run_campaign`` runs it on every
cell before it writes anything, and the CLI builds the sweep-backed
commands' flags from the same declarations.
"""

from __future__ import annotations

import functools
import inspect
import math
import operator
import typing
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

__all__ = ["Param", "Group", "Declaration", "ParamError", "check_values",
           "flag_type"]

#: The default of a parameter whose signature gives none.
REQUIRED = inspect.Parameter.empty

_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
            "<=": operator.le}
_NAMES = {int: "an integer", float: "a number", str: "a string",
          bool: "true or false", type(None): "null"}


class ParamError(ValueError):
    """A value its declaration rejects: ``<subject> <value!r>:
    <reason>``, the subject being the flag (``--occupancy``), a group
    (``topology``, the value its flags) or ``parameter`` for an unknown
    or missing name.  The CLI prints it after ``error: bad``."""

    def __init__(self, subject: str, value: Any, reason: str) -> None:
        super().__init__(f"{subject} {value!r}: {reason}")


@dataclass(frozen=True)
class Param:
    """What a signature cannot say about one parameter.

    ``bounds`` are ``(op, bound)`` pairs; a string bound names another
    parameter, whose value is the bound.  ``choices`` is a sequence, or
    a function returning one.  ``check(value, values)`` may read the
    other parameters; its ``ValueError``, ``KeyError`` or ``OSError``
    rejects the value.  ``kind`` (the annotation) and ``default`` are
    the signature's.
    """

    bounds: Tuple[Tuple[str, Any], ...] = ()
    choices: Any = None
    check: Optional[Callable[[Any, Mapping[str, Any]], Any]] = None
    help: Optional[str] = None
    flag: Optional[str] = None
    metavar: Optional[str] = None
    kind: Any = None
    default: Any = REQUIRED

    def options(self) -> Optional[Sequence[Any]]:
        """The allowed values, or None when the type is enough."""
        return self.choices() if callable(self.choices) else self.choices


def _signature_params(fn: Callable[..., Any],
                      extras: Mapping[str, Param]) -> Dict[str, Param]:
    """``fn``'s named parameters but the runner's ``seed`` and
    ``artifact_dir``, in signature order: each one's ``extras`` entry
    with the signature's kind and default and its flag spelled out."""
    try:
        hints = typing.get_type_hints(fn)
    except (NameError, TypeError):  # annotations that do not resolve
        hints = {}
    params = {}
    for name, arg in inspect.signature(fn).parameters.items():
        if name not in ("seed", "artifact_dir") and arg.kind not in (
                arg.VAR_POSITIONAL, arg.VAR_KEYWORD):
            extra = extras.get(name, Param())
            params[name] = replace(extra, kind=hints.get(name),
                                   default=arg.default,
                                   flag=extra.flag or name.replace("_", "-"))
    return params


class Group:
    """Parameters declared once, by the signature of ``build`` -- the
    function that makes them one object -- for every scenario and
    command that takes them.  A ``ValueError`` from ``build`` rejects
    them as ``<subject> '--flag value ...': <reason>``."""

    def __init__(self, subject: str, build: Callable[..., Any],
                 **extras: Param) -> None:
        self.subject = subject
        self._build = build
        self._extras = extras

    @functools.cached_property
    def params(self) -> Dict[str, Param]:
        """The group's parameters, resolved on first use."""
        return _signature_params(self._build, self._extras)

    def build(self, values: Mapping[str, Any]) -> Any:
        """``build`` applied to this group's entries of ``values``."""
        return self._build(**{name: values[name] for name in self.params})

    def check(self, values: Mapping[str, Any]) -> None:
        """Raise :class:`ParamError` unless ``values`` build."""
        try:
            self.build(values)
        except ValueError as exc:
            raise ParamError(self.subject, " ".join(
                f"--{param.flag} {values[name]:g}"
                for name, param in self.params.items()
                if values[name] is not None), str(exc)) from None


def _members(kind: Any) -> Tuple[Any, ...]:
    """An annotation's alternatives, each ``Literal`` value apart."""
    origin = typing.get_origin(kind)
    if origin is typing.Union:
        return sum(map(_members, typing.get_args(kind)), ())
    if origin is typing.Literal:
        return tuple(typing.Literal[value] for value in typing.get_args(kind))
    return (kind,)


def _literal(member: Any) -> Optional[Tuple[Any]]:
    """``(value,)`` for a ``Literal[value]`` member, else None."""
    if typing.get_origin(member) is typing.Literal:
        return typing.get_args(member)
    return None


def _accepts(member: Any, value: Any) -> bool:
    """Whether ``value`` is JSON of type ``member``: a bool is no
    number, an int is a float, other annotations go unchecked."""
    literal = _literal(member)
    if literal:
        return type(value) is type(literal[0]) and value == literal[0]
    if member is float:
        return type(value) in (int, float)
    if member in _NAMES:
        return type(value) is member
    return True


def flag_type(kind: Any) -> Callable[[str], Any]:
    """The command-line parser of an annotation: its one type, or, for
    a number that may be a word (``Union[float, Literal["peak"]]``),
    either."""
    members = [m for m in _members(kind) if m is not type(None)]
    words = [_literal(m)[0] for m in members if _literal(m)]
    (base,) = [m for m in members if not _literal(m)]
    if not words:
        return base

    def parse(text: str) -> Any:
        return text if text in words else base(text)
    # What argparse calls the type in "invalid ... value: 'x'".
    parse.__name__ = " or ".join([base.__name__, *map(repr, words)])
    return parse


def _flag(name: str, param: Param) -> str:
    return "--" + (param.flag or name.replace("_", "-"))


def _check_value(name: str, param: Param, value: Any) -> None:
    """One value's type, choices, finiteness and numeric bounds."""
    members = _members(param.kind) if param.kind is not None else ()
    if members and not any(_accepts(m, value) for m in members):
        raise ParamError(_flag(name, param), value, "must be " + " or ".join(
            repr(_literal(m)[0]) if _literal(m) else _NAMES.get(m, str(m))
            for m in members))
    choices = param.options()
    if value is not None and choices and value not in choices:
        raise ParamError(_flag(name, param), value,
                         "must be one of " + ", ".join(map(str, choices)))
    if not isinstance(value, (int, float)):
        return
    if not math.isfinite(value):
        raise ParamError(_flag(name, param), value, "must be finite")
    for op, bound in param.bounds:
        if not isinstance(bound, str) and not _COMPARE[op](value, bound):
            raise ParamError(_flag(name, param), value,
                             f"must be {op} {bound}")


def check_values(params: Mapping[str, Param], groups: Sequence[Group],
                 values: Mapping[str, Any]) -> None:
    """Raise :class:`ParamError` unless the ``params`` entries of
    ``values`` pass, in order: each value's own checks; bounds naming
    another parameter; each group; each parameter's predicate."""
    for name, param in params.items():
        _check_value(name, param, values[name])
    for name, param in params.items():
        value = values[name]
        for op, other in param.bounds:
            if (isinstance(other, str) and isinstance(value, (int, float))
                    and not _COMPARE[op](value, values[other])):
                raise ParamError(_flag(name, param), value, f"must be {op} "
                                 f"{_flag(other, params[other])} "
                                 f"{values[other]:g}")
    for group in groups:
        group.check(values)
    for name, param in params.items():
        if param.check is not None and values[name] is not None:
            try:
                param.check(values[name], values)
            except KeyError as exc:
                raise ParamError(_flag(name, param), values[name],
                                 f"missing key {exc}") from None
            except (OSError, ValueError) as exc:
                raise ParamError(_flag(name, param), values[name],
                                 str(exc)) from None


class Declaration:
    """Scenario ``name``'s parameters: the signature of ``fn``, with the
    ``groups`` and ``extras`` its ``@scenario`` was given."""

    def __init__(self, name: str, fn: Callable[..., Any],
                 groups: Sequence[Group], extras: Mapping[str, Param]
                 ) -> None:
        self.scenario = name
        self.groups = tuple(groups)
        self._fn = fn
        self._extras = extras

    @functools.cached_property
    def params(self) -> Dict[str, Param]:
        """The parameters, resolved on first use (importing a scenario
        module stays as cheap as it was)."""
        return _signature_params(self._fn, {
            **{key: param for group in self.groups
               for key, param in group.params.items()}, **self._extras})

    def check(self, params: Mapping[str, Any], seed: int) -> None:
        """Raise :class:`ParamError` unless a cell's ``params`` (as
        given: defaults are read, not added) name no unknown parameter,
        leave none without a default out, and pass
        :func:`check_values` with ``seed``."""
        for name in params:
            if name not in self.params:
                raise ParamError("parameter", name, f"{self.scenario} "
                                 f"takes no such parameter")
        for name, param in self.params.items():
            if param.default is REQUIRED and name not in params:
                raise ParamError("parameter", name, f"missing; "
                                 f"{self.scenario} has no default for it")
        values = {name: param.default for name, param in self.params.items()}
        check_values(self.params, self.groups,
                     {**values, **params, "seed": seed})
