"""Package-surface lints: ``__all__`` entries exist, oracles stay outside.

Finds each module under ``src/repro/`` that assigns a literal
``__all__`` (with :mod:`ast`, like ``test_lint_docstrings.py``), imports
it, and demands that every listed name is an attribute of the module --
a stale entry makes ``from module import *`` raise ``AttributeError``.

The second half guards the package boundary: the seed implementations
the differential tests compare against live in ``tests/oracles/``, and
nothing under ``src/repro`` may import them, the test tree, the bench
scripts or the perf harness (a shipped package that needs its tests to
import is two implementations again).
"""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
ORACLES = Path(__file__).resolve().parent / "oracles"

#: Top-level names the shipped package must never import.
OUTSIDE = {"tests", "benchmarks", "perf",
           *(path.stem for path in ORACLES.glob("*.py"))}
#: Where the seed event loop and fluid simulator used to ship.
MOVED_OUT = ("phynet/engine.py", "flowsim/reference.py")


def iter_stale_all_entries():
    """``module: name`` for every ``__all__`` entry that does not exist."""
    for source in sorted(SRC.rglob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        names = [name for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__"
                         for t in node.targets)
                 for name in ast.literal_eval(node.value)]
        if not names:
            continue
        parts = source.relative_to(SRC.parent).with_suffix("").parts
        module = importlib.import_module(
            ".".join(p for p in parts if p != "__init__"))
        for name in names:
            if not hasattr(module, name):
                yield f"{module.__name__}: {name}"


def test_every_all_entry_resolves():
    """No module under ``src/repro`` exports a name it does not define."""
    stale = list(iter_stale_all_entries())
    assert not stale, "stale __all__ entries:\n" + "\n".join(stale)


def iter_outside_imports():
    """``file:line: module`` for every import that leaves the package."""
    for source in sorted(SRC.rglob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                if module.split(".")[0] in OUTSIDE:
                    yield (f"{source.relative_to(SRC.parent)}:"
                           f"{node.lineno}: {module}")


def test_package_imports_nothing_from_tests_benchmarks_or_perf():
    """``src/repro`` stands alone: no import reaches test-side code."""
    assert {"seed_engine", "seed_flowsim", "seed_maxmin",
            "seed_admission", "seed_shaper"} <= OUTSIDE
    leaks = list(iter_outside_imports())
    assert not leaks, "imports that leave src/repro:\n" + "\n".join(leaks)


def test_seed_oracles_do_not_ship():
    """The moved-out seed modules stay out of the package."""
    present = [name for name in MOVED_OUT if (SRC / name).exists()]
    assert not present, f"oracle modules back under src/repro: {present}"
