"""``__all__`` lint: every exported name exists.

Finds each module under ``src/repro/`` that assigns a literal
``__all__`` (with :mod:`ast`, like ``test_lint_docstrings.py``), imports
it, and demands that every listed name is an attribute of the module --
a stale entry makes ``from module import *`` raise ``AttributeError``.
"""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


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
