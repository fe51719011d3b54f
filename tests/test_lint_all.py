"""Package-surface lints: ``__all__`` entries exist, oracles stay outside.

Finds each module under ``src/repro/`` that assigns a literal
``__all__`` (with :mod:`ast`, like ``test_lint_docstrings.py``), imports
it, and demands that every listed name is an attribute of the module --
a stale entry makes ``from module import *`` raise ``AttributeError``.

The second half guards the package boundary: the seed implementations
the differential tests compare against live in ``tests/oracles/``, and
nothing under ``src/repro`` may import them, the test tree, the
paper-claims suite or the perf harness (a shipped package that needs
its tests to import is two implementations again).

The last check keeps prose honest: a benchmark, test, doc or campaign
path that the documentation, CI or a source comment names must exist.
"""

import ast
import importlib
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
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


#: A path under the benchmarks, tests, docs or campaigns directory, a
#: top-level BENCH_ result file, or a bare ``bench_`` module name.
_PATH_MENTION = re.compile(
    r"(?<![\w/.-])(?:(?:benchmarks|tests|docs|campaigns)/[\w./-]+"
    r"|BENCH_\w+\.json|bench_\w+(?:\.py)?)")


def iter_dangling_mentions():
    """``file:line: path`` for every named repo path that does not exist.

    Scans the living documentation (README, DESIGN, EXPERIMENTS,
    ``docs/``, the verify skill), ``pytest.ini``, the CI workflow and the
    Python under ``src/repro``, ``tests`` and ``benchmarks``; CHANGES,
    ISSUE, ROADMAP and PAPER* are history and may name what is gone, and
    ``perf/`` is the benchmark's own tree.  A mention that runs into ``*``
    or ``{`` is a glob and needs one match.
    """
    sources = [REPO / name for name in (
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "pytest.ini",
        ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml")]
    sources += sorted((REPO / "docs").glob("*.md"))
    for tree in ("src/repro", "tests", "benchmarks"):
        sources += sorted((REPO / tree).rglob("*.py"))
    for source in sources:
        text = source.read_text(encoding="utf-8")
        for match in _PATH_MENTION.finditer(text):
            mention = match.group().rstrip(".")
            is_glob = text.startswith(("*", "{"), match.end())
            if mention.startswith("bench_"):
                mention = f"benchmarks/{mention}"
                if not is_glob and not mention.endswith(".py"):
                    mention += ".py"
            path = REPO / mention
            found = (any(path.parent.glob(path.name + "*")) if is_glob
                     else path.exists())
            if not found:
                line = text.count("\n", 0, match.start()) + 1
                yield f"{source.relative_to(REPO)}:{line}: {match.group()}"


def test_every_path_the_docs_name_exists():
    """No README, doc, CI step, docstring or comment points at a file
    that is gone."""
    dangling = list(iter_dangling_mentions())
    assert not dangling, "dangling references:\n" + "\n".join(dangling)
