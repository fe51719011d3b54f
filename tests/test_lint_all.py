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

The third check keeps prose honest: a benchmark, test, doc or campaign
path that the documentation, CI or a source comment names must exist.

The fourth keeps the package honest: every module under ``src/repro``
is reached, by imports, from something a user can run.

The last keeps one copy of the hose-cut geometry: only
``topology/tree.py`` walks rack and pod uplinks to say which ports a
tenant's traffic crosses.
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


# -- reachability: every shipped module serves something a user can run ----

#: What a user can launch; the walk starts from the files these name.
ENTRY_POINTS = ("src/repro/__main__.py", "src/repro/cli.py",
                "src/repro/campaign/scenarios.py",
                "benchmarks", "examples", "perf")

#: Packages whose ``__init__`` imports its modules so that they
#: *register* themselves: importing one of the lookup names from the
#: package reaches every registrant, not just the module defining the
#: lookup.
REGISTRY_LOOKUPS = {"repro.mechanisms": {"get_mechanism",
                                         "mechanism_names"}}

#: Shipped modules nothing runnable reaches, each with the reason it
#: stays for now.
UNREACHED_ALLOWED = {}


def _module_files():
    """Dotted module name -> source file, for everything under ``SRC``."""
    files = {}
    for source in SRC.rglob("*.py"):
        parts = source.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = source
    return files


def _imports(source, module, is_package):
    """``(target module, imported names or None)`` for every ``repro``
    import in ``source`` (function-local ones included); relative
    imports are resolved against ``module``."""
    tree = ast.parse(source.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                base = module.split(".")
                base = base[:len(base) - node.level + (1 if is_package else 0)]
                target = ".".join(base + ([target] if target else []))
            if target.split(".")[0] == "repro":
                yield target, [alias.name for alias in node.names]


def unreached_modules():
    """Modules under ``src/repro`` that no entry point reaches.

    ``from repro.pkg import Name`` is followed through the package's
    ``__init__`` to the module that defines ``Name``; the re-export in
    the ``__init__`` is not itself a use, so a module that only its own
    package (and its own test) imports counts as unreached.
    """
    files = _module_files()
    packages = {name for name, path in files.items()
                if path.name == "__init__.py"}
    reached, followed = set(), set()

    def reach(module):
        """Mark ``module`` used and follow its imports.  Importing it
        also executes the ``__init__`` of every package above it, which
        is not a use of what those re-export: they are marked, not
        followed."""
        if module not in files:
            return
        parts = module.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        if module not in followed:
            followed.add(module)
            follow(files[module], module)

    def resolve(package, name, seen=()):
        """The module that importing ``name`` from ``package`` uses."""
        if f"{package}.{name}" in files:
            return f"{package}.{name}"
        if (package not in packages or (package, name) in seen
                or name == "*"
                or name in REGISTRY_LOOKUPS.get(package, ())):
            return package
        for target, names in _imports(files[package], package, True):
            if names is not None and name in names:
                return resolve(target, name, seen + ((package, name),))
        return package    # defined in the __init__ itself

    def follow(source, module):
        for target, names in _imports(source, module, module in packages):
            if names is None:
                reach(target)
            else:
                for name in names:
                    reach(resolve(target, name))

    for entry in ENTRY_POINTS:
        path = REPO / entry
        for source in ([path] if path.is_file()
                       else sorted(path.rglob("*.py"))):
            module = next((name for name, file in files.items()
                           if file == source), None)
            if module is not None:
                reach(module)
            else:
                follow(source, "")
    return sorted(set(files) - reached)


def test_every_module_is_reached_from_an_entry_point():
    """Nothing ships that only its own test imports."""
    unreached = unreached_modules()
    unexpected = [m for m in unreached if m not in UNREACHED_ALLOWED]
    assert not unexpected, (
        "modules no command, scenario, benchmark, example or perf "
        "workload reaches (wire them in or delete them with their "
        "tests):\n" + "\n".join(unexpected))
    stale = sorted(set(UNREACHED_ALLOWED) - set(unreached))
    assert not stale, f"allow-listed but reached (or gone): {stale}"


#: The tree accessors that only a walk over rack and pod uplinks needs.
UPLINK_ACCESSORS = {"tor_up", "agg_down", "agg_up", "core_down"}

#: Modules outside ``topology/tree.py`` that may call them, each with
#: the reason it is not a second copy of ``TreeTopology.hose_cuts``.
UPLINK_CALLERS_ALLOWED = {
    "faults/model.py": "FaultTarget.ports answers which ports a failed "
                       "*component* owns, not which ports a tenant's "
                       "hose traffic crosses",
}


def uplink_accessor_callers(src=SRC):
    """Modules under ``src`` (other than the tree itself) that call a
    rack- or pod-uplink accessor, as posix paths relative to ``src``."""
    callers = set()
    for source in sorted(src.rglob("*.py")):
        name = source.relative_to(src).as_posix()
        if name == "topology/tree.py":
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr in UPLINK_ACCESSORS
               for node in ast.walk(tree)):
            callers.add(name)
    return callers


def test_one_hose_cut_walk():
    """Which ports a tenant's traffic crosses, with which ``(m, k)``, is
    ``TreeTopology.hose_cuts``' answer: a module that walks rack and pod
    uplinks itself has re-grown a copy of it."""
    callers = uplink_accessor_callers()
    unexpected = sorted(callers - set(UPLINK_CALLERS_ALLOWED))
    assert not unexpected, (
        "modules walking tor_up/agg_down/agg_up/core_down themselves "
        "(build on TreeTopology.hose_cuts instead):\n"
        + "\n".join(unexpected))
    stale = sorted(set(UPLINK_CALLERS_ALLOWED) - callers)
    assert not stale, f"allow-listed but no longer a caller: {stale}"
