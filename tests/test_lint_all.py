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

The fifth keeps one copy of the hose-cut geometry: only
``topology/tree.py`` walks rack and pod uplinks to say which ports a
tenant's traffic crosses.

The last two keep the tree closed one level down: every defaulted
parameter under ``src/repro`` is set by something a user can run, and
nothing a build, test run or editor leaves behind is tracked.
"""

import ast
import importlib
import re
import subprocess
from pathlib import Path

import pytest

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


# -- options: every defaulted parameter is set by something that ships -------

#: Where a call counts: the package itself and everything a user runs.
OPTION_CALLER_TREES = ("src/repro", "benchmarks", "examples", "perf")

#: Defaulted parameters no shipped call passes, each with the reason it
#: is not (yet) the module constant it defaults to.
OPTIONS_ALLOWED = {
    # The paper's own knobs.
    "placement/base.py:PlacementManager.__init__(min_fault_domains)":
        "section 4.2.3's fault-tolerance constraint",
    "pacer/cpu_model.py:PacerCpuModel.__init__(base_cores)":
        "Fig. 10 calibration weight",
    "pacer/cpu_model.py:PacerCpuModel.__init__(data_weight)":
        "Fig. 10 calibration weight",
    "pacer/cpu_model.py:PacerCpuModel.__init__(void_weight)":
        "Fig. 10 calibration weight",
    "pacer/cpu_model.py:PacerCpuModel.__init__(alpha)":
        "Fig. 10 calibration weight",
    "pacer/cpu_model.py:PacerCpuModel.__init__(scale)":
        "Fig. 10 calibration weight",
    "pacer/cpu_model.py:PacerCpuModel.sample_rate_limit(packet_size)":
        "Fig. 10's x-axis is swept at one MTU; tests sweep the frame size",
    "pacer/cpu_model.py:PacerCpuModel.sample_rate_limit(duration)":
        "the averaging window of one Fig. 10 operating point",
    "pacer/cpu_model.py:PacerCpuModel.baseline_no_pacing(packet_size)":
        "same frame-size axis as sample_rate_limit",
    # The paper's L (one maximum-size packet) in the curve arithmetic:
    # shipped callers run at one MTU, the netcalc/pacer unit tests at
    # round numbers that keep the expected values readable.
    "netcalc/arrival.py:dual_rate(packet_size)": "the paper's L, Fig. 6a",
    "netcalc/service.py:store_and_forward(packet_size)": "the paper's L",
    "pacer/hierarchy.py:PacerConfig.from_guarantee(packet_size)":
        "the paper's L, Fig. 8's bottom bucket",
    "pacer/void_packets.py:void_gap_for_rate(packet_size)":
        "the paper's L in section 5's void-gap arithmetic",
    # Seams the test suite drives the shipped code through.
    "cli.py:main(argv)":
        "`python -m repro` reads sys.argv; tests/test_cli.py passes argv",
    "phynet/network.py:PacketNetwork.__init__(sim)":
        "tests inject the seed engine oracle (tests/oracles/seed_engine.py)",
    "phynet/network.py:PacketNetwork.__init__(prop_delay)":
        "per-hop propagation delay of the modelled cabling; ISSUE 24 "
        "keeps it on the constructor",
    "flowsim/sim.py:ClusterSim.__init__(controller)":
        "tests/faults hands in a pre-armed controller to pin its policy",
    "campaign/spec.py:SweepSpec.restrict(seeds)":
        "tests/test_campaign.py shrinks registered sweeps to micro-grids",
    "service/server.py:AdmissionService.submit_admission(deadline)":
        "tests/service orders the queue by explicit deadlines; the load "
        "generator takes the service's timeout",
    "phynet/port.py:OutputPort.__init__(ecn_threshold)":
        "a Mechanism sets it on the ports it builds; tests/phynet build "
        "one bare marking port",
    "phynet/port.py:OutputPort.__init__(phantom_drain)":
        "as ecn_threshold",
    "phynet/port.py:OutputPort.__init__(phantom_threshold)":
        "as ecn_threshold",
    "placement/state.py:PortState.aggregate_curve(extra)":
        "the candidate-probe form admits() inlines; the Curve-built "
        "oracle tests compare the two",
    "placement/state.py:PortState.queue_bound(extra)":
        "as aggregate_curve",
    "placement/state.py:PortState.backlog(extra)": "as aggregate_curve",
    # Observability surface: what a trace consumer may ask for.
    "netcalc/trace.py:conforms(tolerance)":
        "slack for traces with event-granular timestamps (one packet in "
        "tests/netcalc/test_trace.py); `repro pace` needs none",
    "obs/sink.py:RingBufferSink.__init__(capacity)":
        "how many events an untraced run keeps; tests shrink it to force "
        "wrap-around",
    "obs/timeseries.py:TimeSeries.__init__(seed)":
        "reservoir-sampling seed, varied by tests/obs/test_timeseries.py",
    "flowsim/sim.py:ClusterSim.monitor_utilization(reservoir_size)":
        "raw-sample reservoir of the obs TimeSeries; no command asks for "
        "raw samples yet",
    "phynet/network.py:PacketNetwork.monitor_queues(reservoir_size)":
        "as monitor_utilization",
    "pacer/hierarchy.py:VMPacer.__init__(source)":
        "labels this pacer in pacer.stamp events when several are traced",
    "pacer/void_packets.py:VoidScheduler.__init__(source)":
        "labels this NIC in pacer.void events",
    "phynet/oldi.py:PartitionAggregateApp.__init__(transport_class)":
        "the apps' common mechanism seam (Mechanism.transport_class); "
        "examples/web_search_oldi.py runs plain TCP",
}


def _decorator_names(node):
    """The bare names a def is decorated with (``@scenario("x")`` ->
    ``scenario``)."""
    names = set()
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name):
            names.add(decorator.id)
        elif isinstance(decorator, ast.Attribute):
            names.add(decorator.attr)
    return names


def defaulted_parameters(src=SRC):
    """Every defaulted parameter of a module-level function or a method
    of a module-level class under ``src``, as ``(key, callee names,
    parameter, positional index or None, positional capacity or None,
    is a scenario)``.

    A constructor is called by its class's name -- and by the name of
    every subclass that inherits it without overriding ``__init__``.
    """
    trees = {source: ast.parse(source.read_text(encoding="utf-8"))
             for source in sorted(src.rglob("*.py"))}
    classes = [node for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)]
    own_init = {cls.name for cls in classes
                if any(isinstance(n, ast.FunctionDef)
                       and n.name == "__init__" for n in cls.body)}

    def constructed_as(name):
        names, frontier = {name}, [name]
        while frontier:
            base = frontier.pop()
            for cls in classes:
                if (cls.name not in names and cls.name not in own_init
                        and any(isinstance(b, ast.Name) and b.id == base
                                for b in cls.bases)):
                    names.add(cls.name)
                    frontier.append(cls.name)
        return names

    for source, tree in trees.items():
        rel = source.relative_to(src).as_posix()
        scopes = [(None, tree.body)] + [
            (node.name, node.body) for node in tree.body
            if isinstance(node, ast.ClassDef)]
        for cls, body in scopes:
            for node in body:
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                decorators = _decorator_names(node)
                bound = cls is not None and "staticmethod" not in decorators
                positional = (node.args.posonlyargs + node.args.args)[bound:]
                callees = (constructed_as(cls) if node.name == "__init__"
                           else {node.name})
                qualname = f"{cls}.{node.name}" if cls else node.name
                capacity = None if node.args.vararg else len(positional)
                first = len(positional) - len(node.args.defaults)
                params = [(arg.arg, index)
                          for index, arg in enumerate(positional)
                          if index >= first]
                params += [(arg.arg, None) for arg, default
                           in zip(node.args.kwonlyargs,
                                  node.args.kw_defaults)
                           if default is not None]
                for param, index in params:
                    yield (f"{rel}:{qualname}({param})", callees, param,
                           index, capacity, "scenario" in decorators)


def shipped_calls(repo=REPO):
    """``({callee name: [(positional count or None, keywords)]},
    splat keys)`` over every call outside ``tests/``.

    The callee is the call's terminal name (``a.b.f(...)`` -> ``f``); a
    ``*args`` call has no positional count.  A ``**mapping`` argument is
    opaque to the AST (it shows as the keyword ``None``), so the string
    keys of every dict literal, ``dict(...)`` call and ``d["k"] = ...``
    store are collected as the keywords a splat may carry.
    """
    calls, splat_keys = {}, set()
    for tree_name in OPTION_CALLER_TREES:
        for source in sorted((repo / tree_name).rglob("*.py")):
            tree = ast.parse(source.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Dict):
                    splat_keys.update(
                        key.value for key in node.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str))
                elif (isinstance(node, ast.Subscript)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.slice, ast.Constant)
                        and isinstance(node.slice.value, str)):
                    splat_keys.add(node.slice.value)
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None)
                keywords = {keyword.arg for keyword in node.keywords}
                if name == "dict":
                    splat_keys.update(keywords - {None})
                n_positional = (
                    None if any(isinstance(arg, ast.Starred)
                                for arg in node.args) else len(node.args))
                calls.setdefault(name, []).append((n_positional, keywords))
    return calls, splat_keys


def uncalled_options(src=SRC, repo=REPO):
    """Keys of the defaulted parameters no shipped call passes.

    A call passes a parameter by keyword, or by position when it has
    more positional arguments than the parameter's index (and no more
    than the function takes: ``sim.schedule(delay, fn, arg)`` is not a
    call to a two-argument ``schedule``).  A scenario's parameters
    arrive through the campaign runner's ``fn(**params)``, so for
    scenarios -- and any callee that is called with a ``**`` splat --
    a splat key of the parameter's name counts.
    """
    calls, splat_keys = shipped_calls(repo)
    uncalled = []
    for key, callees, param, index, capacity, splatted in (
            defaulted_parameters(src)):
        passed = False
        for callee in callees:
            for n_positional, keywords in calls.get(callee, ()):
                splatted = splatted or None in keywords
                if param in keywords:
                    passed = True
                elif index is None:
                    continue
                elif n_positional is None:
                    passed = True
                elif index < n_positional and (capacity is None
                                               or n_positional <= capacity):
                    passed = True
        if not passed and not (splatted and param in splat_keys):
            uncalled.append(key)
    return uncalled


def test_every_option_has_a_caller():
    """A parameter with a default that nothing shipped ever overrides is
    a constant with extra steps (and one more independently settable
    value to reason about): make it the module constant it defaults to,
    or say in ``OPTIONS_ALLOWED`` why it stays."""
    uncalled = uncalled_options()
    unexpected = [key for key in uncalled if key not in OPTIONS_ALLOWED]
    assert not unexpected, (
        "defaulted parameters no call outside tests/ passes (make them "
        "module constants, or allow-list them with a reason):\n"
        + "\n".join(unexpected))
    stale = sorted(set(OPTIONS_ALLOWED) - set(uncalled))
    assert not stale, f"allow-listed but passed (or gone): {stale}"


#: What building, testing and editing leave behind.
GENERATED = re.compile(r"(^|/)([^/]+\.egg-info|__pycache__|\.hypothesis"
                       r"|\.pytest_cache)(/|$)|\.pyc$")


def test_no_generated_files_are_tracked():
    """``git ls-files`` holds sources, not build or test-run leftovers."""
    if not (REPO / ".git").exists():
        pytest.skip("not a git checkout")
    tracked = subprocess.run(
        ["git", "ls-files"], cwd=REPO, capture_output=True, text=True,
        check=True).stdout.splitlines()
    generated = [path for path in tracked if GENERATED.search(path)]
    assert not generated, (
        "generated files are tracked (git rm --cached them and list the "
        "pattern in .gitignore):\n" + "\n".join(generated))
