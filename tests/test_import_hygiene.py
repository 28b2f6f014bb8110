"""Import hygiene: the runtime seam, and a standard-library-only runtime.

``repro.protocols`` and ``repro.runtime`` are the runtime-agnostic side of
the seam: the same code runs under the discrete-event simulator and as live
asyncio daemons, so it must not import simulator machinery.  Three
``repro.sim`` modules are explicitly *allowed* because they are pure data
models shared by both runtimes:

* ``repro.sim.packet`` — the Packet/Frame wire model,
* ``repro.sim.stats``  — trial statistics and summaries,
* ``repro.sim.rng``    — deterministic seed-derived RNG streams.

Everything else under ``repro.sim`` (engine, node, mac, channel, network,
mobility, spatial index, event queues, faults, tuning, ...) is sim-only: an
import of it from the runtime-agnostic side is a seam leak, caught here by
walking the AST of every module rather than by convention.  This is the
enforcement half of the rule that node/protocol statistics paths read time
only through the runtime ``clock`` accessor.

A third rule keeps ``repro.core`` to the one label algebra SRP runs: every
module there imports only the standard library and ``repro.core``, and is
reached from ``repro.protocols.srp``'s imports, so a second, unshipped
implementation cannot grow back beside it.

A fourth keeps route state behind the protocols' two route queries
(``next_hop`` and ``successors``): outside ``repro/protocols`` and
``tests/protocols``, no code reads a protocol's route tables by attribute.

The last part keeps the runtime cheap to start.  A sweep is many short
processes (CLI steps, pool workers, fleet workers) and each pays the package
import, so ``src/repro`` imports nothing outside the standard library — scipy
and networkx are test oracles, numpy is unused.  Held three ways: an AST rule over
every import statement, the CLI pipeline under ``python -S`` (no site-packages
at all), and ``sys.modules`` after the library has done real work in an
interpreter that *could* have imported them.
"""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: The third-party packages the runtime used to load (and CI still installs).
HEAVY = ("numpy", "scipy", "networkx")

#: Packages whose modules must stay runnable under any Runtime.
RUNTIME_AGNOSTIC_PACKAGES = ("protocols", "runtime")

#: repro.sim submodules that are runtime-agnostic data models.
ALLOWED_SIM_MODULES = {"packet", "stats", "rng"}


def _absolute_module(node: ast.ImportFrom, package_parts) -> str:
    """Resolve a possibly-relative ``from X import Y`` to an absolute module."""
    if node.level == 0:
        return node.module or ""
    base = package_parts[: len(package_parts) - (node.level - 1)]
    if node.module:
        return ".".join(list(base) + [node.module])
    return ".".join(base)


def _sim_imports(path: Path):
    """Every repro.sim submodule imported at the top level of ``path``."""
    relative = path.relative_to(SRC.parent).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts.pop()
    package_parts = parts[:-1] if path.name != "__init__.py" else parts

    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                if name.startswith("repro.sim"):
                    found.append((name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            module = _absolute_module(node, package_parts)
            if module == "repro.sim":
                for alias in node.names:
                    found.append((f"repro.sim.{alias.name}", node.lineno))
            elif module.startswith("repro.sim."):
                found.append((module, node.lineno))
    return found


def test_runtime_agnostic_code_imports_no_simulator_machinery():
    violations = []
    for package in RUNTIME_AGNOSTIC_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            for module, lineno in _sim_imports(path):
                submodule = module.split(".")[2] if module.count(".") >= 2 else ""
                if submodule not in ALLOWED_SIM_MODULES:
                    violations.append(
                        f"{path.relative_to(SRC.parent)}:{lineno} imports "
                        f"{module} (sim-only; allowed: "
                        f"{sorted(ALLOWED_SIM_MODULES)})"
                    )
    assert not violations, "runtime seam leaks:\n" + "\n".join(violations)


def test_the_checker_sees_the_legitimate_imports():
    # Self-test: the walker must actually find imports, or a refactor that
    # breaks its resolution logic would green-light everything.
    found = [
        module
        for path in sorted((SRC / "runtime").rglob("*.py"))
        for module, _ in _sim_imports(path)
    ]
    assert "repro.sim.packet" in found
    assert "repro.sim.stats" in found


def test_sim_node_reads_time_through_the_clock_accessor():
    # The statistics paths in the sim Node must go through ``self.clock.now``
    # (the Runtime seam), never ``self.simulator.now`` — the live node has no
    # simulator at all, and the seam's bit-identity rests on both runtimes
    # sharing one time accessor.
    source = (SRC / "sim" / "node.py").read_text(encoding="utf-8")
    assert "self.simulator.now" not in source
    assert "self.clock.now" in source


# -- repro.core is what SRP runs --------------------------------------------------


def _module_imports(path: Path, root: Path):
    """Absolute module names ``path`` imports, at any depth.

    ``from M import n`` yields both ``M`` and ``M.n``: ``n`` may be a
    submodule.  ``root`` is the directory that holds the ``repro`` package.
    """
    parts = list(path.relative_to(root).with_suffix("").parts)
    package_parts = parts[:-1]
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = _absolute_module(node, package_parts)
            found.append(module)
            found.extend(f"{module}.{alias.name}" for alias in node.names)
    return found


def _core_violations(root: Path):
    """Every way ``root/repro/core`` strays from the algebra SRP imports."""
    paths = {
        ".".join(path.relative_to(root).with_suffix("").parts): path
        for path in sorted((root / "repro" / "core").glob("*.py"))
    }
    violations = [
        f"{name.removesuffix('.__init__')} imports {imported}"
        for name, path in paths.items()
        for imported in _module_imports(path, root)
        if imported.split(".")[0] not in sys.stdlib_module_names
        and imported.split(".")[:2] != ["repro", "core"]
    ]
    pending = [
        imported
        for path in sorted((root / "repro" / "protocols" / "srp").glob("*.py"))
        for imported in _module_imports(path, root)
    ]
    reached = set()
    while pending:
        imported = pending.pop()
        if imported in paths and imported not in reached:
            reached.add(imported)
            pending.extend(_module_imports(paths[imported], root))
    violations.extend(
        f"{name} is not reached from repro.protocols.srp"
        for name in paths
        if name not in reached and not name.endswith(".__init__")
    )
    return violations


def test_core_is_the_label_algebra_srp_imports():
    assert _core_violations(SRC.parent) == []


@pytest.mark.parametrize(
    "package", ["core", "experiments", "metrics", "runtime", "sim", "workloads"]
)
def test_packages_re_export_nothing(package):
    """A package ``__init__`` is its docstring only: callers import from the
    submodule that defines a name.  (``repro.protocols`` is the registry.)"""
    init = ast.parse((SRC / package / "__init__.py").read_text(encoding="utf-8"))
    assert [type(node) for node in init.body] == [ast.Expr]


def test_the_core_checker_sees_a_planted_module(tmp_path):
    for package in ("core", "protocols/srp"):
        shutil.copytree(SRC / package, tmp_path / "repro" / package)
    (tmp_path / "repro" / "core" / "orphan.py").write_text(
        "import json\nfrom ..sim import stats\nfrom .ordering import Ordering\n",
        encoding="utf-8",
    )
    assert _core_violations(tmp_path) == [
        "repro.core.orphan imports repro.sim",
        "repro.core.orphan imports repro.sim.stats",
        "repro.core.orphan is not reached from repro.protocols.srp",
    ]


# -- route state is read through the route queries ----------------------------------

#: The protocols' route-state attributes: AODV/LDR ``routes``, SRP ``table``,
#: OLSR/LSR ``routing_table`` and ``lsdb``, DSR ``route_cache``.
ROUTE_STATE = {"routes", "table", "routing_table", "route_cache", "lsdb"}


def _route_state_reads(repo: Path):
    """Every ``.routes``-style attribute read under ``repo`` outside the two
    directories allowed to see protocol internals."""
    allowed = (repo / "src" / "repro" / "protocols", repo / "tests" / "protocols")
    found = []
    for top in ("src", "tests", "examples"):
        for path in sorted((repo / top).rglob("*.py")):
            if any(path.is_relative_to(directory) for directory in allowed):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr in ROUTE_STATE:
                    found.append(f"{path.relative_to(repo)}:{node.lineno} .{node.attr}")
    return found


def test_route_state_is_read_only_through_next_hop_and_successors():
    assert _route_state_reads(REPO) == []


def test_the_route_state_checker_sees_a_planted_read(tmp_path):
    planted = {
        "src/repro/sim/peek.py": "def peek(node):\n    return node.protocol.routes\n",
        "tests/integration/test_peek.py": "t = net.protocol(0).routing_table\n",
        "examples/peek.py": "print(p.table.lookup(3), p.lsdb, p.route_cache)\n",
        "src/repro/protocols/own.py": "x = self.routes\n",
        "tests/protocols/test_own.py": "x = protocol.table\n",
    }
    for name, text in planted.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert sorted(_route_state_reads(tmp_path)) == [
        "examples/peek.py:1 .lsdb",
        "examples/peek.py:1 .route_cache",
        "examples/peek.py:1 .table",
        "src/repro/sim/peek.py:2 .routes",
        "tests/integration/test_peek.py:1 .routing_table",
    ]


# -- standard library only ---------------------------------------------------------


def _foreign_imports(path: Path):
    """(module, line) of every absolute import in ``path`` — at any depth, so a
    lazy import inside a function counts — that is neither stdlib nor repro."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            root = name.split(".")[0]
            if root != "repro" and root not in sys.stdlib_module_names:
                found.append((name, node.lineno))
    return found


def test_the_package_imports_only_the_standard_library():
    violations = [
        f"{path.relative_to(SRC.parent)}:{lineno} imports {module}"
        for path in sorted(SRC.rglob("*.py"))
        for module, lineno in _foreign_imports(path)
    ]
    assert not violations, (
        "third-party imports in the shipped runtime (keep them in tests/):\n"
        + "\n".join(violations)
    )


def test_the_foreign_import_checker_sees_third_party_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os, json\nfrom . import sibling\nfrom repro.sim import stats\n"
        "import networkx as nx\n"
        "def lazy():\n    from scipy import stats\n    return stats\n",
        encoding="utf-8",
    )
    assert _foreign_imports(probe) == [("networkx", 4), ("scipy", 6)]


def _python(*args, site_packages, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    flags = [] if site_packages else ["-S"]
    return subprocess.run(
        [sys.executable, *flags, *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_cli_pipeline_runs_without_site_packages(tmp_path):
    # run -> gate -> report with site-packages disabled: a third-party import
    # on any path those steps reach is a ModuleNotFoundError here.
    steps = (
        ("run", "--scale", "smoke", "--out", "store", "--quiet"),
        ("gate", "--scale", "smoke", "--out", "store"),
        ("report", "--out", "store"),
    )
    outputs = {}
    for step in steps:
        done = _python(
            "-m", "repro.experiments", *step, site_packages=False, cwd=tmp_path
        )
        assert done.returncode == 0, f"{step[0]} failed:\n{done.stdout}{done.stderr}"
        outputs[step[0]] = done.stdout
    assert "18 invariants: 18 passed, 0 failed" in outputs["gate"]
    assert "Table I" in outputs["report"] and "±" in outputs["report"]


def test_library_work_loads_no_heavy_package(tmp_path):
    # With site-packages *enabled* a lazy import would succeed silently, so
    # look at what got loaded: a smoke sweep of all five protocols, the gate
    # and Table I (which takes the t quantile), in one interpreter.
    script = (
        "import sys\n"
        "from repro.experiments.executor import execute_jobs\n"
        "from repro.experiments.gate import evaluate_gate\n"
        "from repro.experiments.jobs import plan_sweep\n"
        "from repro.experiments.paper import (\n"
        "    PAPER_PROTOCOLS, EvaluationScale, table1_text)\n"
        "from repro.experiments.runner import collect_sweep\n"
        "scale = EvaluationScale.smoke()\n"
        "shape = dict(pause_times=scale.pause_times, trials=scale.trials)\n"
        "jobs = plan_sweep(scale.scenario, PAPER_PROTOCOLS, **shape)\n"
        "results = collect_sweep(\n"
        "    execute_jobs(jobs), protocols=PAPER_PROTOCOLS, **shape)\n"
        "assert sorted({cell[0] for cell in results.summaries})"
        " == sorted(PAPER_PROTOCOLS)\n"
        "report = evaluate_gate(results, scale=scale.name)\n"
        "assert '±' in table1_text(results)\n"
        f"heavy = sorted(m for m in sys.modules if m.split('.')[0] in {HEAVY!r})\n"
        "print(len(report.passed), len(report.failed), heavy)\n"
    )
    done = _python("-c", script, site_packages=True, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "18 0 []"
