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

The second half keeps what PR 19 bought.  A sweep is many short processes (CLI
steps, pool workers, fleet workers) and each pays the package import, so
``src/repro`` imports nothing outside the standard library — scipy and
networkx are test oracles, numpy is unused.  Held three ways: an AST rule over
every import statement, the CLI pipeline under ``python -S`` (no site-packages
at all), and ``sys.modules`` after the library has done real work in an
interpreter that *could* have imported them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

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
        "from repro.experiments.gate import evaluate_gate\n"
        "from repro.experiments.paper import (\n"
        "    PAPER_PROTOCOLS, EvaluationScale, run_evaluation, table1_text)\n"
        "scale = EvaluationScale.smoke()\n"
        "results = run_evaluation(scale)\n"
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
