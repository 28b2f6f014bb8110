"""Which functions in ``src/repro`` a run calls: a stdlib reachability collector.

There is no coverage tool in this project's toolchain, so this records the
code object of every Python call through a global ``sys.settrace`` /
``threading.settrace`` hook that returns ``None`` (no line events).  It is
not ``sys.setprofile``: ``cProfile`` replaces that hook, and both the
``profile`` subcommand and its tests enable ``cProfile``.  Child processes
are seen too: a generated ``sitecustomize`` on ``PYTHONPATH`` starts the
hook in every interpreter that starts, and each process writes what it
reached when it exits, through ``atexit`` or, in a forked pool worker or
UDP router, ``os._exit``.  Code objects map to the ``def`` they came from
by ``(file, co_firstlineno, co_name)``; a decorated function's first line
is its first decorator's.

Two passes.  Tier-1, as a pytest plugin (about twice the plain run's time)::

    PYTHONPATH=src python -m pytest -q -p tests.reach --reach-out tier1.json

The shipped paths, as one command: every CLI command ``ci.yml`` runs
(``tests/experiments/test_cli_surface.py::CI_COMMANDS``, less the nightly
paper-tier sweep), ``merge`` and ``trajectory`` over the stores they leave,
the two examples tier-1 runs and the benchmark suite's self-check::

    PYTHONPATH=src python -m tests.reach --tier1 tier1.json

It prints one row per ``def`` in ``src/repro`` the shipped paths do not
reach: its size, whether tier-1 reaches it, whether it is an interface
stub, and which of ``benchmarks/suite``, ``examples`` and ``ci.yml``'s
inline Python name it (a static caller the trace may not see).
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: The shipped commands' stores, as ``merge``/``trajectory`` read them (the
#: ``Examples::`` commands name placeholder stores).
MERGE = ["merge", "--out", "merged-store", "serial-store", "shared-store"]
TRAJECTORY = ["trajectory", "smoke-store", "serial-store", "--experiment", "fig3"]


# -- the hook -------------------------------------------------------------------------


class Collector:
    """The set of code objects called since :meth:`start`."""

    def __init__(self) -> None:
        self.codes: set = set()
        self._previous = None

    def _trace(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)
        return None

    def start(self) -> None:
        self._previous = sys.gettrace()
        sys.settrace(self._trace)
        threading.settrace(self._trace)

    def stop(self) -> None:
        """Restore the hook that was there before (a tier-1 pass's own)."""
        sys.settrace(self._previous)
        threading.settrace(self._previous)

    def keys(self, prefix: str) -> set:
        """``"file:first_line:name"`` for every reached code under ``prefix``."""
        return {
            f"{os.path.abspath(c.co_filename)}:{c.co_firstlineno}:{c.co_name}"
            for c in list(self.codes)
            if os.path.abspath(c.co_filename).startswith(prefix)
        }


def start_in_child(out_dir: str, prefix: str) -> Collector:
    """Trace this process and write its reach to ``out_dir`` when it exits.

    Called from the generated ``sitecustomize``, and by the pytest plugin for
    its own process.  A forked child inherits the hook, the set and this
    wrapper, and leaves through ``os._exit`` (no ``atexit``), so that is
    wrapped too; each flush writes a new file, so a fork writes its own.
    """
    collector = Collector()
    collector.start()

    def flush() -> None:
        fd, path = tempfile.mkstemp(suffix=".json", dir=out_dir)
        with os.fdopen(fd, "w") as out:
            json.dump(sorted(collector.keys(prefix)), out)

    exit_ = os._exit

    def _exit(code):
        flush()
        exit_(code)

    def detach() -> None:
        """Stop tracing and flushing (the plugin writes its own file)."""
        collector.stop()
        atexit.unregister(flush)
        os._exit = exit_

    os._exit = _exit
    atexit.register(flush)
    collector.detach = detach
    return collector


def child_path(out_dir: str, prefix: str) -> str:
    """A directory holding a ``sitecustomize`` that calls :func:`start_in_child`."""
    site = Path(out_dir) / "site"
    site.mkdir(parents=True, exist_ok=True)
    (site / "sitecustomize.py").write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT)!r})\n"
        "from tests.reach import start_in_child\n"
        f"sys.path.remove({str(ROOT)!r})\n"
        f"start_in_child({out_dir!r}, {prefix!r})\n"
    )
    return str(site)


def read_children(out_dir: str) -> set:
    reached = set()
    for path in Path(out_dir).glob("*.json"):
        reached.update(json.loads(path.read_text()))
    return reached


# -- the defs -------------------------------------------------------------------------


@dataclass(frozen=True)
class Def:
    key: str  # "file:first_line:name", as Collector.keys spells a code object
    path: str  # relative to the repository root
    qualname: str
    lines: int
    stub: bool


def _is_stub(node) -> bool:
    """Abstract, or a body of only a docstring, ``...``, ``pass`` or a raise of
    ``NotImplementedError``: an interface, not an implementation."""
    if any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in node.decorator_list
    ):
        return True
    for statement in node.body:
        if isinstance(statement, ast.Pass):
            continue
        expression = isinstance(statement, ast.Expr)
        if expression and isinstance(statement.value, ast.Constant):
            continue  # docstring or ...
        raises = isinstance(statement, ast.Raise)
        if raises and "NotImplementedError" in ast.unparse(statement):
            continue
        return False
    return True


def defs(root: Path = SRC) -> dict:
    """Every ``def`` (methods and nested ones too) under ``root``, by key."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        absolute = os.path.abspath(path)

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    key = f"{absolute}:{first}:{child.name}"
                    found[key] = Def(
                        key=key,
                        path=os.path.relpath(absolute, ROOT),
                        qualname=".".join(scope + [child.name]),
                        lines=child.end_lineno - first + 1,
                        stub=_is_stub(child),
                    )
                    visit(child, scope + [child.name])
                elif isinstance(child, ast.ClassDef):
                    visit(child, scope + [child.name])
                else:
                    visit(child, scope)

        visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def unreached(reached: set, root: Path = SRC) -> list:
    """The defs under ``root`` whose key is not in ``reached``."""
    return [d for key, d in defs(root).items() if key not in reached]


# -- static callers -------------------------------------------------------------------


def _names(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def static_callers() -> dict:
    """Identifier -> the places outside ``src/`` and ``tests/`` that name it:
    ``benchmarks/suite``, ``examples`` and the Python ``ci.yml`` runs inline."""
    sources = {
        "suite": [p.read_text() for p in (ROOT / "benchmarks" / "suite").glob("*.py")],
        "examples": [p.read_text() for p in (ROOT / "examples").glob("*.py")],
        "ci.yml": [
            re.sub(r"(?m)^ {10}", "", block)
            for block in re.findall(
                r"<<'EOF'\n(.*?)\n\s*EOF",
                (ROOT / ".github" / "workflows" / "ci.yml").read_text(),
                re.S,
            )
        ],
    }
    callers: dict = {}
    for where, texts in sources.items():
        for text in texts:
            for name in _names(text):
                callers.setdefault(name, set()).add(where)
    return callers


# -- the shipped pass -----------------------------------------------------------------


def shipped_commands() -> list:
    """argv lists, run in order in one work directory."""
    sys.path.insert(0, str(ROOT))
    from tests.experiments.test_cli_surface import CI_COMMANDS

    cli = [sys.executable, "-m", "repro.experiments"]
    commands = [
        cli + argv
        for argv in CI_COMMANDS
        if not any(arg.startswith("paper") for arg in argv)  # nightly job
    ]
    commands += [cli + MERGE, cli + TRAJECTORY]
    commands += [
        [sys.executable, str(ROOT / "examples" / "quickstart.py")],
        [sys.executable, str(ROOT / "examples" / "route_repair_after_failures.py")],
        [sys.executable, str(ROOT / "benchmarks" / "suite" / "run.py"), "--selfcheck"],
    ]
    return commands


def run_shipped(out_dir: str) -> set:
    """Run :func:`shipped_commands` traced; the reached keys under ``src/repro``."""
    work = Path(out_dir) / "work"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [child_path(out_dir, str(SRC)), str(ROOT / "src")]
    )
    for argv in shipped_commands():
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        print(f"exit {done.returncode}: {' '.join(argv[1:])}", file=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-2000:])
    return read_children(out_dir)


def inventory(shipped: set, tier1: set | None) -> list:
    """One row per def the shipped paths miss."""
    callers = static_callers()
    rows = []
    for d in unreached(shipped):
        named = sorted(callers.get(d.qualname.rsplit(".", 1)[-1], ()))
        rows.append(
            {
                "def": f"{d.path}::{d.qualname}",
                "lines": d.lines,
                "tier1": None if tier1 is None else d.key in tier1,
                "stub": d.stub,
                "named_by": named,
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier1", help="the --reach-out file of a tier-1 pass")
    parser.add_argument("--out", help="also write the rows as JSON here")
    args = parser.parse_args(argv)
    tier1 = None
    if args.tier1:
        tier1 = set(json.loads(Path(args.tier1).read_text()))
    out_dir = tempfile.mkdtemp(prefix="reach-")
    try:
        rows = inventory(run_shipped(out_dir), tier1)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for row in rows:
        reach = {None: "?", True: "tier-1", False: "none"}[row["tier1"]]
        flags = ("stub " if row["stub"] else "") + ",".join(row["named_by"])
        print(f"{row['lines']:4d}  {reach:6s}  {row['def']}  {flags}".rstrip())
    print(
        f"{len(rows)} defs ({sum(r['lines'] for r in rows)} lines) "
        "the shipped paths do not reach"
    )
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=1))
    return 0


# -- the tier-1 pass (pytest plugin) --------------------------------------------------


def pytest_addoption(parser):
    parser.addoption(
        "--reach-out",
        help="write the src/repro functions this session reaches (tests.reach)",
    )


_session: dict = {}


def pytest_configure(config):
    out = config.getoption("--reach-out")
    if not out:
        return
    children = tempfile.mkdtemp(prefix="reach-")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [child_path(children, str(SRC))]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    collector = start_in_child(children, str(SRC))
    _session.update(out=out, children=children, collector=collector)


def pytest_unconfigure(config):
    if not _session:
        return
    collector = _session.pop("collector")
    collector.detach()
    reached = collector.keys(str(SRC)) | read_children(_session["children"])
    shutil.rmtree(_session.pop("children"), ignore_errors=True)
    Path(_session.pop("out")).write_text(json.dumps(sorted(reached)))


if __name__ == "__main__":
    sys.exit(main())
