"""The CLI's option surface is pinned, and every command CI runs parses.

``SURFACE`` is every subcommand's settable options — flags, default,
``choices``, ``nargs``, ``required`` — so a refactor of ``build_parser``
adds, drops and renames nothing unnoticed.  Types are not pinned: a range
check may tighten without changing a default.  ``live --protocols`` offers
only the soak-capable protocols (``Oracle`` needs the simulator's global
topology).

The second half extracts every ``python -m repro.experiments …`` and
``repro-experiments …`` command from ``.github/workflows/ci.yml`` and the
``Examples::`` block of the CLI's docstring and parses each one, so a
renamed flag fails here rather than in the nightly job.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from repro.experiments import __main__ as cli
from repro.experiments.__main__ import build_parser

REPO = Path(__file__).resolve().parents[2]

PROTOCOLS = ("SRP", "LDR", "AODV", "DSR", "OLSR", "LSR", "Oracle")
LIVE = ("SRP", "LDR", "AODV", "DSR", "OLSR", "LSR")
SCALES = ("smoke", "benchmark", "paper-tier", "paper")
FAULTS = ("churn-partition", "blackout-burst")
EXPERIMENTS = ("all", "table1", "fig3", "fig4", "fig5", "fig6", "fig7")

#: subcommand -> option -> (default, choices, nargs, required).
SURFACE = {
    "run": {
        "--faults": (None, FAULTS, None, False),
        "--jobs": (1, None, None, False),
        "--out": (None, None, None, False),
        "--protocols": (None, PROTOCOLS, "+", False),
        "--quiet": (False, None, 0, False),
        "--retries": (1, None, None, False),
        "--retry-backoff": (0.5, None, None, False),
        "--scale": ("smoke", SCALES, None, False),
        "--trial-timeout": (None, None, None, False),
        "--trials": (None, None, None, False),
    },
    "resume": {
        "--jobs": (1, None, None, False),
        "--out": (None, None, None, True),
        "--quiet": (False, None, 0, False),
        "--retries": (1, None, None, False),
        "--retry-backoff": (0.5, None, None, False),
        "--trial-timeout": (None, None, None, False),
    },
    "worker": {
        "--faults": (None, FAULTS, None, False),
        "--jobs": (1, None, None, False),
        "--lease-ttl": (60.0, None, None, False),
        "--poll-interval": (1.0, None, None, False),
        "--protocols": (None, PROTOCOLS, "+", False),
        "--quiet": (False, None, 0, False),
        "--retries": (1, None, None, False),
        "--retry-backoff": (0.5, None, None, False),
        "--scale": (None, SCALES, None, False),
        "--store": (None, None, None, True),
        "--trial-timeout": (None, None, None, False),
        "--trials": (None, None, None, False),
        "--worker-id": (None, None, None, False),
    },
    "status": {
        "--json": (None, None, None, False),
        "--lease-ttl": (60.0, None, None, False),
        "--out": (None, None, None, True),
    },
    "report": {
        "--experiment": ("all", EXPERIMENTS, None, False),
        "--out": (None, None, None, True),
    },
    "gate": {
        "--json": (None, None, None, False),
        "--list": (False, None, 0, False),
        "--out": (None, None, None, False),
        "--registry": ("paper", ("paper", "faults", "live"), None, False),
        "--scale": (None, SCALES, None, False),
        "--strict": (False, None, 0, False),
        "--union": (None, None, "+", False),
        "--verbose": (False, None, 0, False),
    },
    "live": {
        "--dedup-window": (30.0, None, None, False),
        "--delivery-floor": (0.75, None, None, False),
        "--duration": (40.0, None, None, False),
        "--flows": (3, None, None, False),
        "--json": (None, None, None, False),
        "--max-ttl": (16, None, None, False),
        "--out": (None, None, None, False),
        "--protocols": (None, LIVE, "+", False),
        "--rate": (4.0, None, None, False),
        "--routers": (5, None, None, False),
        "--seed": (1, None, None, False),
        "--strict": (False, None, 0, False),
        "--time-scale": (1.0, None, None, False),
        "--topology": ("line", ("line", "ring", "grid", "random"), None, False),
        "--transport": ("loopback", ("loopback", "udp"), None, False),
        "--warmup": (12.0, None, None, False),
    },
    "profile": {
        "--alloc": (False, None, 0, False),
        "--faults": (None, FAULTS, None, False),
        "--json": (None, None, None, False),
        "--pause": (None, None, None, False),
        "--protocol": (None, PROTOCOLS, "+", False),
        "--scale": ("smoke", SCALES, None, False),
    },
    "merge": {
        "--out": (None, None, None, True),
        "stores": (None, None, "+", True),
    },
    "trajectory": {
        "--experiment": ("all", EXPERIMENTS, None, False),
        "--json": (None, None, None, False),
        "stores": (None, None, "+", True),
    },
}


def _subparsers():
    parser = build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _surface(subparser):
    surface = {}
    for action in subparser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        key = ",".join(action.option_strings) or action.dest
        choices = None if action.choices is None else tuple(action.choices)
        surface[key] = (action.default, choices, action.nargs, action.required)
    return surface


class TestOptionSurface:
    def test_subcommands_are_the_pinned_ten(self):
        assert sorted(_subparsers()) == sorted(SURFACE)

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_options_match_the_pinned_table(self, command):
        assert _surface(_subparsers()[command]) == SURFACE[command]

    def test_sixty_nine_settable_options(self):
        assert sum(len(options) for options in SURFACE.values()) == 69


#: What the workflow's shell loop assigns to the variables its commands use.
SHELL_VALUES = {"$w": "w1", "$jobs": "2"}
_COMMAND = re.compile(
    r"^\s*(?:run:\s*)?(?:python -m repro\.experiments|repro-experiments)\s+(.*)$",
    re.M,
)
_SHELL_OPERATORS = {"|", "||", "&", "&&", ";"}


def _commands(text):
    """Every CLI invocation in ``text``: backslash continuations joined, the
    argv cut at the first shell operator, no shell expansion."""
    commands = []
    for match in _COMMAND.finditer(re.sub(r"\\\n\s*", " ", text)):
        argv = []
        for token in shlex.split(match.group(1)):
            if token in _SHELL_OPERATORS:
                break
            argv.append(SHELL_VALUES.get(token, token))
        commands.append(argv)
    return commands


CI_COMMANDS = _commands((REPO / ".github/workflows/ci.yml").read_text(encoding="utf-8"))
DOC_COMMANDS = _commands(cli.__doc__.split("Examples::")[1].split("\n\n(")[0])


class TestDocumentedCommandsParse:
    def test_extraction_finds_the_commands(self):
        assert len(CI_COMMANDS) >= 20
        assert len(DOC_COMMANDS) >= 10
        seen = {argv[0] for argv in CI_COMMANDS + DOC_COMMANDS}
        assert {"run", "resume", "worker", "status", "gate", "live"} <= seen

    @pytest.mark.parametrize(
        "argv", CI_COMMANDS + DOC_COMMANDS, ids=lambda argv: " ".join(argv)
    )
    def test_command_parses(self, argv):
        assert not [t for t in argv if t.startswith("$")], "unexpanded variable"
        try:
            build_parser().parse_args(argv)
        except SystemExit as exited:
            pytest.fail(f"`{' '.join(argv)}` does not parse (exit {exited.code})")
