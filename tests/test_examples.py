"""The examples run end to end and print what their docstrings promise."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_example(name: str) -> str:
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_quickstart_prints_the_paper_examples():
    lines = run_example("quickstart.py").splitlines()
    example_1 = [
        "  E: (1, 5/6)  successor D",
        "  D: (1, 4/5)  successor C",
        "  C: (1, 3/4)  successor B",
        "  B: (1, 2/3)  successor A",
        "  A: (1, 1/2)  successor T",
        "  T: (1, 0/1)",
    ]
    example_2 = [
        "  B: (1, 2/3) -> (1, 3/5)  [line12]",
        "  F: (1, 2/3) -> (1, 5/8)  [line12]",
        "  G: (1, 2/3) -> (1, 2/3)  [line10]",
        "  H: (1, 3/4) -> (1, 3/4)  [line10]",
    ]
    start = lines.index(example_1[0])
    assert lines[start : start + 6] == example_1
    start = lines.index(example_2[0])
    assert lines[start : start + 4] == example_2


def test_route_repair_crashes_cost_deliveries_but_no_srp_reset():
    rows = {}
    for line in run_example("route_repair_after_failures.py").splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0] in ("SRP", "LDR", "AODV"):
            rows[fields[0]] = [float(value) for value in fields[1:]]
    assert sorted(rows) == ["AODV", "LDR", "SRP"]
    # Five relays go down, so no protocol delivers everything.
    assert all(delivery < 1.0 for delivery, *_ in rows.values())
    assert rows["SRP"][3] == 0.0
    assert rows["AODV"][3] > 0.0
