"""The host fingerprint stamped on every record.

Two records are only comparable when they were taken on the same kind of
machine with the same interpreter, so ``--compare`` checks ``cpu_model``,
``host_cpus`` and ``python`` before it looks at a single number.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from typing import Any, Dict

from catalogue import ROOT
from proc import run_process

#: A run started above this share of the CPUs busy is stamped ``noisy``.
NOISY_LOAD_SHARE = 0.5


def _git(*args: str) -> str:
    """A git query's output, or ``""`` outside a repository or without git."""
    try:
        code, output, _ = run_process(["git", "-C", str(ROOT), *args], timeout=20)
    except OSError:
        return ""
    return output.strip() if code == 0 else ""


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (the stores' directory)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text(encoding="utf-8").splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


def loadavg_1m() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def fingerprint(*, tmp: Path, passes: int, seed: int) -> Dict[str, Any]:
    """Everything known at the start of a run; the caller adds
    ``loadavg_1m_end`` when it finishes."""
    cpus = os.cpu_count() or 1
    load = loadavg_1m()
    commit = _git("rev-parse", "--short", "HEAD")
    return {
        "commit": commit or "unknown",
        "dirty": bool(_git("status", "--porcelain")) if commit else None,
        "python": platform.python_version(),
        "host_cpus": cpus,
        "cpu_model": _cpu_model(),
        "loadavg_1m_start": load,
        "noisy": load > NOISY_LOAD_SHARE * cpus,
        "tmp_fs": fs_type(tmp),
        "passes": passes,
        "seed": seed,
    }
