"""Run one subprocess to completion, or kill its whole process group.

Every process the benchmark starts goes through :func:`run_process`, which
always waits for it; on a timeout the process *group* is killed, so a CLI
``run --jobs 2`` cannot leave pool workers behind.
"""

from __future__ import annotations

import os
import signal
import subprocess
from time import perf_counter
from typing import Mapping, Optional, Sequence, Tuple

#: A contract run must exit within 180 s; no single child may take longer.
STEP_TIMEOUT_S = 170.0


def run_process(
    argv: Sequence[str],
    *,
    env: Optional[Mapping[str, str]] = None,
    timeout: float = STEP_TIMEOUT_S,
) -> Tuple[int, str, float]:
    """``(exit code, stdout+stderr, wall seconds)``; exit code -9 on timeout."""
    started = perf_counter()
    process = subprocess.Popen(
        list(argv),
        env=None if env is None else dict(env),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        output, _ = process.communicate()
        output += f"\n[killed after {timeout:g} s]"
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    return process.returncode, output, perf_counter() - started
