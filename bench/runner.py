"""Run CLI commands cold (one fresh interpreter each) or warm (in process),
and pace them against a fixed reference loop.

Cold runs spawn ``python -m aof_lab.cli`` with ``PYTHONPATH=src`` and
``AOF_LAB_THREADS`` removed, through a helper that reaps each child with
``os.wait4`` to read its CPU time and peak RSS.  Warm runs call the click
group in this process with ``standalone_mode=False``, so imports are
already paid.

On a shared machine the speed of a core drifts by up to half for seconds to
minutes at a time, and every program slows with it.  ``reference_s`` times
a fixed loop that does not touch aof_lab, next to each timed command, so a
command's time can be expressed at the reference speed
(``time * REFERENCE_NOMINAL_S / reference``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path


REFERENCE_NOMINAL_S = 0.010   # the reference loop's time at nominal speed (2-CPU reference host)
REFERENCE_ROUNDS = 3


def _reference_round() -> float:
    import numpy as np  # not at module level: the launcher must start small

    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    base = np.arange(1.0, 65.0).reshape(8, 8) / 64.0
    table = base
    for _ in range(1_000):
        table = (table @ base) / table.sum(axis=1, keepdims=True)
    return time.perf_counter() - start


def reference_s() -> float:
    """Median wall time of a few rounds of interpreter work and small-array
    numpy calls, the mix aof_lab's kernels run; the rounds never change, so
    only machine speed moves it."""
    rounds = sorted(_reference_round() for _ in range(REFERENCE_ROUNDS))
    return rounds[len(rounds) // 2]


@dataclass
class ColdResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stderr: str


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("AOF_LAB_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(root / "src")
    return env


class Launcher:
    """Cold runs go through ``launcher.py``, a helper started while this
    process is still small, so each command's peak RSS is its own."""

    def __init__(self, root: Path):
        self.root = root
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launcher.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str], log_dir: Path, python_flags=()) -> ColdResult:
        """Run ``python -m aof_lab.cli <args>`` to completion."""
        log_dir.mkdir(parents=True, exist_ok=True)
        err_log = log_dir / "stderr.log"
        req = {"argv": [sys.executable, *python_flags, "-m", "aof_lab.cli", *args],
               "env": child_env(self.root), "stdout": str(log_dir / "stdout.log"), "stderr": str(err_log)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        res = json.loads(reply)
        return ColdResult(wall_s=res["wall_s"], cpu_s=res["cpu_s"],
                          peak_rss_mb=res["maxrss_kb"] / 1024.0, exit_code=res["exit_code"],
                          stderr=err_log.read_text(encoding="utf-8", errors="replace")[-2000:])

    def close(self) -> None:
        """Stop the helper; it kills a command still running."""
        self.proc.stdin.close()
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


def run_warm(args: list[str]) -> tuple[float, str | None]:
    """Run one command through the already imported click group.  Returns
    the wall time and an error text, or None on success."""
    from aof_lab.cli import main

    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            main.main(args=list(args), prog_name="aof-lab", standalone_mode=False)
    except Exception as exc:  # a failed command is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, error


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")
IMPORT_GROUPS = ("numpy", "scipy", "networkx", "click", "aof_lab")


def import_breakdown(launcher: Launcher, log_dir: Path) -> tuple[dict[str, float], int]:
    """Self import time per top-level package from ``python -X importtime``
    on a cold ``--help``, plus the run's exit code."""
    res = launcher.run(["--help"], log_dir, python_flags=("-X", "importtime"))
    text = (log_dir / "stderr.log").read_text(encoding="utf-8", errors="replace")
    totals = {g: 0.0 for g in IMPORT_GROUPS}
    totals["total"] = 0.0
    for match in _IMPORT_LINE.finditer(text):
        self_us, module = int(match.group(1)), match.group(4)
        totals["total"] += self_us / 1e6
        top = module.split(".")[0]
        if top in totals:
            totals[top] += self_us / 1e6
    return totals, res.exit_code
