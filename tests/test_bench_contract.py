"""The benchmark under ``bench/`` imports library names and wraps library
functions and methods from outside the package.  Renaming or moving one of
them breaks only a traced benchmark run, so this pins the contract here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_imports_and_wraps_the_names_it_uses(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    code = "import run, checks, workloads, tracing; tracing.Tracer().install(); run.context(False)"
    res = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
