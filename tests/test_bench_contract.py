"""The benchmark under ``bench/`` imports library names and wraps library
functions and methods from outside the package.  Renaming or moving one of
them breaks only a traced benchmark run, so this pins the contract here,
together with the in-process entry its warm runs call."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aof_lab import AgeDistribution

ROOT = Path(__file__).resolve().parent.parent


def test_bench_imports_and_wraps_the_names_it_uses(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    code = "import run, checks, workloads, tracing; tracing.Tracer().install(); run.context(False)"
    res = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def _bench_runner():
    """``bench/runner.py``, loaded once under a name of its own."""
    module = sys.modules.get("bench_runner")
    if module is None:
        spec = importlib.util.spec_from_file_location("bench_runner", ROOT / "bench" / "runner.py")
        module = sys.modules["bench_runner"] = importlib.util.module_from_spec(spec)  # its dataclass looks it up
        spec.loader.exec_module(module)
    return module


def test_warm_entry_runs_a_command_in_process(tmp_path):
    AgeDistribution.point_mass((1, 3)).save(tmp_path / "a.json")
    AgeDistribution.point_mass((2, 2)).save(tmp_path / "b.json")
    out = tmp_path / "out"
    args = ["--out", str(out), "order-check",
            "--dist-a", str(tmp_path / "a.json"), "--dist-b", str(tmp_path / "b.json")]
    elapsed, error = _bench_runner().run_warm(args)
    assert error is None and elapsed > 0
    assert not json.loads((out / "order.json").read_text())["holds"]


# failure -> (arguments, the start of the error text the bench records)
WARM_FAILURES = {
    "domain error": (["age-curve", "--grid", "0"], "AofLabError: exactly one law source is required"),
    "usage error": (["gen", "--kind", "x"], "UsageError: argument --kind: invalid choice"),
    "missing file": (["order-check", "--dist-a", "{missing}", "--dist-b", "{missing}"],
                     "UsageError: argument --dist-a: file "),
}


@pytest.mark.parametrize("failure", WARM_FAILURES)
def test_warm_entry_returns_a_failure_as_error_text(tmp_path, failure):
    """The bench counts a failed warm command by the error text ``run_warm``
    returns; it catches only ``Exception``, so a SystemExit would end the run."""
    args, want = WARM_FAILURES[failure]
    args = ["--out", str(tmp_path / "out"), *(a.format(missing=tmp_path / "missing.json") for a in args)]
    try:
        elapsed, error = _bench_runner().run_warm(args)
    except SystemExit as exc:  # pragma: no cover - the failure this test exists for
        pytest.fail(f"SystemExit({exc.code}) escaped the warm entry")
    assert elapsed > 0 and error.startswith(want)
    assert not (tmp_path / "out").exists()
