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


# One tiny warm run of each command kind the workloads time, traced: prints
# each command's error (None on success), every counter the tracer recorded
# and every counter it declares, per target.
TRACED_RUNS = """
import json
import runner, tracing
from aof_lab import AgeDistribution
from aof_lab.processes import make_hidden_nonmarkov, make_markov_observable

tracer = tracing.Tracer()
tracer.install()
for seed, name in ((1, "model"), (2, "other")):
    make_hidden_nonmarkov(seed, n_states=3, n_sources=2, n_symbols=2, n_targets=2).save(name + ".json")
make_markov_observable(3, n_states=2, n_sources=2, n_targets=2).save("ref.json")
AgeDistribution.uniform([(0, 1), (1, 0), (1, 1)]).save("ages.json")
AgeDistribution.point_mass((1, 3)).save("a.json")
AgeDistribution.point_mass((2, 2)).save("b.json")
with open("trace.csv", "w") as fh:
    fh.write("source_id,G,D\\n1,0,1\\n1,2,4\\n2,1,1\\n")
traj, caps = "o/0/trajectory.csv", ["--tau-max", "1", "--mu-max", "1"]
commands = [
    ["--seed", "5", "gen", "--length", "300"],
    ["epsilon", "--model", "model.json", *caps],
    ["epsilon", "--data", traj, *caps],
    ["epsilon", "--model", "model.json", "--sweep", "--mix-ref", "ref.json", *caps],
    ["age-curve", "--model", "model.json", "--grid", "0..1x0..1", "--windows", "1,2"],
    ["age-curve", "--data", traj, "--grid", "0..2"],
    ["decompose", "--model", "model.json", "--delta", "1,1", "--path", "both"],
    ["decompose", "--data", traj, "--delta", "2"],
    ["--loss", "quad", "cross-loss", "--train", "model.json", "--test", "other.json", "--ages", "ages.json",
     "--sweep"],
    ["simulate-aoi", "--trace", "trace.csv", "--horizon", "10"],
    ["order-check", "--dist-a", "a.json", "--dist-b", "b.json"],
]
tracer.active = True
errors = [runner.run_warm(["--out", f"o/{k}", *args])[1] for k, args in enumerate(commands)]
tracer.active = False
declared = {f"{module}.{name}": ["calls", *counters] for module, name, counters in tracing.TARGETS}
print(json.dumps({"errors": errors, "counts": tracer.counts, "declared": declared}))
"""

# Targets no command calls: every analysis builds its laws through a
# provider's window_law_stack, which the tracer does not wrap, and the
# sweeps and comparisons score whole stacks, not single joints.  ``gen``
# streams its trajectory through processes.trajectory_csv, not through a
# sampled Dataset and its to_csv.
UNREACHED = {"processes.exact_window_law", "processes.ExactLawProvider.window_law", "laws.MixtureLawProvider.window_law",
             "divergence.chi2_conditional_mi", "analysis.dynamic_joint", "analysis.testing_loss",
             "ingest.empirical_window_law", "ingest.EmpiricalLawProvider.window_law",
             "processes.sample_trajectory", "ingest.Dataset.to_csv"}


def test_traced_warm_runs_fire_every_counter_the_commands_reach(tmp_path):
    """A counter runs only in a traced bench run; this runs each one."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    res = subprocess.run([sys.executable, "-c", TRACED_RUNS], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout.splitlines()[-1])
    assert report["errors"] == [None] * 11
    assert UNREACHED <= set(report["declared"])
    for target, counters in report["declared"].items():
        if target not in UNREACHED:
            fired = report["counts"].get(target, {})
            assert all(fired.get(key, 0) > 0 for key in counters), (target, fired)
    # epsilon --model at caps 1 on 2 sources: 4 tau x 3 mu; --data on 1 source: 2 x 1
    assert report["counts"]["divergence.epsilon_coefficient"]["grid_points"] == 4 * 3 + 2 * 1
