"""The lazy package namespace, the modules each CLI command loads and the
BLAS thread default of a cold CLI process."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aof_lab
from aof_lab import AgeDistribution, DeliveryTrace, JointPmf, OutcomeSpace, make_hidden_nonmarkov, sample_trajectory

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_public_name_is_the_object_of_its_module():
    assert len(aof_lab.__all__) == 64
    assert aof_lab.__all__ == sorted(set(aof_lab.__all__))
    for module, names in aof_lab._EXPORTS.items():
        owner = importlib.import_module(f"aof_lab.{module}")
        for name in names:
            assert getattr(aof_lab, name) is getattr(owner, name), name


def test_star_import_and_dir_cover_all_public_names():
    namespace = {}
    exec("from aof_lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(aof_lab.__all__)
    assert set(aof_lab.__all__) <= set(dir(aof_lab))


def test_unknown_name_is_an_attribute_error_and_submodules_still_import():
    with pytest.raises(AttributeError, match="module 'aof_lab' has no attribute 'nope'"):
        aof_lab.nope
    from aof_lab import aoi

    assert aoi is sys.modules["aof_lab.aoi"]


BASE = {"numpy", "aof_lab", "aof_lab.cli", "aof_lab._util", "aof_lab.errors"}
LAWS = BASE | {"aof_lab.spaces", "aof_lab.laws"}
AGES = BASE | {"aof_lab.aoi"}
LOSSES = LAWS | {"aof_lab.analysis", "aof_lab.information", "aof_lab.losses"}
ANALYSIS = LOSSES | {"aof_lab.processes"}
# case -> (python statement, or CLI arguments; numpy and the aof_lab modules loaded after it).
# No case loads click: it is not in any of these sets, and the check below lists it when loaded.
IMPORT_CASES = {
    "import aof_lab": ("import aof_lab", {"aof_lab"}),
    "from aof_lab import aoi": ("from aof_lab import aoi", {"numpy", "aof_lab", "aof_lab.aoi", "aof_lab._util",
                                                            "aof_lab.errors"}),
    "--help": (["--help"], BASE),
    "simulate-aoi": (["simulate-aoi", "--trace", "{trace}", "--horizon", "6"], AGES),
    "order-check": (["order-check", "--dist-a", "{a}", "--dist-b", "{b}"], AGES),
    "beta": (["beta", "--train", "{joint}", "--test", "{joint}"], LAWS | {"aof_lab.divergence"}),
    "gen": (["gen"], LAWS | {"aof_lab.processes"}),
    "gen --length": (["gen", "--length", "50"], LAWS | {"aof_lab.processes"}),
    "epsilon --model": (["epsilon", "--model", "{model}", "--tau-max", "1", "--mu-max", "1"],
                        LAWS | {"aof_lab.processes", "aof_lab.divergence"}),
    "epsilon --sweep": (["epsilon", "--model", "{model}", "--sweep", "--mix-ref", "{model}", "--etas", "0.5",
                         "--tau-max", "1", "--mu-max", "1"], LAWS | {"aof_lab.processes", "aof_lab.divergence"}),
    "epsilon --data": (["epsilon", "--data", "{data}", "--tau-max", "1", "--mu-max", "1"],
                       LAWS | {"aof_lab.ingest", "aof_lab.divergence"}),
    "age-curve --data": (["age-curve", "--data", "{data}", "--grid", "0..1"], LOSSES | {"aof_lab.ingest"}),
    "decompose --data": (["decompose", "--data", "{data}", "--delta", "1"], LOSSES | {"aof_lab.ingest"}),
    "age-curve --model": (["age-curve", "--model", "{model}", "--grid", "0..1"], ANALYSIS),
    "decompose --model": (["decompose", "--model", "{model}", "--delta", "1"], ANALYSIS),
    "cross-loss": (["cross-loss", "--train", "{model}", "--test", "{model}"],
                   ANALYSIS | {"aof_lab.aoi", "aof_lab.divergence"}),
}


def _cold_python(code: str, **env: str | None) -> str:
    """The last stdout line of ``python -c code`` in a fresh interpreter
    without a bytecode cache, with ``env`` over this process's environment
    (a ``None`` value removes the variable)."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]), **env}
    env = {k: v for k, v in env.items() if v is not None}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return res.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("case", IMPORT_CASES)
def test_each_command_loads_only_the_modules_it_calls(tmp_path, case):
    """A cold interpreter without a bytecode cache compiles every module it
    loads; an eager import added later would undo the saving silently."""
    statement, want = IMPORT_CASES[case]
    files = {"model": tmp_path / "model.json", "trace": tmp_path / "trace.csv", "data": tmp_path / "data.csv",
             "a": tmp_path / "a.json", "b": tmp_path / "b.json", "joint": tmp_path / "joint.json"}
    model = make_hidden_nonmarkov(3, n_states=3)
    model.save(files["model"])
    sample_trajectory(model, 200, 3).to_csv(files["data"])
    DeliveryTrace((((0, 1), (3, 5)),)).to_csv(files["trace"])
    AgeDistribution.point_mass((1, 3)).save(files["a"])
    AgeDistribution.point_mass((2, 2)).save(files["b"])
    JointPmf((("x", OutcomeSpace((0, 1))),), [0.25, 0.75]).save(files["joint"])
    if isinstance(statement, list):
        args = ["--out", str(tmp_path / "out"), *(a.format(**files) for a in statement)]
        statement = f"from aof_lab.cli import main; assert main({args!r}) == 0"
    code = (f"import json, sys; {statement}; print(json.dumps(sorted("
            "m for m in sys.modules if m in ('numpy', 'click') or m.split('.')[0] == 'aof_lab')))")
    assert set(json.loads(_cold_python(code))) == want


# case -> (python statement, OPENBLAS_NUM_THREADS before it, the value it leaves)
BLAS_CASES = {
    "import aof_lab.cli": ("import aof_lab.cli", None, "1"),
    "a user setting is kept": ("import aof_lab.cli", "2", "2"),
    "numpy loaded first": ("import numpy, aof_lab.cli", None, None),
    "library use": ("from aof_lab import loss_curve", None, None),
}


@pytest.mark.parametrize("case", BLAS_CASES)
def test_a_cold_cli_process_runs_blas_on_one_thread(case):
    """OpenBLAS reads its thread count once, when numpy loads; only a process
    that starts as the CLI gets the one-thread default, and then has no
    BLAS worker thread.  The variable is removed first, so a caller that
    sets it cannot make this pass."""
    statement, given, want = BLAS_CASES[case]
    code = (f"import json, os; {statement}; "
            "tasks = os.listdir('/proc/self/task') if os.path.isdir('/proc/self/task') else None; "
            "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), None if tasks is None else len(tasks)]))")
    value, threads = json.loads(_cold_python(code, OPENBLAS_NUM_THREADS=given))
    assert value == want
    if want == "1" and threads is not None:
        assert threads == 1
