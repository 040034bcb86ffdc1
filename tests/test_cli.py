import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from aof_lab import (
    AgeDistribution,
    DeliveryTrace,
    ExactLawProvider,
    MixtureLawProvider,
    ProcessModel,
    beta_between,
    dynamic_joint,
    exact_window_law,
    joint_training_loss,
    log_loss,
    loss_curve,
    make_hidden_nonmarkov,
    quadratic_loss,
    sample_trajectory,
    zero_one_loss,
)
import aof_lab._util as util
from aof_lab import processes
from aof_lab import testing_loss as eval_testing_loss
from aof_lab.cli import main

from oracles import dataset_csv_by_rows, trajectory_by_steps


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def _invoke(args):
    """``main(args)`` with stdout and stderr captured; an exception that
    escapes ``main`` fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return Result(code, out.getvalue(), err.getvalue())


def test_gen_deterministic_given_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = _invoke(["--seed", "9", "--out", str(out), "gen", "--kind", "hidden",
                       "--length", "50"])
        assert res.exit_code == 0
    model_a = json.loads((a / "model.json").read_text())
    model_b = json.loads((b / "model.json").read_text())
    model_a["config"].pop("out")
    model_b["config"].pop("out")
    assert model_a == model_b  # identical up to the echoed output directory
    assert (a / "trajectory.csv").read_text() == (b / "trajectory.csv").read_text()


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("delay", [0, 1, 2])
def test_gen_trajectory_matches_per_step_oracle_bytes(tmp_path, window, delay):
    res = _invoke(["--seed", "17", "--out", str(tmp_path), "gen", "--sources", "2",
                   "--symbols", "3", "--window", str(window), "--delay", str(delay),
                   "--length", "500"])
    assert res.exit_code == 0
    model = ProcessModel.load(tmp_path / "model.json")
    want = dataset_csv_by_rows(trajectory_by_steps(model, 500, 17))
    assert (tmp_path / "trajectory.csv").read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("block", [2, 7])
@pytest.mark.parametrize("kind", ["markov", "hidden"])
@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("delay", [0, 1, 2])
def test_gen_streams_one_trajectory_across_block_ends(tmp_path, monkeypatch, block, kind, window, delay):
    # small blocks put block ends inside the warm-up and inside feature
    # windows; a block of 2 is shorter than most warm-ups, so the carried
    # symbols span blocks
    monkeypatch.setattr(processes, "CSV_CHUNK_ROWS", block)
    monkeypatch.setattr(util, "CSV_CHUNK_ROWS", block)
    warm = window + delay - 1
    for sources in (1, 2, 3):
        for length in sorted({warm + 1, block - 1, block, block + 1, 5 * block + 3} - set(range(warm + 1))):
            out = tmp_path / f"{sources}-{length}"
            res = _invoke(["--seed", "23", "--out", str(out), "gen", "--kind", kind, "--sources", str(sources),
                           "--symbols", "3", "--window", str(window), "--delay", str(delay), "--length", str(length)])
            assert res.exit_code == 0, res.output
            model = ProcessModel.load(out / "model.json")
            got = (out / "trajectory.csv").read_bytes()
            assert got == dataset_csv_by_rows(trajectory_by_steps(model, length, 23)).encode()
            sample_trajectory(model, length, 23).to_csv(out / "library.csv")
            assert got == (out / "library.csv").read_bytes()
            # the header, then each block with a row past the warm-up
            blocks = sum(1 for _ in processes.trajectory_csv(model, length, 23))
            assert blocks == 1 + -(-length // block) - warm // block


def _csv_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _assert_clean_error(res, *needles):
    assert res.exit_code == 1  # main returned 1 without raising
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ")
    assert "Traceback" not in res.output
    for needle in needles:
        assert needle in lines[0]


@pytest.mark.parametrize("body,needles", [
    ("0,1,0,1\n1,1,0\n", ["line 3", "'y'"]),             # ragged: a cell short
    ("0,1,0,1\n1,1,0,1,7\n", ["line 3", "cells after"]),  # ragged: a cell over
    ("0,1,0,1\n1.5,1,0,1\n", ["line 3", "'t'", "'1.5'"]),  # non-integer slot
    ("0,1,0,1\n1,1,x,1\n", ["line 3", "'age_1'", "'x'"]),  # non-integer age
    ("0,1,0,1\n99999999999999999999,1,0,1\n", ["line 3", "'t'", "int64"]),  # slot beyond int64
    ("0,1,0,1\n1,1,-99999999999999999999,1\n", ["line 3", "'age_1'", "int64"]),  # age beyond int64
    ("", ["no data rows"]),
])
def test_malformed_data_csv_is_a_clean_error(tmp_path, body, needles):
    path = tmp_path / "bad.csv"
    path.write_text("t,x_1,age_1,y\n" + body)
    res = _invoke(["--out", str(tmp_path), "age-curve", "--data", str(path), "--grid", "0..1"])
    _assert_clean_error(res, str(path), *needles)


@pytest.mark.parametrize("text,needles", [
    ("source_id,G\n1,3\n", ["line 1", "'D'"]),
    ("source_id,G,D\n1,0,1\n1,two,3\n", ["line 3", "'G'", "'two'"]),
    ("source_id,G,D\n1,0,1\n1,2\n", ["line 3", "'D'", "missing"]),
    ("source_id,G,D\n1,0,1\n1,2,99999999999999999999\n", ["line 3", "'D'", "int64"]),
    ("", ["line 1", "'source_id'"]),
])
def test_malformed_delivery_trace_is_a_clean_error(tmp_path, text, needles):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    res = _invoke(["--out", str(tmp_path), "simulate-aoi", "--trace", str(path), "--horizon", "5"])
    _assert_clean_error(res, str(path), *needles)


TRACE_ARGS = ["simulate-aoi", "--trace", "{path}", "--horizon", "5"]
DATA_ARGS = ["age-curve", "--data", "{path}", "--grid", "0..1"]
NO_SOURCE = "no x_<l> column; a trajectory needs at least one feature source"


@pytest.mark.parametrize("args,text,message", [
    (TRACE_ARGS, "source_id,G,D\n1,3,2\n", "source 1: generation 3 after delivery 2"),
    (DATA_ARGS, "t,x_1,age_1,y\n0,1,0,1\n1,1,-1,1\n", "ages must be nonnegative"),
    (DATA_ARGS, "t,x_1,age_1,y\n1,1,0,1\n0,1,0,1\n", "slot indices must be strictly increasing"),
    # with no feature column the commands would fail later, on misleading terms
    (DATA_ARGS, "t,y\n0,1\n1,0\n", NO_SOURCE),
    (["decompose", "--data", "{path}", "--delta", "1"], "t,y\n0,1\n1,0\n", NO_SOURCE),
    (["epsilon", "--data", "{path}"], "t,y\n0,1\n1,0\n", NO_SOURCE),
], ids=["generation-after-delivery", "negative-age", "decreasing-slots", "no-source-age-curve",
        "no-source-decompose", "no-source-epsilon"])
def test_csv_value_rule_error_names_the_file_once(tmp_path, args, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    res = _invoke(["--out", str(tmp_path / "out"), *(a.format(path=path) for a in args)])
    _assert_clean_error(res)
    assert res.output.strip() == f"Error: {path}: {message}"


@pytest.mark.parametrize("transition,message", [
    ([[float("nan"), 1.0], [0.5, 0.5]], "transition must be a nonnegative matrix"),
    ([[0.5, 0.5]], "transition must be square over the states"),
    ([[0.5, 0.5]] * 3, "transition must be square over the states"),
], ids=["nan-cell", "1x2", "3x2"])
def test_model_checks_run_before_the_stationary_law(tmp_path, transition, message):
    assert _invoke(["--out", str(tmp_path), "gen"]).exit_code == 0
    path = tmp_path / "bad.json"
    model = json.loads((tmp_path / "model.json").read_text())
    path.write_text(json.dumps({**model, "transition": transition}))
    res = _invoke(["--out", str(tmp_path / "out"), "age-curve", "--model", str(path),
                   "--grid", "0"])
    _assert_clean_error(res)
    assert res.output.strip() == f"Error: {path}: {message}"


@pytest.mark.parametrize("args,needle", [
    (["age-curve", "--model", "{model}", "--grid", "0..x"], "--grid"),
    (["age-curve", "--model", "{model}", "--grid", "0..2;1"], "--grid"),
    (["age-curve", "--model", "{model}", "--grid", "0x0", "--windows", "a"], "--windows"),
    # a repeated window would be computed and written twice under one name
    (["age-curve", "--model", "{model}", "--grid", "0..2", "--windows", "1,2,1"], "--windows: window 1 is given twice"),
    # likewise a repeated grid point, named by its first repeat
    (["age-curve", "--model", "{model}", "--grid", "0,1;1,0;0,1;1,0"], "grid points must be distinct, got (0, 1) twice"),
    (["decompose", "--model", "{model}", "--delta", "x"], "--delta"),
    (["decompose", "--model", "{model}", "--delta", "1,1", "--path", "a"], "--path"),
    (["epsilon", "--model", "{model}", "--sweep", "--mix-ref", "{model}", "--etas", "0.5,abc"], "--etas"),
    (["cross-loss", "--train", "{model}", "--test", "{model}", "--sweep", "--etas", "x"], "--etas"),
    (["--lambda", "-1", "age-curve", "--data", "{data}", "--grid", "0x0"], "pseudo-count"),
    (["gen", "--states", "0"], "states"),
    (["gen", "--kind", "markov", "--states", "0"], "states"),
    (["gen", "--targets", "0"], "targets"),
    (["gen", "--symbols", "0"], "symbols"),
    (["gen", "--sources", "0", "--length", "50"], "sources"),
    (["--lambda", "inf", "epsilon", "--data", "{data}", "--tau-max", "1", "--mu-max", "1"], "pseudo-count"),
    (["--lambda", "nan", "age-curve", "--data", "{data}", "--grid", "0x0"], "pseudo-count"),
    (["gen", "--length", "-5"], "length must exceed the warm-up of 0 slots, got -5"),
    (["gen", "--concentration", "nan"], "Error: concentration must be positive and finite, got nan"),
    (["gen", "--concentration", "inf"], "Error: concentration must be positive and finite, got inf"),
    (["gen", "--window", "3", "--length", "2"], "warm-up"),
    (["age-curve", "--model", "{model}", "--grid", "9223372036854775808,0"], "lag"),
    # a value that starts with "-" is still the option's value
    (["--lambda", "-1e-3", "age-curve", "--data", "{data}", "--grid", "0x0"], "pseudo-count"),
    (["decompose", "--model", "{model}", "--delta", "-1,0"], "nonnegative"),
    # each names the offending value
    (["age-curve", "--model", "{model}", "--grid", "0,0", "--windows", "0"], "Error: window must be >= 1, got 0"),
    (["gen", "--delay", "-1"], "Error: delay must be >= 0, got -1"),
    (["decompose", "--model", "{model}", "--delta", "-1,1"], "Error: age components must be nonnegative, got (-1, 1)"),
    (["cross-loss", "--train", "{model}", "--test", "{model}", "--sweep", "--etas", "-0.5"], "eta"),
    (["--loss", "bogus", "age-curve", "--model", "{model}", "--grid", "0"],
     "Error: unknown loss 'bogus'; use log, quad, zero-one, or table:<path>"),
    (["age-curve", "--data", "{data}", "--grid", "0", "--windows", "1"], "Error: --windows needs a --model law source"),
    (["epsilon", "--model", "{model}", "--sweep"], "Error: --sweep needs --model and --mix-ref model files"),
])
def test_bad_option_value_is_a_clean_error(tmp_path, args, needle):
    assert _invoke(["--out", str(tmp_path), "gen", "--sources", "2", "--length", "200"]).exit_code == 0
    files = {"model": str(tmp_path / "model.json"), "data": str(tmp_path / "trajectory.csv")}
    out = tmp_path / "out"
    res = _invoke(["--out", str(out), *(a.format(**files) for a in args)])
    _assert_clean_error(res, needle)
    assert not out.exists()  # nothing written


@pytest.mark.parametrize("law_source", ["--model", "--data"])
@pytest.mark.parametrize("delta,needle", [
    # beyond int64: np.repeat used to end in an OverflowError traceback
    ("99999999999999999999", "Error: delta lags must be whole numbers in the int64 range, got 99999999999999999999"),
    # the smallest sum whose (sum + 1) x 1 staircase is over the cell cap
    (str(util.DEFAULT_MAX_CELLS), f"Error: age vector ({util.DEFAULT_MAX_CELLS},): its staircase of "
                                  f"{util.DEFAULT_MAX_CELLS + 1} age vectors x 1 sources is over "
                                  f"{util.DEFAULT_MAX_CELLS} cells"),
])
def test_decompose_refuses_a_staircase_it_cannot_hold(tmp_path, law_source, delta, needle):
    assert _invoke(["--out", str(tmp_path), "gen", "--sources", "1", "--length", "200"]).exit_code == 0
    source = tmp_path / ("model.json" if law_source == "--model" else "trajectory.csv")
    out = tmp_path / "out"
    res = _invoke(["--out", str(out), "decompose", law_source, str(source), "--delta", delta])
    _assert_clean_error(res, needle)
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_a_clean_error(tmp_path, source):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -1}))
    out = tmp_path / "out"
    given = ["--seed", "-1"] if source == "flag" else ["--config", str(config)]
    res = _invoke([*given, "--out", str(out), "gen", "--length", "50"])
    _assert_clean_error(res, "seed", "-1")
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_an_output_directory_that_cannot_be_made_is_a_clean_error(tmp_path, source):
    # --out below a file cannot be made; a config "out" naming a file is not
    # checked by the parser, so the write itself must fail cleanly
    blocker = tmp_path / "file"
    blocker.write_text("{}")
    out = blocker / "sub" if source == "flag" else blocker
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": str(out)}))
    given = ["--out", str(out)] if source == "flag" else ["--config", str(config)]
    res = _invoke([*given, "gen", "--length", "50"])
    _assert_clean_error(res, f"Error: {out / 'model.json'}: cannot write: ")
    assert blocker.read_text() == "{}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file"]  # nothing written


@pytest.mark.parametrize("args,needle", [
    (["age-curve", "--model", "{missing}", "--grid", "0"], "argument --model: file "),
    (["--config", "{missing}", "gen"], "argument --config: file "),
    (["order-check", "--dist-a", "{dir}", "--dist-b", "{dir}"], "is a directory"),
    (["--out", "{file}", "gen"], "argument --out: directory "),
    (["gen", "--kind", "x"], "argument --kind: invalid choice"),
    (["gen", "--states", "four"], "argument --states: invalid int value"),
    (["age-curve", "--model", "{file}"], "required: --grid"),
    (["gen", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["gen", "--sta", "3"], "unrecognized arguments"),  # no abbreviated options
    (["bogus"], "invalid choice: 'bogus'"),
    ([], "required: COMMAND"),
])
def test_usage_error_is_the_usage_and_one_error_line(tmp_path, args, needle):
    (tmp_path / "file").write_text("{}")
    paths = {"missing": str(tmp_path / "missing.json"), "dir": str(tmp_path), "file": str(tmp_path / "file")}
    out = tmp_path / "out"
    given = [a.format(**paths) for a in args]
    res = _invoke(given if "--out" in args else ["--out", str(out), *given])
    assert res.exit_code == 2  # main returned 2 without raising
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert lines[0].startswith("usage: aof-lab")
    assert [line for line in lines if line.startswith("Error: ")] == [lines[-1]]
    assert needle in lines[-1]
    assert not out.exists()


@pytest.mark.parametrize("args,usage,error", [
    (["gen", "--bogus", "1"], "usage: aof-lab gen [-h]", "unrecognized arguments: --bogus 1"),
    # a value-taking option is echoed as typed, whether joined to its value or not
    (["epsilon", "--data", "{file}", "--lag-cap", "1"], "usage: aof-lab epsilon [-h]",
     "unrecognized arguments: --lag-cap 1"),
    (["epsilon", "--data", "{file}", "--lag-cap=1"], "usage: aof-lab epsilon [-h]",
     "unrecognized arguments: --lag-cap=1"),
    # before the command, leftovers are the top-level parser's
    (["--bogus", "gen"], "usage: aof-lab [-h]", "unrecognized arguments: --bogus"),
    (["--data", "{file}", "epsilon"], "usage: aof-lab [-h]", "unrecognized arguments: --data {file}"),
])
def test_leftover_arguments_get_the_usage_of_the_parser_that_left_them(tmp_path, args, usage, error):
    (tmp_path / "file").write_text("{}")
    out = tmp_path / "out"
    fill = {"file": str(tmp_path / "file")}
    res = _invoke(["--out", str(out), *(a.format(**fill) for a in args)])
    assert res.exit_code == 2 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert lines[0].startswith(usage)
    assert lines[-1] == "Error: " + error.format(**fill)
    assert not out.exists()


@pytest.mark.parametrize("args,commands", [
    (["--help"], ["gen", "age-curve", "decompose", "epsilon", "beta", "order-check", "cross-loss", "simulate-aoi"]),
    (["gen", "--help"], ["--kind", "--states", "--length"]),
    (["-h"], ["COMMAND"]),
])
def test_help_goes_to_stdout_and_exits_zero(args, commands):
    res = _invoke(args)
    assert res.exit_code == 0 and res.stderr == ""
    assert res.stdout.startswith("usage: aof-lab")
    for name in commands:
        assert name in res.stdout


def test_the_module_entry_exits_with_mains_code(tmp_path):
    """``python -m aof_lab.cli`` passes main's return value to sys.exit."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    codes = {}
    for case, args in (("ok", ["gen"]), ("domain", ["--seed", "-1", "gen"]), ("usage", ["gen", "--kind", "x"])):
        res = subprocess.run([sys.executable, "-m", "aof_lab.cli", "--out", str(tmp_path / case), *args],
                             env=env, capture_output=True, text=True)
        codes[case] = (res.returncode, res.stdout.splitlines(), res.stderr.splitlines()[-1:])
    assert codes["ok"] == (0, [f"wrote {tmp_path / 'ok' / 'model.json'}"], [])
    assert codes["domain"] == (1, [], ["Error: seed must be a nonnegative integer, got -1"])
    assert codes["usage"][:2] == (2, []) and codes["usage"][2][0].startswith("Error: argument --kind")


@pytest.mark.parametrize("ages", [
    {"vectors": [[0], [1]], "probs": [float("nan"), 1.0]},
    {"vectors": [[0.9], [1.5]], "probs": [0.5, 0.5]},
    {"vectors": [[]], "probs": [1]},
], ids=["nan-prob", "fractional-age", "zero-dimensional"])
def test_faulty_age_law_values_are_a_clean_error(tmp_path, ages):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps(ages))
    good.write_text(json.dumps({"vectors": [[0], [1]], "probs": [0.5, 0.5]}))
    out = tmp_path / "out"
    res = _invoke(["--out", str(out), "order-check", "--dist-a", str(bad), "--dist-b", str(good)])
    _assert_clean_error(res, str(bad))
    assert not (out / "order.json").exists()


def _json_inputs(root):
    """A valid file of each JSON input kind: model, joint law, age law,
    config and loss table."""
    assert _invoke(["--out", str(root), "gen"]).exit_code == 0
    model = root / "model.json"
    exact_window_law(ProcessModel.load(model), [("y", 0), ("x1", 1)]).law.save(root / "law.json")
    AgeDistribution.point_mass((1,)).save(root / "ages.json")
    (root / "config.json").write_text(json.dumps({"loss": "quad"}))
    table = {"outcomes": [0, 1], "actions": ["a", "b"], "loss": [[0.0, 1.0], [1.0, 0.0]]}
    (root / "table.json").write_text(json.dumps(table))
    return {kind: json.loads((root / f"{kind}.json").read_text()) for kind in ("model", "law", "ages", "config", "table")}


# per JSON input: its kind, the command reading it ({file} is the faulty
# file, {model}/{law}/{ages} valid ones), a key to drop (None: the input has
# no required key) and a wrong-shaped value
JSON_INPUTS = {
    "--model": ("model", ["age-curve", "--model", "{file}", "--grid", "0"], "emissions",
                {"transition": [[0.5, 0.5], [1.0]]}),
    "--mix-ref": ("model", ["epsilon", "--model", "{model}", "--sweep", "--mix-ref", "{file}",
                            "--tau-max", "1", "--mu-max", "1"], "target_kernel", {"emissions": 3}),
    "cross-loss --train": ("model", ["cross-loss", "--train", "{file}", "--test", "{model}"], "transition",
                           {"target_kernel": [[1.0], [0.5, 0.5]]}),
    "cross-loss --test": ("model", ["cross-loss", "--train", "{model}", "--test", "{file}"], "states",
                          {"emission_symbols": 7}),
    "cross-loss --ages": ("ages", ["cross-loss", "--train", "{model}", "--test", "{model}", "--ages", "{file}"],
                          "probs", {"probs": "x"}),
    "beta --train": ("law", ["beta", "--train", "{file}", "--test", "{law}"], "probs", {"probs": [0.5, 0.5, 0.0]}),
    "beta --test": ("law", ["beta", "--train", "{law}", "--test", "{file}"], "variables", {"variables": [7]}),
    "--dist-a": ("ages", ["order-check", "--dist-a", "{file}", "--dist-b", "{ages}"], "vectors",
                 {"vectors": [[0, "a"]]}),
    "--dist-b": ("ages", ["order-check", "--dist-a", "{ages}", "--dist-b", "{file}"], "probs", {"vectors": 3}),
    "--config": ("config", ["--config", "{file}", "age-curve", "--model", "{model}", "--grid", "0"], None,
                 {"lag_cap": [1]}),
    "--loss table:": ("table", ["--loss", "table:{file}", "age-curve", "--model", "{model}", "--grid", "0"],
                      "actions", {"loss": [[0.0, 1.0], [1.0]]}),
}
JSON_FAULTS = ["not JSON", "not UTF-8", "top-level list", "missing key", "unknown key", "wrong-shaped value",
               "missing file"]
JSON_CASES = [(option, fault) for option in JSON_INPUTS for fault in JSON_FAULTS
              if (fault != "missing key" or JSON_INPUTS[option][2]) and (fault != "missing file" or option == "--loss table:")
              and (fault != "unknown key" or option == "--config")]


@pytest.mark.parametrize("option,fault", JSON_CASES)
def test_faulty_json_input_is_a_clean_error(tmp_path, option, fault):
    valid = _json_inputs(tmp_path)
    kind, args, key, wrong = JSON_INPUTS[option]
    path = tmp_path / "faulty.json"
    data = dict(valid[kind])
    if fault == "not JSON":
        path.write_text('{"a": ')
    elif fault == "not UTF-8":
        path.write_bytes(json.dumps(data).encode()[:-1] + b', "\xff": 1}')
    elif fault == "top-level list":
        path.write_text(json.dumps([data]))
    elif fault == "missing key":
        del data[key]
        path.write_text(json.dumps(data))
    elif fault == "unknown key":
        path.write_text(json.dumps({**data, "bogus": 1}))
    elif fault == "wrong-shaped value":
        path.write_text(json.dumps({**data, **wrong}))
    files = {"file": str(path), **{k: str(tmp_path / f"{k}.json") for k in ("model", "law", "ages")}}
    out = tmp_path / "out"
    res = _invoke(["--out", str(out), *(a.format(**files) for a in args)])
    _assert_clean_error(res, str(path))
    assert not out.exists()  # nothing written


def test_gen_ignores_a_stale_temp_path_in_out(tmp_path):
    (tmp_path / ".trajectory.csv.tmp").mkdir()
    res = _invoke(["--seed", "9", "--out", str(tmp_path), "gen", "--length", "20"])
    assert res.exit_code == 0
    assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 21


def _failing_blocks(model):
    """The first two blocks of a trajectory, then a fault mid-stream."""
    blocks = processes.trajectory_csv(model, 1_000, 5)
    yield next(blocks)
    yield next(blocks)
    raise RuntimeError("block source failed")


@pytest.mark.parametrize("existing", [False, True])
def test_a_block_source_that_fails_leaves_no_temp_file_and_the_old_target(tmp_path, existing):
    target = tmp_path / "trajectory.csv"
    if existing:
        target.write_bytes(b"old bytes\n")
    with pytest.raises(RuntimeError, match="block source failed"):
        util.write_text_atomic(target, _failing_blocks(make_hidden_nonmarkov(5)))
    assert [p.name for p in tmp_path.iterdir()] == (["trajectory.csv"] if existing else [])
    if existing:
        assert target.read_bytes() == b"old bytes\n"


def test_every_output_gets_the_mode_of_a_plain_open(tmp_path):
    out = tmp_path / "out"
    _invoke(["--seed", "3", "--out", str(out), "gen", "--length", "40"])
    DeliveryTrace((((0, 1), (3, 5)),)).to_csv(tmp_path / "trace.csv")
    AgeDistribution.point_mass((1, 3)).save(tmp_path / "a.json")
    AgeDistribution.point_mass((2, 2)).save(tmp_path / "b.json")
    model = str(out / "model.json")
    exact_window_law(ProcessModel.load(model), [("y", 0), ("x1", 1)]).law.save(tmp_path / "law.json")
    law = str(tmp_path / "law.json")
    for args in (["age-curve", "--model", model, "--grid", "0..1"],
                 ["decompose", "--model", model, "--delta", "1"],
                 ["epsilon", "--model", model, "--tau-max", "1", "--mu-max", "1"],
                 ["cross-loss", "--train", model, "--test", model],
                 ["beta", "--train", law, "--test", law],
                 ["order-check", "--dist-a", str(tmp_path / "a.json"), "--dist-b", str(tmp_path / "b.json")],
                 ["simulate-aoi", "--trace", str(tmp_path / "trace.csv"), "--horizon", "6"]):
        assert _invoke(["--out", str(out), *args]).exit_code == 0
    with open(out / "probe", "w", encoding="utf-8"):
        pass
    plain = (out / "probe").stat().st_mode & 0o777
    (out / "probe").unlink()
    written = sorted(out.iterdir())
    assert len(written) == 12
    assert {p.name: p.stat().st_mode & 0o777 for p in written} == {p.name: plain for p in written}


def test_cli_import_loads_neither_scipy_nor_networkx():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, aof_lab.cli; print(sorted({'scipy', 'networkx'} & set(sys.modules)))"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_gen_length_zero_skips_dataset(tmp_path):
    res = _invoke(["--out", str(tmp_path), "gen", "--length", "0"])
    assert res.exit_code == 0
    assert (tmp_path / "model.json").exists()
    assert not (tmp_path / "trajectory.csv").exists()


def test_gen_invalid_noise_names_field(tmp_path):
    res = _invoke(["--out", str(tmp_path), "gen", "--noise", "1.5"])
    assert res.exit_code != 0
    assert "noise" in res.output


def test_age_curve_markov_sidecar_index(tmp_path):
    _invoke(["--seed", "4", "--out", str(tmp_path), "gen", "--kind", "markov",
             "--states", "3", "--targets", "2"])
    res = _invoke(["--out", str(tmp_path), "age-curve",
                   "--model", str(tmp_path / "model.json"), "--grid", "0..4"])
    assert res.exit_code == 0
    meta = json.loads((tmp_path / "age_curve.meta.json").read_text())
    assert meta["curves"]["default"]["nonmonotonicity_index"] <= 1e-9
    assert meta["config"]["loss"] == "log"


def test_age_curve_window_sweep_nonincreasing_index(tmp_path):
    _invoke(["--seed", "7", "--out", str(tmp_path), "gen", "--kind", "hidden",
             "--states", "5", "--symbols", "2", "--targets", "3",
             "--noise", "0.15", "--concentration", "0.25"])
    res = _invoke(["--out", str(tmp_path), "age-curve",
                   "--model", str(tmp_path / "model.json"),
                   "--grid", "0..5", "--windows", "1,2,3"])
    assert res.exit_code == 0
    meta = json.loads((tmp_path / "age_curve.meta.json").read_text())
    idx = [meta["curves"][f"b={b}"]["nonmonotonicity_index"] for b in (1, 2, 3)]
    assert idx[0] >= idx[1] >= idx[2]
    for b in (1, 2, 3):
        rows = _csv_rows(tmp_path / f"curve_b{b}.csv")
        assert len(rows) == 6
        assert set(rows[0]) == {"delta_1", "loss"}


def test_age_curve_single_point_grid(tmp_path):
    _invoke(["--seed", "4", "--out", str(tmp_path), "gen", "--kind", "markov"])
    res = _invoke(["--out", str(tmp_path), "age-curve",
                   "--model", str(tmp_path / "model.json"), "--grid", "2"])
    assert res.exit_code == 0
    rows = _csv_rows(tmp_path / "curve.csv")
    assert len(rows) == 1 and rows[0]["delta_1"] == "2"


def test_law_source_exclusivity(tmp_path):
    res = _invoke(["--out", str(tmp_path), "age-curve", "--grid", "0..1"])
    assert res.exit_code != 0
    assert "law source" in res.output


def test_decompose_both_paths_same_h(tmp_path):
    _invoke(["--seed", "5", "--out", str(tmp_path), "gen", "--kind", "hidden",
             "--sources", "2"])
    res = _invoke(["--out", str(tmp_path), "decompose",
                   "--model", str(tmp_path / "model.json"), "--delta", "2,1",
                   "--path", "both"])
    assert res.exit_code == 0
    data = json.loads((tmp_path / "decompose.json").read_text())
    assert len(data["reports"]) == 2
    h0, h1 = (r["h"] for r in data["reports"])
    assert abs(h0 - h1) <= 1e-12


def test_decompose_zero_delta_f2_zero(tmp_path):
    _invoke(["--seed", "5", "--out", str(tmp_path), "gen", "--kind", "hidden"])
    res = _invoke(["--out", str(tmp_path), "decompose",
                   "--model", str(tmp_path / "model.json"), "--delta", "0",
                   "--path", "0"])
    data = json.loads((tmp_path / "decompose.json").read_text())
    assert data["reports"][0]["f2"] == 0.0


def test_decompose_markov_f2_tiny(tmp_path):
    _invoke(["--seed", "6", "--out", str(tmp_path), "gen", "--kind", "markov"])
    _invoke(["--out", str(tmp_path), "decompose",
             "--model", str(tmp_path / "model.json"), "--delta", "3", "--path", "0"])
    data = json.loads((tmp_path / "decompose.json").read_text())
    assert data["reports"][0]["f2"] <= 1e-10


def test_epsilon_markov_zero_and_sweep(tmp_path):
    _invoke(["--seed", "6", "--out", str(tmp_path), "gen", "--kind", "markov",
             "--states", "3", "--targets", "3"])
    (tmp_path / "markov.json").write_bytes((tmp_path / "model.json").read_bytes())
    res = _invoke(["--out", str(tmp_path), "epsilon",
                   "--model", str(tmp_path / "markov.json"),
                   "--tau-max", "2", "--mu-max", "2"])
    assert res.exit_code == 0
    data = json.loads((tmp_path / "epsilon.json").read_text())
    assert data["epsilon"] <= 1e-9
    assert data["tau_max"] == 2

    _invoke(["--seed", "8", "--out", str(tmp_path), "gen", "--kind", "hidden",
             "--states", "5", "--symbols", "3", "--targets", "3", "--noise", "0.4"])
    res = _invoke(["--out", str(tmp_path), "epsilon",
                   "--model", str(tmp_path / "model.json"),
                   "--mix-ref", str(tmp_path / "markov.json"),
                   "--sweep", "--etas", "0.5,0.25,0.125",
                   "--tau-max", "2", "--mu-max", "2"])
    assert res.exit_code == 0
    rows = _csv_rows(tmp_path / "epsilon_sweep.csv")
    eps = [float(r["epsilon"]) for r in rows]
    assert eps[0] > eps[1] > eps[2] > 0


@pytest.mark.parametrize(
    "gen_args",
    [["--window", str(w), "--delay", str(d)] for w in (1, 2, 3) for d in (0, 1, 2)]
    + [["--sources", "2", "--window", "2"]],
)
def test_epsilon_default_caps_on_every_window_and_delay(tmp_path, gen_args):
    _invoke(["--seed", "3", "--out", str(tmp_path), "gen", *gen_args])
    model = str(tmp_path / "model.json")
    res = _invoke(["--out", str(tmp_path), "epsilon", "--model", model])
    assert res.exit_code == 0, res.output
    data = json.loads((tmp_path / "epsilon.json").read_text())
    assert data["tau_max"] == data["mu_max"] == 8
    assert data["epsilon"] > 0
    # lags up to 16 on every model, whatever its window and delay
    two = "--sources" in gen_args
    for args in (["age-curve", "--grid", "0..16x0..16" if two else "0..16"],
                 ["decompose", "--delta", "16,16" if two else "16"]):
        res = _invoke(["--out", str(tmp_path), args[0], "--model", model, *args[1:]])
        assert res.exit_code == 0, res.output


def test_epsilon_rejects_oversized_laws_naming_the_flags(tmp_path):
    _invoke(["--out", str(tmp_path), "gen", "--sources", "3", "--symbols", "4",
             "--window", "2"])
    res = _invoke(["--out", str(tmp_path), "epsilon", "--model", str(tmp_path / "model.json")])
    assert res.exit_code != 0
    assert "--lag-cap" in res.output and "--tau-max" in res.output and "--mu-max" in res.output


def test_beta_same_file_zero(tmp_path):
    _invoke(["--seed", "6", "--out", str(tmp_path), "gen", "--kind", "markov"])
    model = ProcessModel.load(tmp_path / "model.json")
    law = exact_window_law(model, [("y", 0), ("x1", 1)])
    law.law.save(tmp_path / "law.json")
    res = _invoke(["--out", str(tmp_path), "beta",
                   "--train", str(tmp_path / "law.json"),
                   "--test", str(tmp_path / "law.json")])
    assert res.exit_code == 0
    data = json.loads((tmp_path / "beta.json").read_text())
    assert data["beta"] == 0.0 and data["divergence"] == 0.0


def test_order_check_verdicts(tmp_path):
    AgeDistribution.uniform([(0, 1), (1, 1)]).save(tmp_path / "a.json")
    AgeDistribution.uniform([(1, 1), (2, 2)]).save(tmp_path / "b.json")
    res = _invoke(["--out", str(tmp_path), "order-check",
                   "--dist-a", str(tmp_path / "a.json"),
                   "--dist-b", str(tmp_path / "a.json")])
    assert json.loads((tmp_path / "order.json").read_text())["holds"]
    AgeDistribution.point_mass((1, 3)).save(tmp_path / "c.json")
    AgeDistribution.point_mass((2, 2)).save(tmp_path / "d.json")
    res = _invoke(["--out", str(tmp_path), "order-check",
                   "--dist-a", str(tmp_path / "c.json"),
                   "--dist-b", str(tmp_path / "d.json")])
    data = json.loads((tmp_path / "order.json").read_text())
    assert not data["holds"]
    assert data["witness"]["generators"] == [[1, 3]]


def test_cross_loss_same_model_zero_gap(tmp_path):
    _invoke(["--seed", "7", "--out", str(tmp_path), "gen", "--kind", "hidden"])
    AgeDistribution.uniform([(0,), (1,)]).save(tmp_path / "ages.json")
    res = _invoke(["--out", str(tmp_path), "cross-loss",
                   "--train", str(tmp_path / "model.json"),
                   "--test", str(tmp_path / "model.json"),
                   "--ages", str(tmp_path / "ages.json")])
    assert res.exit_code == 0
    rows = _csv_rows(tmp_path / "cross_loss.csv")
    assert abs(float(rows[0]["gap"])) <= 1e-12
    assert float(rows[0]["beta"]) == 0.0


def test_cross_loss_sweep_columns(tmp_path):
    _invoke(["--seed", "7", "--out", str(tmp_path), "gen", "--kind", "hidden"])
    _invoke(["--seed", "30", "--out", str(tmp_path / "other"), "gen", "--kind", "hidden",
             "--noise", "0.6"])
    AgeDistribution.uniform([(0,), (1,)]).save(tmp_path / "ages.json")
    res = _invoke(["--out", str(tmp_path), "cross-loss",
                   "--train", str(tmp_path / "model.json"),
                   "--test", str(tmp_path / "other" / "model.json"),
                   "--ages", str(tmp_path / "ages.json"),
                   "--sweep", "--etas", "0.5,0.25"])
    assert res.exit_code == 0
    rows = _csv_rows(tmp_path / "cross_loss.csv")
    assert [r["eta"] for r in rows] == ["0.5", "0.25"]
    assert set(rows[0]) == {"eta", "beta", "training", "testing", "gap"}
    assert float(rows[0]["beta"]) > float(rows[1]["beta"]) > 0


def test_simulate_aoi_sawtooth_and_bad_trace(tmp_path):
    DeliveryTrace((((0, 1), (3, 5)),)).to_csv(tmp_path / "trace.csv")
    res = _invoke(["--out", str(tmp_path), "simulate-aoi",
                   "--trace", str(tmp_path / "trace.csv"), "--horizon", "7"])
    assert res.exit_code == 0
    rows = _csv_rows(tmp_path / "ages.csv")
    assert [r["age_1"] for r in rows] == ["", "1", "2", "3", "4", "2", "3"]
    # malformed trace: delivery before generation
    (tmp_path / "bad.csv").write_text("source_id,G,D\n1,3,2\n")
    res = _invoke(["--out", str(tmp_path), "simulate-aoi",
                   "--trace", str(tmp_path / "bad.csv"), "--horizon", "5"])
    assert res.exit_code != 0



@pytest.mark.parametrize("name", ["log", "quad", "zero-one"])
def test_each_loss_name_scores_the_curve_with_its_kernel(tmp_path, name):
    kernel = {"log": log_loss, "quad": quadratic_loss, "zero-one": zero_one_loss}[name]()
    assert _invoke(["--seed", "4", "--out", str(tmp_path), "gen", "--sources", "2"]).exit_code == 0
    res = _invoke(["--loss", name, "--out", str(tmp_path), "age-curve",
                   "--model", str(tmp_path / "model.json"), "--grid", "0..1x0..2"])
    assert res.exit_code == 0
    provider = ExactLawProvider(ProcessModel.load(tmp_path / "model.json"))
    want = loss_curve(provider, [(i, j) for i in range(2) for j in range(3)], kernel)
    assert [float(row["loss"]) for row in _csv_rows(tmp_path / "curve.csv")] == list(want.values)

def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loss": "quad", "out": str(tmp_path / "cfgout")}))
    _invoke(["--seed", "4", "--out", str(tmp_path), "gen", "--kind", "markov"])
    # config file sets loss & out; flag overrides out
    res = _invoke(["--config", str(cfg), "--out", str(tmp_path), "age-curve",
                   "--model", str(tmp_path / "model.json"), "--grid", "0..2"])
    assert res.exit_code == 0
    meta = json.loads((tmp_path / "age_curve.meta.json").read_text())
    assert meta["config"]["loss"] == "quad"
    assert meta["config"]["out"] == str(tmp_path)


def test_untrained_cell_exits_nonzero(tmp_path):
    # train model never emits symbol 2, so that feature cell is untrained;
    # the test model puts mass there
    import numpy as np

    from aof_lab import OutcomeSpace

    space3 = OutcomeSpace((0, 1, 2))
    space2 = OutcomeSpace((0, 1))
    T = np.array([[0.6, 0.4], [0.3, 0.7]])
    narrow_emit = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    wide_emit = np.array([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2]])
    target = np.array([[0.8, 0.2], [0.25, 0.75]])
    ProcessModel(T, [narrow_emit], [space3], target, space2).save(tmp_path / "train.json")
    ProcessModel(T, [wide_emit], [space3], target, space2).save(tmp_path / "test.json")
    AgeDistribution.point_mass((1,)).save(tmp_path / "ages.json")
    res = _invoke(["--out", str(tmp_path), "cross-loss",
                   "--train", str(tmp_path / "train.json"),
                   "--test", str(tmp_path / "test.json"),
                   "--ages", str(tmp_path / "ages.json")])
    assert res.exit_code != 0
    assert "untrained" in res.output.lower()


@pytest.mark.parametrize("gen_args", [["--sources", "1"], ["--sources", "2", "--window", "2", "--delay", "1"]])
def test_cross_loss_rows_equal_direct_provider_evaluation(tmp_path, gen_args):
    for seed, out in (("7", tmp_path / "train"), ("30", tmp_path / "test")):
        _invoke(["--seed", seed, "--out", str(out), "gen", "--targets", "3", *gen_args])
    train = ExactLawProvider(ProcessModel.load(tmp_path / "train" / "model.json"))
    test = ExactLawProvider(ProcessModel.load(tmp_path / "test" / "model.json"))
    ages = AgeDistribution.uniform(list(np.ndindex(*(3,) * train.m)))
    ages.save(tmp_path / "ages.json")
    loss = quadratic_loss()
    training = joint_training_loss(train, ages, loss, True)
    args = ["--loss", "quad", "--out", str(tmp_path), "cross-loss",
            "--train", str(tmp_path / "train" / "model.json"),
            "--test", str(tmp_path / "test" / "model.json"), "--ages", str(tmp_path / "ages.json")]
    for sweep in (False, True):
        res = _invoke(args + (["--sweep", "--etas", "0.5,0.125"] if sweep else []))
        assert res.exit_code == 0
        rows = _csv_rows(tmp_path / "cross_loss.csv")
        etas = [0.5, 0.125] if sweep else [None]
        assert len(rows) == len(etas)
        for row, eta in zip(rows, etas):
            provider = test if eta is None else MixtureLawProvider(base=train, other=test, eta=eta)
            t = eval_testing_loss(train, provider, ages, loss)
            b = beta_between(dynamic_joint(train, ages), dynamic_joint(provider, ages)).beta
            want = {"beta": b, "training": training, "testing": t, "gap": t - training}
            assert {k: float(row[k]) for k in want} == want
            assert ("eta" in row) == sweep
