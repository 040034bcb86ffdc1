"""Command-line front end: generators, ingestion, and plot-ready reports.

Every command is deterministic given its flags plus ``--seed``; outputs are
written atomically (temp file + rename) and each report carries the
effective configuration that produced it.  Flags override config-file
values, which override defaults.  Each command imports the modules it calls
at the top of its body, so a cold run loads only what that command runs;
the helpers that write files or read the config import ``_util`` when
called.  So ``--help``, a command's help, a usage error and a missing input
file load only ``aof_lab``, ``cli`` and ``errors``, not numpy: a cold
``--help`` takes 0.064 s and 15.1 MB peak RSS on a 2-CPU host, against
0.147 s and 28.1 MB when this module imported ``_util`` as it loaded.
A process that starts as the CLI runs BLAS on one thread unless
``OPENBLAS_NUM_THREADS`` is already set.

The parser is stdlib ``argparse``, built once when this module loads.
``main(argv)`` returns the exit code: 0 on success, 1 after a domain error
(one ``Error: <message>`` line on stderr), 2 after a usage error (a
usage text, then ``Error: <message>``).  ``main.main(args)`` runs a
command in this process and raises on any failure instead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

# numpy's OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads; left
# unset, it starts a worker thread that spins on another core, and no kernel
# here gives it work (the matrix products are a few states wide).  A process
# that loaded numpy before this module (a notebook, a test runner) has its
# threads already: leave its environment as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import AofLabError

if TYPE_CHECKING:  # pragma: no cover
    from .losses import LossSpec


class UsageError(Exception):
    """A command line the parser rejects; ``usage`` is the usage text of
    the (sub)command it was parsing."""

    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _HelpShown(Exception):
    """``--help`` printed its text; the command is done."""


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that raises instead of exiting, so a command
    run in-process never ends in ``SystemExit``."""

    def error(self, message):
        raise UsageError(message, self.format_usage())

    def exit(self, status=0, message=None):
        # argparse exits only from error(), overridden above, and after --help
        raise _HelpShown

    def parse_known_args(self, args=None, namespace=None):
        # a command's leftovers are its own usage error: argparse would hand
        # them up to the top-level parser, whose usage is not the command's
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(getattr(token, "typed", token) for token in extras))
        return namespace, extras


class _Joined(str):
    """The token ``--option=value`` made of ``--option value``, which it
    keeps as typed."""

    def __new__(cls, option: str, value: str):
        joined = super().__new__(cls, f"{option}={value}")
        joined.typed = f"{option} {value}"
        return joined


def _input_file(text: str) -> str:
    if not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"file {text!r} does not exist")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"file {text!r} is a directory")
    if not os.access(text, os.R_OK):
        raise argparse.ArgumentTypeError(f"file {text!r} is not readable")
    return text


def _output_dir(text: str) -> str:
    if os.path.exists(text) and not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"directory {text!r} is a file")
    return text


def _attach_values(argv: Sequence[str]) -> list[str]:
    """Each ``--option value`` pair as ``--option=value``, so the token after
    an option that takes a value is that value whatever it starts with
    (``--lambda -1e-3``, ``--grid -1..2``); argparse would take such a
    token for an option."""
    out, tokens = [], iter(argv)
    for token in tokens:
        if token in _VALUED:
            value = next(tokens, None)
            token = token if value is None else _Joined(token, value)
        out.append(token)
    return out


def _settings(args: dict) -> dict:
    """The settings every command gets, popped from the parsed ``args``:
    the defaults, then the ``--config`` file, then the flags given.  They
    are built once a command runs, so help and usage errors load no
    ``_util`` (and no numpy)."""
    from ._util import DEFAULT_LAG_CAP, read_json

    defaults = {"seed": 0, "loss": "log", "out": ".", "lambda": 0.0, "lag_cap": DEFAULT_LAG_CAP}
    config = args.pop("config")
    flags = {key: args.pop(key) for key in defaults}
    cfg = dict(defaults)
    if config:
        cfg.update(read_json(config, lambda data: _config(data, defaults)))
    cfg.update({key: value for key, value in flags.items() if value is not None})
    return cfg


def _config(data: dict, defaults: dict) -> dict:
    unknown = set(data) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    for key, value in data.items():
        want = (int, float) if key == "lambda" else type(defaults[key])
        if isinstance(value, bool) or not isinstance(value, want):
            raise TypeError(f"config key {key!r} must be {type(defaults[key]).__name__}, got {value!r}")
    return data


def _parse_loss(spec: str) -> LossSpec:
    from . import losses
    from ._util import read_json

    if spec == "log":
        return losses.log_loss()
    if spec == "quad":
        return losses.quadratic_loss()
    if spec == "zero-one":
        return losses.zero_one_loss()
    if spec.startswith("table:"):
        return read_json(spec.split(":", 1)[1], _table_loss)
    raise AofLabError(f"unknown loss {spec!r}; use log, quad, zero-one, or table:<path>")


def _table_loss(data: dict) -> LossSpec:
    from . import losses
    from .spaces import freeze_label

    return losses.table_loss([freeze_label(o) for o in data["outcomes"]], data["actions"], data["loss"])


def _provider(model_path, data_path, cfg):
    if (model_path is None) == (data_path is None):
        raise AofLabError("exactly one law source is required: --model or --data")
    if model_path is not None:
        from . import processes

        model = processes.ProcessModel.load(model_path)
        return processes.ExactLawProvider(model), model
    from . import ingest

    dataset = ingest.Dataset.from_csv(data_path)
    return ingest.EmpiricalLawProvider(dataset, pseudo_count=cfg["lambda"]), None


def _parse(option: str, text: str, parse):
    """``parse(text)`` for the value of ``option``; a value it cannot read
    is a one-line error that names the option."""
    try:
        return parse(text)
    except ValueError:
        raise AofLabError(f"{option}: cannot read {text!r}") from None


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _grid(spec: str) -> list[tuple[int, ...]]:
    spec = spec.strip()
    if ";" in spec or ("," in spec and ".." not in spec):
        return [tuple(_ints(part)) for part in spec.split(";")]
    ranges = []
    for part in spec.split("x"):
        lo, _, hi = part.partition("..")
        lo = int(lo)
        hi = int(hi) if hi else lo
        ranges.append(range(lo, hi + 1))
    return [tuple(v) for v in itertools.product(*ranges)]


def _wrote(path: Path) -> None:
    print(f"wrote {path}", flush=True)


def _emit_json(path: Path, payload: dict) -> None:
    from ._util import write_text_atomic

    write_text_atomic(path, (json.dumps(payload, indent=2) + "\n").encode())
    _wrote(path)


def _emit_csv(path: Path, write, meta: dict) -> None:
    """Write a CSV through ``write(path)``, then its meta sidecar."""
    write(path)
    _wrote(path)
    _emit_json(path.with_suffix(path.suffix + ".meta.json"), meta)


def _table(header, rows):
    from ._util import csv_table, write_text_atomic

    return lambda path: write_text_atomic(path, csv_table(header, rows))


def gen(cfg, kind, states, sources, symbols, targets, window, delay, noise, concentration, length):
    """Generate a process model (and optionally a sampled trajectory)."""
    from . import processes
    from ._util import write_text_atomic

    if kind == "markov":
        model = processes.make_markov_observable(
            cfg["seed"], n_states=states, n_sources=sources, n_targets=targets,
            window=window, delay=delay,
        )
    else:
        model = processes.make_hidden_nonmarkov(
            cfg["seed"], n_states=states, n_sources=sources, n_symbols=symbols,
            n_targets=targets, window=window, delay=delay, noise=noise,
            concentration=concentration,
        )
    trajectory = processes.trajectory_csv(model, length, cfg["seed"]) if length else None
    out = Path(cfg["out"])
    payload = model.to_json_dict()
    payload["config"] = {**cfg, "kind": kind, "length": length}
    _emit_json(out / "model.json", payload)
    if trajectory is not None:
        write_text_atomic(out / "trajectory.csv", trajectory)
        _wrote(out / "trajectory.csv")


def age_curve(cfg, model_path, data_path, grid, windows):
    """Minimum training loss over a grid of age vectors."""
    from . import analysis

    loss = _parse_loss(cfg["loss"])
    provider, model = _provider(model_path, data_path, cfg)
    vectors = _parse("--grid", grid, _grid)
    out = Path(cfg["out"])
    meta = {"config": {**cfg, "grid": grid, "windows": windows}, "curves": {}}
    if windows:
        if model is None:
            raise AofLabError("--windows needs a --model law source")
        from . import processes

        blist = _parse("--windows", windows, _ints)
        twice = [b for i, b in enumerate(blist) if b in blist[:i]]
        if twice:
            raise AofLabError(f"--windows: window {twice[0]} is given twice")
        curves = [
            analysis.loss_curve(processes.ExactLawProvider(model.with_window(b)), vectors, loss) for b in blist
        ]
        named = [(f"b={b}", f"curve_b{b}.csv", curve) for b, curve in zip(blist, curves)]
    else:
        named = [("default", "curve.csv", analysis.loss_curve(provider, vectors, loss))]
    for name, filename, curve in named:
        curve.to_csv(out / filename)
        _wrote(out / filename)
        meta["curves"][name] = {"nonmonotonicity_index": curve.nonmonotonicity_index}
    _emit_json(out / "age_curve.meta.json", meta)


def decompose(cfg, model_path, data_path, delta, path_spec):
    """Split the minimum training loss into gained/lost staircase sums."""
    from . import analysis

    loss = _parse_loss(cfg["loss"])
    provider, _ = _provider(model_path, data_path, cfg)
    vec = tuple(_parse("--delta", delta, _ints))
    if path_spec == "both":
        # one path when the two orders coincide (a single source)
        paths = list(dict.fromkeys([tuple(range(provider.m)), tuple(reversed(range(provider.m)))]))
    else:
        paths = [tuple(_parse("--path", path_spec, _ints))]
    reports = [analysis.decompose(provider, vec, loss, p) for p in paths]
    payload = {"config": {**cfg, "delta": delta, "path": path_spec},
               "reports": [r.to_json_dict() for r in reports]}
    _emit_json(Path(cfg["out"]) / "decompose.json", payload)


def epsilon(cfg, model_path, data_path, tau_max, mu_max, sweep, mix_ref, etas):
    """Markov-deviation coefficient over a capped lag grid."""
    from . import divergence

    provider, model = _provider(model_path, data_path, cfg)
    tau_max = tau_max if tau_max is not None else cfg["lag_cap"]
    mu_max = mu_max if mu_max is not None else cfg["lag_cap"]
    out = Path(cfg["out"])
    if sweep:
        if mix_ref is None or model is None:
            raise AofLabError("--sweep needs --model and --mix-ref model files")
        from . import processes

        ref = processes.ProcessModel.load(mix_ref)
        etas = _ETAS if etas is None else etas
        eta_values = _parse("--etas", etas, _floats)
        # the laws of processes.mix_toward_markov(model, ref, eta) for each eta
        reports = divergence.epsilon_sweep(processes.ExactLawProvider(ref), provider, eta_values, tau_max, mu_max)
        rows = [[eta, rep.epsilon] for eta, rep in zip(eta_values, reports)]
        _emit_csv(out / "epsilon_sweep.csv", _table(["eta", "epsilon"], rows),
                  {"config": {**cfg, "tau_max": tau_max, "mu_max": mu_max, "etas": etas}})
    else:
        rep = divergence.epsilon_coefficient(provider, tau_max, mu_max)
        payload = rep.to_json_dict()
        payload["config"] = {**cfg, "tau_max": tau_max, "mu_max": mu_max}
        _emit_json(out / "epsilon.json", payload)


def beta(cfg, train_path, test_path):
    """Chi-squared neighborhood radius between two stored joint laws."""
    from . import divergence
    from .spaces import JointPmf

    train = JointPmf.load(train_path)
    test = JointPmf.load(test_path)
    rep = divergence.beta_between(train, test)
    payload = rep.to_json_dict()
    payload["config"] = {**cfg, "train": train_path, "test": test_path}
    _emit_json(Path(cfg["out"]) / "beta.json", payload)


def order_check(cfg, dist_a, dist_b):
    """Multivariate stochastic-order verdict with an upper-set witness."""
    from . import aoi

    a = aoi.AgeDistribution.load(dist_a)
    b = aoi.AgeDistribution.load(dist_b)
    verdict = aoi.stochastic_order_multivariate(a, b)
    payload = verdict.to_json_dict()
    payload["config"] = {**cfg, "dist_a": dist_a, "dist_b": dist_b}
    _emit_json(Path(cfg["out"]) / "order.json", payload)


def cross_loss(cfg, train_path, test_path, ages_path, sweep, etas):
    """Training vs testing loss under dynamic ages (optionally a beta sweep)."""
    from . import analysis, aoi, processes

    etas = _ETAS if sweep and etas is None else etas
    loss = _parse_loss(cfg["loss"])
    train_model = processes.ProcessModel.load(train_path)
    test_model = processes.ProcessModel.load(test_path)
    train_prov = processes.ExactLawProvider(train_model)
    if ages_path:
        ages = aoi.AgeDistribution.load(ages_path)
    else:
        ages = aoi.AgeDistribution.point_mass((0,) * train_prov.m)
    out = Path(cfg["out"])
    meta = {"config": {**cfg, "train": train_path, "test": test_path, "ages": ages_path, "etas": etas}}
    # the plain run is the sweep's eta = 1.0 case: testing under the test model itself
    eta_values = _parse("--etas", etas, _floats) if sweep else [1.0]
    test_prov = processes.ExactLawProvider(test_model)
    training, results = analysis.cross_loss_sweep(train_prov, test_prov, ages, loss, eta_values)
    rows = [[eta, b, training, t, t - training] for eta, (b, t) in zip(eta_values, results)]
    header = ["eta", "beta", "training", "testing", "gap"]
    if not sweep:
        header, rows = header[1:], [row[1:] for row in rows]
    _emit_csv(out / "cross_loss.csv", _table(header, rows), meta)


def simulate_aoi(cfg, trace_path, horizon):
    """Evaluate age sample paths from a generation/delivery trace."""
    from . import aoi

    trace = aoi.DeliveryTrace.from_csv(trace_path)
    ages = aoi.age_process(trace, horizon)
    _emit_csv(Path(cfg["out"]) / "ages.csv", ages.to_csv,
              {"config": {**cfg, "trace": trace_path, "horizon": horizon}})


_ETAS = "0.5,0.25,0.125,0.0625,0.03125,0.015625"


def _build_parser() -> tuple[_Parser, frozenset[str]]:
    """The parser, and the option strings that take a value."""
    valued = set()

    def adder(target):
        def add(*names, **kwargs):
            action = target.add_argument(*names, **kwargs)
            if action.nargs is None:  # one value; a flag has nargs 0
                valued.update(action.option_strings)
        return add

    parser = _Parser(prog="aof-lab", description="Quantify how feature staleness moves forecasting loss.",
                     allow_abbrev=False)
    option = adder(parser)
    option("--config", type=_input_file, metavar="FILE", help="JSON config file; flags override it.")
    option("--seed", type=int, metavar="INT", help="Base RNG seed.")
    option("--loss", metavar="SPEC", help="log, quad, zero-one, or table:<path>.")
    option("--out", type=_output_dir, metavar="DIR", help="Output directory.")
    option("--lambda", type=float, metavar="FLOAT", help="Smoothing pseudo-count for empirical laws.")
    option("--lag-cap", type=int, metavar="INT", help="Default lag horizon for epsilon grids.")
    commands = parser.add_subparsers(required=True, metavar="COMMAND")

    def command(run):
        sub = commands.add_parser(run.__name__.replace("_", "-"), help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        return adder(sub)

    def law_source(option):
        option("--model", dest="model_path", type=_input_file, metavar="FILE")
        option("--data", dest="data_path", type=_input_file, metavar="FILE")

    option = command(gen)
    option("--kind", choices=["markov", "hidden"], default="hidden")
    for name, default in (("--states", 4), ("--sources", 1), ("--symbols", 2), ("--targets", 2), ("--window", 1),
                          ("--delay", 0)):
        option(name, type=int, default=default, metavar="INT")
    option("--noise", type=float, default=0.2, metavar="FLOAT")
    option("--concentration", type=float, default=1.0, metavar="FLOAT")
    option("--length", type=int, default=0, metavar="INT", help="Trajectory rows to sample; 0 for model only.")

    option = command(age_curve)
    law_source(option)
    option("--grid", required=True, help="Ranges like 0..3x0..2 or explicit 0,0;1,1;2,2.")
    option("--windows", help="Comma list of window lengths to sweep (model source only).")

    option = command(decompose)
    law_source(option)
    option("--delta", required=True, help="Age vector, e.g. 2,1.")
    option("--path", dest="path_spec", default="both", help="Coordinate order like 0,1 or 'both'.")

    option = command(epsilon)
    law_source(option)
    option("--tau-max", type=int, metavar="INT")
    option("--mu-max", type=int, metavar="INT")
    option("--sweep", action="store_true", help="Sweep mixture weights; needs --mix-ref.")
    option("--mix-ref", type=_input_file, metavar="FILE", help="Markov reference model for the mixture sweep.")
    option("--etas", help=f"Comma list of mixture weights for --sweep (default {_ETAS}).")

    option = command(beta)
    option("--train", dest="train_path", type=_input_file, required=True, metavar="FILE",
           help="Reference joint-law JSON file.")
    option("--test", dest="test_path", type=_input_file, required=True, metavar="FILE")

    option = command(order_check)
    option("--dist-a", type=_input_file, required=True, metavar="FILE")
    option("--dist-b", type=_input_file, required=True, metavar="FILE")

    option = command(cross_loss)
    option("--train", dest="train_path", type=_input_file, required=True, metavar="FILE",
           help="Training process model JSON.")
    option("--test", dest="test_path", type=_input_file, required=True, metavar="FILE")
    option("--ages", dest="ages_path", type=_input_file, metavar="FILE",
           help="Age distribution JSON; default is fresh features (all ages zero).")
    option("--sweep", action="store_true", help="Mix the test model toward the train model.")
    option("--etas", help=f"Comma list of mixture weights for --sweep (default {_ETAS}).")

    option = command(simulate_aoi)
    option("--trace", dest="trace_path", type=_input_file, required=True, metavar="FILE",
           help="CSV with columns source_id, G, D.")
    option("--horizon", type=int, required=True, metavar="INT")
    return parser, frozenset(valued)


# built once, as it would be by decorators: a warm caller runs many commands
_PARSER, _VALUED = _build_parser()


def _run(argv: Sequence[str]) -> None:
    """Parse ``argv`` and run its command; a rejected command line raises
    ``UsageError``, a failed command ``AofLabError``."""
    try:
        args = vars(_PARSER.parse_args(_attach_values(argv)))
    except _HelpShown:
        return
    run = args.pop("run")
    # a sweep-only option without --sweep would be ignored: refuse it
    for name in ("mix_ref", "etas"):
        if args.get(name) is not None and not args["sweep"]:
            raise AofLabError(f"--{name.replace('_', '-')} only applies with --sweep")
    cfg = _settings(args)
    run(cfg, **args)


def main(argv: Sequence[str] | None = None) -> int:
    """The ``aof-lab`` command: run ``argv`` (default ``sys.argv[1:]``) and
    return the exit code."""
    try:
        _run(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"{exc.usage}Error: {exc}", file=sys.stderr)
        return 2
    except AofLabError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        return 1
    return 0


def _in_process(args, prog_name: str = "aof-lab", standalone_mode: bool = False) -> None:
    """Run one command in this process, raising ``UsageError`` or
    ``AofLabError`` on failure rather than returning an exit code.  It keeps
    the call ``main.main(args=[...], prog_name=..., standalone_mode=False)``
    of the warm benchmark runs working; the two keywords are ignored."""
    _run(args)


main.main = _in_process

if __name__ == "__main__":
    sys.exit(main())
