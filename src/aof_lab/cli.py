"""Command-line front end: generators, ingestion, and plot-ready reports.

Every command is deterministic given its flags plus ``--seed``; outputs are
written atomically (temp file + rename) and each report carries the
effective configuration that produced it.  Flags override config-file
values, which override defaults.  Each command imports the modules it calls
at the top of its body, so a cold run loads only what that command runs.
A process that starts as the CLI runs BLAS on one thread unless
``OPENBLAS_NUM_THREADS`` is already set.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

# numpy's OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads; left
# unset, it starts a worker thread that spins on another core, and no kernel
# here gives it work (the matrix products are a few states wide).  A process
# that loaded numpy before this module (a notebook, a test runner) has its
# threads already: leave its environment as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ._util import csv_table, read_json, write_text_atomic
from .errors import AofLabError

if TYPE_CHECKING:  # pragma: no cover
    from .losses import LossSpec

DEFAULTS = {
    "seed": 0,
    "loss": "log",
    "out": ".",
    "lambda": 0.0,
    "lag_cap": 8,
}


def _domain_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except AofLabError as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


def _config(data: dict) -> dict:
    unknown = set(data) - set(DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    for key, value in data.items():
        want = (int, float) if key == "lambda" else type(DEFAULTS[key])
        if isinstance(value, bool) or not isinstance(value, want):
            raise TypeError(f"config key {key!r} must be {type(DEFAULTS[key]).__name__}, got {value!r}")
    return data


def _settings(ctx) -> dict:
    cfg = dict(DEFAULTS)
    if ctx.obj.get("config"):
        cfg.update(read_json(ctx.obj["config"], _config))
    for key in DEFAULTS:
        flag = ctx.obj.get(key)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _parse_loss(spec: str) -> LossSpec:
    from . import losses

    if spec == "log":
        return losses.log_loss()
    if spec == "quad":
        return losses.quadratic_loss()
    if spec == "zero-one":
        return losses.zero_one_loss()
    if spec.startswith("table:"):
        return read_json(spec.split(":", 1)[1], _table_loss)
    raise click.ClickException(f"unknown loss {spec!r}; use log, quad, zero-one, or table:<path>")


def _table_loss(data: dict) -> LossSpec:
    from . import losses
    from .spaces import freeze_label

    return losses.table_loss([freeze_label(o) for o in data["outcomes"]], data["actions"], data["loss"])


def _provider(model_path, data_path, cfg):
    if (model_path is None) == (data_path is None):
        raise click.ClickException("exactly one law source is required: --model or --data")
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
        raise click.ClickException(f"{option}: cannot read {text!r}") from None


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


def _emit_json(path: Path, payload: dict) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2) + "\n")
    click.echo(f"wrote {path}")


def _emit_csv(path: Path, write, meta: dict) -> None:
    """Write a CSV through ``write(path)``, then its meta sidecar."""
    write(path)
    click.echo(f"wrote {path}")
    _emit_json(path.with_suffix(path.suffix + ".meta.json"), meta)


def _table(header, rows):
    return lambda path: write_text_atomic(path, csv_table(header, rows))


@click.group()
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON config file; flags override it.")
@click.option("--seed", type=int, default=None, help="Base RNG seed.")
@click.option("--loss", "loss_", type=str, default=None, help="log, quad, zero-one, or table:<path>.")
@click.option("--out", type=click.Path(file_okay=False), default=None, help="Output directory.")
@click.option("--lambda", "lambda_", type=float, default=None, help="Smoothing pseudo-count for empirical laws.")
@click.option("--lag-cap", type=int, default=None, help="Default lag horizon for epsilon grids.")
@click.pass_context
def main(ctx, config, seed, loss_, out, lambda_, lag_cap):
    """Quantify how feature staleness moves forecasting loss."""
    ctx.ensure_object(dict)
    ctx.obj.update(
        {"config": config, "seed": seed, "loss": loss_, "out": out, "lambda": lambda_, "lag_cap": lag_cap}
    )


@main.command()
@click.option("--kind", type=click.Choice(["markov", "hidden"]), default="hidden")
@click.option("--states", type=int, default=4)
@click.option("--sources", type=int, default=1)
@click.option("--symbols", type=int, default=2)
@click.option("--targets", type=int, default=2)
@click.option("--window", type=int, default=1)
@click.option("--delay", type=int, default=0)
@click.option("--noise", type=float, default=0.2)
@click.option("--concentration", type=float, default=1.0)
@click.option("--length", type=int, default=0, help="Trajectory rows to sample; 0 for model only.")
@click.pass_context
@_domain_errors
def gen(ctx, kind, states, sources, symbols, targets, window, delay, noise, concentration, length):
    """Generate a process model (and optionally a sampled trajectory)."""
    from . import processes

    cfg = _settings(ctx)
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
    trajectory = processes.sample_trajectory(model, length, cfg["seed"]) if length else None
    out = Path(cfg["out"])
    payload = model.to_json_dict()
    payload["config"] = {**cfg, "kind": kind, "length": length}
    _emit_json(out / "model.json", payload)
    if trajectory is not None:
        trajectory.to_csv(out / "trajectory.csv")
        click.echo(f"wrote {out / 'trajectory.csv'}")


@main.command("age-curve")
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--grid", required=True, help="Ranges like 0..3x0..2 or explicit 0,0;1,1;2,2.")
@click.option("--windows", default=None, help="Comma list of window lengths to sweep (model source only).")
@click.pass_context
@_domain_errors
def age_curve(ctx, model_path, data_path, grid, windows):
    """Minimum training loss over a grid of age vectors."""
    from . import analysis

    cfg = _settings(ctx)
    loss = _parse_loss(cfg["loss"])
    provider, model = _provider(model_path, data_path, cfg)
    vectors = _parse("--grid", grid, _grid)
    out = Path(cfg["out"])
    meta = {"config": {**cfg, "grid": grid, "windows": windows}, "curves": {}}
    if windows:
        if model is None:
            raise click.ClickException("--windows needs a --model law source")
        from . import processes

        blist = _parse("--windows", windows, _ints)
        curves = [
            analysis.loss_curve(processes.ExactLawProvider(model.with_window(b)), vectors, loss) for b in blist
        ]
        named = [(f"b={b}", f"curve_b{b}.csv", curve) for b, curve in zip(blist, curves)]
    else:
        named = [("default", "curve.csv", analysis.loss_curve(provider, vectors, loss))]
    for name, filename, curve in named:
        curve.to_csv(out / filename)
        click.echo(f"wrote {out / filename}")
        meta["curves"][name] = {"nonmonotonicity_index": curve.nonmonotonicity_index}
    _emit_json(out / "age_curve.meta.json", meta)


@main.command()
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--delta", required=True, help="Age vector, e.g. 2,1.")
@click.option("--path", "path_spec", default="both", help="Coordinate order like 0,1 or 'both'.")
@click.pass_context
@_domain_errors
def decompose(ctx, model_path, data_path, delta, path_spec):
    """Split the minimum training loss into gained/lost staircase sums."""
    from . import analysis

    cfg = _settings(ctx)
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


@main.command()
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--tau-max", type=int, default=None)
@click.option("--mu-max", type=int, default=None)
@click.option("--sweep", is_flag=True, default=False, help="Sweep mixture weights; needs --mix-ref.")
@click.option("--mix-ref", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Markov reference model for the mixture sweep.")
@click.option("--etas", default="0.5,0.25,0.125,0.0625,0.03125,0.015625")
@click.pass_context
@_domain_errors
def epsilon(ctx, model_path, data_path, tau_max, mu_max, sweep, mix_ref, etas):
    """Markov-deviation coefficient over a capped lag grid."""
    from . import divergence

    cfg = _settings(ctx)
    provider, model = _provider(model_path, data_path, cfg)
    tau_max = tau_max if tau_max is not None else cfg["lag_cap"]
    mu_max = mu_max if mu_max is not None else cfg["lag_cap"]
    out = Path(cfg["out"])
    if sweep:
        if mix_ref is None or model is None:
            raise click.ClickException("--sweep needs --model and --mix-ref model files")
        from . import processes

        ref = processes.ProcessModel.load(mix_ref)
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


@main.command()
@click.option("--train", "train_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Reference joint-law JSON file.")
@click.option("--test", "test_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.pass_context
@_domain_errors
def beta(ctx, train_path, test_path):
    """Chi-squared neighborhood radius between two stored joint laws."""
    from . import divergence
    from .spaces import JointPmf

    cfg = _settings(ctx)
    train = JointPmf.load(train_path)
    test = JointPmf.load(test_path)
    rep = divergence.beta_between(train, test)
    payload = rep.to_json_dict()
    payload["config"] = {**cfg, "train": train_path, "test": test_path}
    _emit_json(Path(cfg["out"]) / "beta.json", payload)


@main.command("order-check")
@click.option("--dist-a", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--dist-b", type=click.Path(exists=True, dir_okay=False), required=True)
@click.pass_context
@_domain_errors
def order_check(ctx, dist_a, dist_b):
    """Multivariate stochastic-order verdict with an upper-set witness."""
    from . import aoi

    cfg = _settings(ctx)
    a = aoi.AgeDistribution.load(dist_a)
    b = aoi.AgeDistribution.load(dist_b)
    verdict = aoi.stochastic_order_multivariate(a, b)
    payload = verdict.to_json_dict()
    payload["config"] = {**cfg, "dist_a": dist_a, "dist_b": dist_b}
    _emit_json(Path(cfg["out"]) / "order.json", payload)


@main.command("cross-loss")
@click.option("--train", "train_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Training process model JSON.")
@click.option("--test", "test_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--ages", "ages_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Age distribution JSON; default is fresh features (all ages zero).")
@click.option("--sweep", is_flag=True, default=False, help="Mix the test model toward the train model.")
@click.option("--etas", default="0.5,0.25,0.125,0.0625,0.03125,0.015625")
@click.pass_context
@_domain_errors
def cross_loss(ctx, train_path, test_path, ages_path, sweep, etas):
    """Training vs testing loss under dynamic ages (optionally a beta sweep)."""
    from . import analysis, aoi, processes

    cfg = _settings(ctx)
    loss = _parse_loss(cfg["loss"])
    train_model = processes.ProcessModel.load(train_path)
    test_model = processes.ProcessModel.load(test_path)
    train_prov = processes.ExactLawProvider(train_model)
    if ages_path:
        ages = aoi.AgeDistribution.load(ages_path)
    else:
        ages = aoi.AgeDistribution.point_mass((0,) * train_prov.m)
    out = Path(cfg["out"])
    meta = {"config": {**cfg, "train": train_path, "test": test_path, "ages": ages_path, "etas": etas if sweep else None}}
    # the plain run is the sweep's eta = 1.0 case: testing under the test model itself
    eta_values = _parse("--etas", etas, _floats) if sweep else [1.0]
    test_prov = processes.ExactLawProvider(test_model)
    training, results = analysis.cross_loss_sweep(train_prov, test_prov, ages, loss, eta_values)
    rows = [[eta, b, training, t, t - training] for eta, (b, t) in zip(eta_values, results)]
    header = ["eta", "beta", "training", "testing", "gap"]
    if not sweep:
        header, rows = header[1:], [row[1:] for row in rows]
    _emit_csv(out / "cross_loss.csv", _table(header, rows), meta)


@main.command("simulate-aoi")
@click.option("--trace", "trace_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="CSV with columns source_id, G, D.")
@click.option("--horizon", type=int, required=True)
@click.pass_context
@_domain_errors
def simulate_aoi(ctx, trace_path, horizon):
    """Evaluate age sample paths from a generation/delivery trace."""
    from . import aoi

    cfg = _settings(ctx)
    trace = aoi.DeliveryTrace.from_csv(trace_path)
    ages = aoi.age_process(trace, horizon)
    _emit_csv(Path(cfg["out"]) / "ages.csv", ages.to_csv,
              {"config": {**cfg, "trace": trace_path, "horizon": horizon}})


if __name__ == "__main__":
    main()
