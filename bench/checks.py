"""Output checks, run outside the timed region.

Each check recomputes what it can with the benchmark's own numpy formulas,
from exact window laws, from the input files or from the generated ground
truth, and raises :class:`CheckFailure` when an output disagrees.  Spot
points are drawn from a generator seeded by the workload seed, so a run is
reproducible.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from aof_lab.processes import ProcessModel, exact_window_law

IDENTITY_ATOL = 1e-9      # decompose h == f1 - f2, recomputed entropies and CMIs
TERM_ATOL = 1e-12         # staircase terms are nonnegative up to this
GAP_ATOL = 1e-12          # cross-loss gap == testing - training
SPOT_POINTS = 3           # grid points recomputed per curve / epsilon report
AOI_SPOT_SLOTS = 400


class CheckFailure(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _close(a: float, b: float, what: str, atol: float = IDENTITY_ATOL) -> None:
    _require(abs(a - b) <= atol * max(1.0, abs(b)), f"{what}: {a!r} != {b!r}")


# -- independent formulas --------------------------------------------------

def _arranged(probs: np.ndarray, names: tuple, *groups: list[str]) -> np.ndarray:
    """Marginalize a joint array onto the named groups, one flat axis per group."""
    keep = [n for g in groups for n in g]
    axes = [names.index(n) for n in keep]
    drop = tuple(i for i in range(len(names)) if i not in axes)
    arr = probs.sum(axis=drop) if drop else probs
    kept = [i for i in range(len(names)) if i not in drop]
    arr = np.transpose(arr, [kept.index(a) for a in axes])
    sizes = [int(np.prod([probs.shape[names.index(n)] for n in g], dtype=np.int64)) for g in groups]
    return arr.reshape(sizes)


def log_cond_entropy(rows: np.ndarray) -> float:
    """Shannon conditional entropy (nats) of the column given the row, for a
    (cells, outcomes) joint mass table."""
    w = rows.sum(axis=1)
    cond = np.divide(rows, w[:, None], out=np.zeros_like(rows), where=w[:, None] > 0)
    nz = rows > 0
    return float(-(rows[nz] * np.log(cond[nz])).sum())


def chi2_cmi(probs: np.ndarray, names: tuple, target: str, future: list[str], given: list[str]) -> float:
    """Chi-squared divergence of P(x, y, z) from P(y|x) P(z|x) P(x)."""
    cube = _arranged(probs, names, given, [target], future) if given else \
        _arranged(probs, names, [target], future)[None]
    px = cube.sum(axis=(1, 2))
    ref = np.einsum("xy,xz->xyz", cube.sum(axis=2), cube.sum(axis=1))
    ref = np.divide(ref, px[:, None, None], out=np.zeros_like(ref), where=px[:, None, None] > 0)
    pos = ref > 0
    _require(not np.any(cube[~pos] > 1e-15), "triple mass on a zero reference cell")
    return float(((cube[pos] - ref[pos]) ** 2 / ref[pos]).sum())


def _epsilon_point(m: int, tau, mu):
    requests = [("y", 0)]
    given, future = [], []
    for l in range(m):
        requests += [(f"x{l + 1}", tau[l]), (f"x{l + 1}", tau[l] + mu[l])]
        given.append(f"x{l + 1}@{tau[l]}")
        if mu[l]:
            future.append(f"x{l + 1}@{tau[l] + mu[l]}")
    return requests, given, future


def _grid_sample(rng, m: int, tau_max: int, mu_max: int, n: int):
    out = []
    while len(out) < n:
        tau = tuple(int(v) for v in rng.integers(0, tau_max + 1, size=m))
        mu = tuple(int(v) for v in rng.integers(0, mu_max + 1, size=m))
        if any(mu):
            out.append((tau, mu))
    return out


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) >= 1, f"{path} is empty")
    return rows[0], rows[1:]


class Trajectory:
    """The sampled trajectory, parsed and integer-coded by the benchmark."""

    def __init__(self, path: str):
        data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        self.t = data[:, 0]
        self.x = np.unique(data[:, 1], return_inverse=True)[1]
        self.y = np.unique(data[:, 3], return_inverse=True)[1]
        self.nx, self.ny = int(self.x.max()) + 1, int(self.y.max()) + 1

    def counts(self, x_lags: list[int]) -> np.ndarray:
        """Window counts over (y@0, x1@lag for each lag), lags distinct."""
        idx = np.arange(len(self.t))
        ok = np.ones(len(self.t), dtype=bool)
        cols = []
        for lag in x_lags:
            j = np.searchsorted(self.t, self.t - lag)
            hit = (j < len(self.t)) & (self.t[np.minimum(j, len(self.t) - 1)] == self.t - lag)
            ok &= hit
            cols.append(np.where(hit, j, 0))
        code = self.y[idx[ok]]
        for col in cols:
            code = code * self.nx + self.x[col[ok]]
        size = self.ny * self.nx ** len(x_lags)
        return np.bincount(code, minlength=size).astype(float).reshape(
            (self.ny,) + (self.nx,) * len(x_lags))


# -- per-command checks ----------------------------------------------------

class Checks:
    def __init__(self, truth: dict, seed: int):
        self.models: dict[str, ProcessModel] = truth.get("models", {})
        self.trace = truth.get("trace")
        self.rng = np.random.default_rng([seed, 7])

    def decompose(self, n_reports: int):
        def check(op):
            payload = json.loads((op.out / "decompose.json").read_text())
            reports = payload["reports"]
            _require(len(reports) == n_reports, f"{len(reports)} reports, want {n_reports}")
            for rep in reports:
                _require(abs(rep["h"] - (rep["f1"] - rep["f2"])) <= IDENTITY_ATOL,
                         f"h {rep['h']} != f1 - f2 = {rep['f1'] - rep['f2']}")
                for term in rep["terms"]:
                    _require(term["gained"] >= -TERM_ATOL and term["lost"] >= -TERM_ATOL,
                             f"negative staircase term {term}")
        return check

    def age_curve_exact(self, model_key: str):
        model = self.models[model_key]

        def check(op):
            meta = json.loads((op.out / "age_curve.meta.json").read_text())
            for key, info in meta["curves"].items():
                b = int(key.split("=")[1])
                header, rows = _read_csv(op.out / f"curve_b{b}.csv")
                _require(header == ["delta_1", "delta_2", "loss"], f"curve header {header}")
                values = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
                _close(info["nonmonotonicity_index"], _nonmonotonicity(values), f"index b={b}")
                wide = model.with_window(b)
                for i in self.rng.choice(len(rows), size=SPOT_POINTS, replace=False):
                    d1, d2 = int(rows[i][0]), int(rows[i][1])
                    law = exact_window_law(wide, [("y", 0), ("x1", d1), ("x2", d2)]).law
                    table = _arranged(law.probs, law.names, [f"x1@{d1}", f"x2@{d2}"], ["y@0"])
                    _close(values[(d1, d2)], log_cond_entropy(table), f"loss b={b} at {(d1, d2)}")
        return check

    def age_curve_data(self, traj_path: str):
        def check(op):
            traj = Trajectory(traj_path)
            header, rows = _read_csv(op.out / "curve.csv")
            _require(header == ["delta_1", "loss"], f"curve header {header}")
            values = {(int(r[0]),): float(r[1]) for r in rows}
            meta = json.loads((op.out / "age_curve.meta.json").read_text())
            _close(meta["curves"]["default"]["nonmonotonicity_index"], _nonmonotonicity(values),
                   "nonmonotonicity index")
            for (d,), value in values.items():
                rows_xy = traj.counts([d]).T
                _close(value, log_cond_entropy(rows_xy / rows_xy.sum()), f"loss at {d}")
        return check

    def _epsilon_report(self, payload: dict, m: int, law_at) -> None:
        eps = payload["epsilon"]
        tau, mu = payload["argmax_tau"], payload["argmax_mu"]
        probs, names, given, future = law_at(tau, mu)
        _close(eps, np.sqrt(chi2_cmi(probs, names, "y@0", future, given)), "epsilon at argmax")
        for tau, mu in _grid_sample(self.rng, m, payload["tau_max"], payload["mu_max"], SPOT_POINTS):
            probs, names, given, future = law_at(tau, mu)
            value = chi2_cmi(probs, names, "y@0", future, given)
            _require(value <= eps * eps + IDENTITY_ATOL, f"grid point {tau},{mu} exceeds epsilon^2")

    def epsilon_exact(self, model_key: str):
        model = self.models[model_key]

        def law_at(tau, mu):
            requests, given, future = _epsilon_point(model.m, tau, mu)
            law = exact_window_law(model, requests).law
            return law.probs, law.names, given, future

        def check(op):
            payload = json.loads((op.out / "epsilon.json").read_text())
            self._epsilon_report(payload, model.m, law_at)
        return check

    def epsilon_sweep(self, model_key: str, ref_key: str, n_etas: int):
        model, ref = self.models[model_key], self.models[ref_key]

        def check(op):
            header, rows = _read_csv(op.out / "epsilon_sweep.csv")
            _require(header == ["eta", "epsilon"], f"sweep header {header}")
            _require(len(rows) == n_etas, f"{len(rows)} sweep rows, want {n_etas}")
            meta = json.loads((op.out / "epsilon_sweep.csv.meta.json").read_text())
            caps = meta["config"]["tau_max"], meta["config"]["mu_max"]
            for eta_s, eps_s in rows:
                eta, eps = float(eta_s), float(eps_s)
                (tau, mu), = _grid_sample(self.rng, model.m, caps[0], caps[1], 1)
                requests, given, future = _epsilon_point(model.m, tau, mu)
                a = exact_window_law(ref, requests).law
                b = exact_window_law(model, requests).law
                mixed = (1.0 - eta) * a.probs + eta * b.probs
                value = chi2_cmi(mixed, a.names, "y@0", future, given)
                _require(value <= eps * eps + IDENTITY_ATOL, f"eta {eta}: grid point exceeds epsilon^2")
        return check

    def epsilon_data(self, traj_path: str, pseudo_count: float):
        def check(op):
            traj = Trajectory(traj_path)

            def law_at(tau, mu):
                lags = [tau[0], tau[0] + mu[0]]
                counts = traj.counts(lags)
                n = counts.sum()
                probs = (counts + pseudo_count) / (n + pseudo_count * counts.size)
                names = ("y@0", f"x1@{lags[0]}", f"x1@{lags[1]}")
                return probs, names, [names[1]], [names[2]]

            payload = json.loads((op.out / "epsilon.json").read_text())
            self._epsilon_report(payload, 1, law_at)
        return check

    def gen(self, length: int, sources: int):
        expected = ["t", *(f"x_{l}" for l in range(1, sources + 1)),
                    *(f"age_{l}" for l in range(1, sources + 1)), "y"]

        def check(op):
            _require((op.out / "model.json").is_file(), "gen wrote no model.json")
            with open(op.out / "trajectory.csv", encoding="utf-8") as fh:
                header = fh.readline().rstrip("\n").split(",")
                n_rows = sum(1 for _ in fh)
            _require(header == expected, f"trajectory header {header}")
            _require(n_rows == length, f"trajectory has {n_rows} rows, want {length}")
        return check

    def simulate_aoi(self, horizon: int):
        def check(op):
            lines = (op.out / "ages.csv").read_text(encoding="utf-8").splitlines()
            m = len(self.trace)
            _require(lines[0] == ",".join(["t"] + [f"age_{l}" for l in range(1, m + 1)]),
                     f"ages header {lines[0]}")
            _require(len(lines) == horizon + 1, f"{len(lines) - 1} age rows, want {horizon}")
            got = np.array([[int(c) if c else -1 for c in line.split(",")] for line in lines[1:]])
            _require(np.array_equal(got[:, 0], np.arange(horizon)), "slot column is not 0..horizon-1")
            # every slot: freshest generation among deliveries so far
            slots = np.arange(horizon)
            for l, (g, d) in enumerate(self.trace, start=1):
                order = np.argsort(d, kind="stable")
                k = np.searchsorted(d[order], slots, side="right")
                fresh = np.maximum.accumulate(g[order])[np.maximum(k - 1, 0)]
                want = np.where(k > 0, slots - fresh, -1)
                bad = np.flatnonzero(got[:, l] != want)
                _require(bad.size == 0, f"age_{l} wrong at {bad[:5].tolist()}")
            # sampled slots: brute force over all events
            for t in self.rng.choice(horizon, size=AOI_SPOT_SLOTS, replace=False):
                for l, (g, d) in enumerate(self.trace, start=1):
                    delivered = g[d <= t]
                    want = int(t - delivered.max()) if delivered.size else -1
                    _require(got[t, l] == want, f"slot {t} age_{l}: {got[t, l]} != {want}")
        return check

    def order_check(self, holds: bool, path_a: str, path_b: str):
        def check(op):
            verdict = json.loads((op.out / "order.json").read_text())
            _require(verdict["holds"] is holds, f"verdict {verdict['holds']}, construction {holds}")
            if holds:
                return
            gens = np.asarray(verdict["witness"]["generators"])
            masses = []
            for path in (path_a, path_b):
                law = json.loads(Path(path).read_text())
                vecs, probs = np.asarray(law["vectors"]), np.asarray(law["probs"])
                inside = (vecs[:, None, :] >= gens[None, :, :]).all(axis=2).any(axis=1)
                masses.append(float(probs[inside].sum()))
            p_mass, q_mass = masses
            _require(p_mass > q_mass, f"witness does not violate: {p_mass} <= {q_mass}")
            _close(verdict["witness"]["p_mass"], p_mass, "witness p_mass")
            _close(verdict["witness"]["q_mass"], q_mass, "witness q_mass")
        return check

    def cross_loss(self, etas):
        def check(op):
            header, rows = _read_csv(op.out / "cross_loss.csv")
            _require(header == ["eta", "beta", "training", "testing", "gap"], f"header {header}")
            _require([float(r[0]) for r in rows] == list(etas), "sweep etas differ")
            for eta, beta, training, testing, gap in ((float(v) for v in r) for r in rows):
                _require(beta >= 0.0, f"negative beta at eta {eta}")
                _require(abs(gap - (testing - training)) <= GAP_ATOL, f"gap != testing - training at {eta}")
        return check


def _nonmonotonicity(values: dict) -> float:
    index = 0.0
    for vec, val in values.items():
        for c in range(len(vec)):
            upper = vec[:c] + (vec[c] + 1,) + vec[c + 1:]
            if upper in values:
                index += max(0.0, val - values[upper])
    return index
