"""Turn time-series rows into the distribution objects the analyses consume.

A dataset row is one training sample: slot index, the m feature values the
receiver holds at that slot, their ages, and the target.  Two usages exist:

* raw trajectories carry fresh features (all ages zero); window laws at
  chosen lags are built by shifting along the slot index.
* dynamic-age datasets carry pre-staled features; per-age laws are built by
  grouping rows on their age vector, no shifting involved.

Strict positivity is never imposed silently: empty cells stay empty unless
``smooth`` is called with an explicit pseudo-count.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._util import csv_text, write_text_atomic
from .aoi import SENTINEL, AgeDistribution, AgeProcess
from .errors import AofLabError, IncompatibleSpaceError
from .laws import WindowLaw, canonical_requests, source_index, stack_window_laws, variable_name
from .spaces import JointPmf, OutcomeSpace

DEFAULT_MIN_WINDOWS = 30

# first-half/second-half marginal drift beyond this raises a warning
STATIONARITY_WARN = 0.5


def _parse_cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].strip()
        if inner:
            return tuple(_parse_cell(part.strip()) for part in inner.split("|"))
    return text


def _render_cell(value) -> str:
    if isinstance(value, tuple):
        return "(" + "|".join(_render_cell(v) for v in value) + ")"
    return str(value)


def _object_column(values) -> np.ndarray:
    """1-D object array; keeps tuple cells intact (np.asarray would split
    equal-length tuples into a 2-D array)."""
    if isinstance(values, np.ndarray) and values.ndim > 1:
        values = [tuple(row) for row in values]
    values = list(values)
    arr = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        arr[i] = tuple(v) if isinstance(v, (tuple, list, np.ndarray)) else v
    return arr


def _csv_header(m: int) -> list[str]:
    return ["t"] + [f"x_{l}" for l in range(1, m + 1)] + [f"age_{l}" for l in range(1, m + 1)] + ["y"]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Columnar time-series rows (t, x_1..x_m, age_1..age_m, y)."""

    t: np.ndarray
    xs: tuple[np.ndarray, ...]
    ages: tuple[np.ndarray, ...]
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.int64)
        if t.ndim != 1 or len(t) == 0:
            raise AofLabError("dataset must have at least one row")
        if np.any(np.diff(t) <= 0):
            raise AofLabError("slot indices must be strictly increasing")
        if len(self.xs) != len(self.ages):
            raise AofLabError("need one age column per feature column")
        xs = tuple(_object_column(col) for col in self.xs)
        ages = tuple(np.asarray(col, dtype=np.int64) for col in self.ages)
        y = _object_column(self.y)
        for col in (*xs, *ages, y):
            if len(col) != len(t):
                raise AofLabError("column lengths disagree")
        for col in ages:
            if np.any(col < 0):
                raise AofLabError("ages must be nonnegative")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return len(self.xs)

    def __len__(self) -> int:
        return len(self.t)

    def column(self, name: str) -> np.ndarray:
        if name == "y":
            return self.y
        if name == "t":
            return self.t
        kind, _, idx = name.partition("_")
        if idx.isdigit():
            l = int(idx)
            if kind == "x" and 1 <= l <= self.m:
                return self.xs[l - 1]
            if kind == "age" and 1 <= l <= self.m:
                return self.ages[l - 1]
        raise IncompatibleSpaceError(f"unknown column {name!r}")

    def to_csv(self, path, delimiter: str = ",") -> None:
        rows = (
            [int(self.t[i])]
            + [_render_cell(self.xs[l][i]) for l in range(self.m)]
            + [int(self.ages[l][i]) for l in range(self.m)]
            + [_render_cell(self.y[i])]
            for i in range(len(self))
        )
        write_text_atomic(path, csv_text(_csv_header(self.m), rows, delimiter))

    @classmethod
    def from_csv(cls, path, delimiter: str = ",") -> "Dataset":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            header = next(reader)
            x_cols = [h for h in header if h.startswith("x_")]
            m = len(x_cols)
            expected = _csv_header(m)
            if header != expected:
                raise AofLabError(f"unexpected header {header}; want {expected}")
            t, y = [], []
            xs = [[] for _ in range(m)]
            ages = [[] for _ in range(m)]
            for row in reader:
                t.append(int(row[0]))
                for l in range(m):
                    xs[l].append(_parse_cell(row[1 + l]))
                    ages[l].append(int(row[1 + m + l]))
                y.append(_parse_cell(row[1 + 2 * m]))
        return cls(
            t=np.asarray(t, dtype=np.int64),
            xs=tuple(np.asarray(col, dtype=object) for col in xs),
            ages=tuple(np.asarray(col, dtype=np.int64) for col in ages),
            y=np.asarray(y, dtype=object),
        )


@dataclass(frozen=True)
class Quantizer:
    """Per-column bin edges; values map to half-open bins [e_i, e_{i+1})
    and out-of-range values clamp to the end bins."""

    columns: Mapping[str, tuple[tuple[float, ...], tuple[str, ...]]]

    def __post_init__(self):
        cols = {}
        for name, spec in dict(self.columns).items():
            edges, labels = spec
            edges = tuple(float(e) for e in edges)
            if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
                raise AofLabError(f"column {name!r}: edges must be strictly increasing, >= 2 of them")
            labels = tuple(labels) if labels else tuple(f"B{i}" for i in range(len(edges) - 1))
            if len(labels) != len(edges) - 1:
                raise AofLabError(f"column {name!r}: need one label per bin")
            cols[name] = (edges, labels)
        object.__setattr__(self, "columns", cols)

    def bin_of(self, name: str, value: float) -> str:
        edges, labels = self.columns[name]
        i = int(np.searchsorted(edges, float(value), side="right")) - 1
        return labels[min(max(i, 0), len(labels) - 1)]

    @classmethod
    def from_json_dict(cls, data: dict) -> "Quantizer":
        return cls(
            {
                name: (tuple(spec["edges"]), tuple(spec.get("labels", ())) or None)
                for name, spec in data.items()
            }
        )

    @classmethod
    def load(cls, path) -> "Quantizer":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def to_json_dict(self) -> dict:
        return {
            name: {"edges": list(edges), "labels": list(labels)}
            for name, (edges, labels) in self.columns.items()
        }


def quantize(dataset: Dataset, quantizer: Quantizer) -> Dataset:
    """Deterministically bin the configured numeric columns."""
    new_xs = list(dataset.xs)
    new_y = dataset.y
    for name in quantizer.columns:
        col = dataset.column(name)
        if any(isinstance(v, (str, tuple)) for v in col):
            raise IncompatibleSpaceError(f"column {name!r} is not numeric; cannot quantize")
        binned = np.asarray([quantizer.bin_of(name, v) for v in col], dtype=object)
        if name == "y":
            new_y = binned
        else:
            new_xs[int(name.partition("_")[2]) - 1] = binned
    meta = dict(dataset.meta)
    meta["quantizer"] = quantizer.to_json_dict()
    return Dataset(t=dataset.t, xs=tuple(new_xs), ages=dataset.ages, y=new_y, meta=meta)


def _observed_space(values) -> OutcomeSpace:
    distinct = sorted(set(values), key=lambda v: (str(type(v)), repr(v)))
    return OutcomeSpace(tuple(distinct))


def _stationarity_chi2(values) -> float:
    half = len(values) // 2
    first, second = values[:half], values[half:]
    labels = sorted(set(values), key=repr)
    n1 = np.array([1.0 + sum(1 for v in first if v == lab) for lab in labels])
    n2 = np.array([1.0 + sum(1 for v in second if v == lab) for lab in labels])
    p1, p2 = n1 / n1.sum(), n2 / n2.sum()
    return float(((p1 - p2) ** 2 / p2).sum())


def empirical_window_law(
    dataset: Dataset,
    requests: Sequence,
    spaces: Mapping[str, OutcomeSpace] | None = None,
    min_windows: int = DEFAULT_MIN_WINDOWS,
) -> WindowLaw:
    """Sliding-window relative-frequency joint over lagged columns.

    ``requests`` follows the window-law convention: ``("y", 0)``,
    ``("x2", 3)`` and so on, with lags applied along the slot index.  Rows
    whose lagged slots are missing are skipped; fewer than ``min_windows``
    usable windows is an error.
    """
    reqs = canonical_requests(requests)
    row_of = {int(t): i for i, t in enumerate(dataset.t)}
    columns = {}
    for var, lag in reqs:
        src = source_index(var)
        if src is not None and src > dataset.m:
            raise IncompatibleSpaceError(f"dataset has {dataset.m} sources; got {var!r}")
        columns[(var, lag)] = dataset.y if src is None else dataset.xs[src - 1]

    windows = []
    for i, t in enumerate(dataset.t):
        values = []
        ok = True
        for var, lag in reqs:
            j = row_of.get(int(t) - lag)
            if j is None:
                ok = False
                break
            values.append(columns[(var, lag)][j])
        if ok:
            windows.append(tuple(values))
    if len(windows) < min_windows:
        raise AofLabError(
            f"only {len(windows)} usable windows; need at least {min_windows}"
        )

    variables = []
    for k, (var, lag) in enumerate(reqs):
        name = variable_name(var, lag)
        if spaces and var in spaces:
            space = spaces[var]
        elif spaces and name in spaces:
            space = spaces[name]
        else:
            space = _observed_space([w[k] for w in windows])
        variables.append((name, space))

    shape = tuple(len(s) for _, s in variables)
    counts = np.zeros(shape)
    for w in windows:
        idx = tuple(space.index(v) for (_, space), v in zip(variables, w))
        counts[idx] += 1.0
    probs = counts / counts.sum()

    drift = {
        variable_name(var, lag): _stationarity_chi2([w[k] for w in windows])
        for k, (var, lag) in enumerate(reqs)
    }
    worst = max(drift.values())
    if worst > STATIONARITY_WARN:
        warnings.warn(
            f"first/second-half marginal drift chi2={worst:.3f}; data may be non-stationary",
            stacklevel=2,
        )
    law = JointPmf(tuple(variables), probs)
    return WindowLaw(
        law=law,
        requests=reqs,
        meta={"source": "empirical", "n_windows": len(windows), "stationarity_chi2": drift},
    )


@dataclass(eq=False)
class EmpiricalLawProvider:
    """Law provider backed by a raw trajectory dataset."""

    dataset: Dataset
    spaces: Mapping[str, OutcomeSpace] | None = None
    min_windows: int = DEFAULT_MIN_WINDOWS
    pseudo_count: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.spaces is None:
            spaces = {f"x{l}": _observed_space(self.dataset.xs[l - 1]) for l in range(1, self.dataset.m + 1)}
            spaces["y"] = _observed_space(self.dataset.y)
            self.spaces = spaces

    @property
    def m(self) -> int:
        return self.dataset.m

    def feature_space(self, l: int) -> OutcomeSpace:
        return self.spaces[f"x{l}"]

    @property
    def target_space(self) -> OutcomeSpace:
        return self.spaces["y"]

    def window_law(self, requests: Sequence) -> WindowLaw:
        key = canonical_requests(requests)
        law = self._cache.get(key)
        if law is None:
            law = empirical_window_law(self.dataset, key, self.spaces, self.min_windows)
            if self.pseudo_count > 0.0:
                smoothed = smooth(law.law, self.pseudo_count, law.meta["n_windows"])
                law = WindowLaw(law=smoothed, requests=key, meta=dict(law.meta, smoothed=self.pseudo_count))
            self._cache[key] = law
        return law

    def window_law_stack(self, request_sets: Sequence[Sequence]):
        return stack_window_laws([self.window_law(r) for r in request_sets])


def dynamic_age_law(
    dataset: Dataset,
    min_rows: int = DEFAULT_MIN_WINDOWS,
    spaces: Mapping[str, OutcomeSpace] | None = None,
) -> tuple[AgeDistribution, dict[tuple[int, ...], WindowLaw]]:
    """Age-vector frequencies plus one per-age joint law of (x_1..x_m, y).

    Rows are grouped on their age columns; features are taken as stored
    (already staled).  Age cells with fewer than ``min_rows`` rows are
    reported together in the error message.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i in range(len(dataset)):
        vec = tuple(int(dataset.ages[l][i]) for l in range(dataset.m))
        groups.setdefault(vec, []).append(i)
    sparse = {vec: len(rows) for vec, rows in groups.items() if len(rows) < min_rows}
    if sparse:
        raise AofLabError(f"sparse age cells (need >= {min_rows} rows): {sparse}")

    if spaces is None:
        spaces = {f"x{l}": _observed_space(dataset.xs[l - 1]) for l in range(1, dataset.m + 1)}
        spaces["y"] = _observed_space(dataset.y)
    variables = tuple(
        [(f"x{l}", spaces[f"x{l}"]) for l in range(1, dataset.m + 1)] + [("y", spaces["y"])]
    )
    shape = tuple(len(s) for _, s in variables)

    laws = {}
    vectors = sorted(groups)
    probs = np.array([len(groups[v]) / len(dataset) for v in vectors])
    for vec in vectors:
        counts = np.zeros(shape)
        for i in groups[vec]:
            idx = tuple(
                spaces[f"x{l}"].index(dataset.xs[l - 1][i]) for l in range(1, dataset.m + 1)
            ) + (spaces["y"].index(dataset.y[i]),)
            counts[idx] += 1.0
        law = JointPmf(variables, counts / counts.sum())
        requests = tuple([(f"x{l}", vec[l - 1]) for l in range(1, dataset.m + 1)] + [("y", 0)])
        rename = {f"x{l}": variable_name(f"x{l}", vec[l - 1]) for l in range(1, dataset.m + 1)}
        rename["y"] = variable_name("y", 0)
        laws[vec] = WindowLaw(
            law=law.rename(rename),
            requests=canonical_requests(requests),
            meta={"source": "empirical", "n_windows": len(groups[vec])},
        )
    return AgeDistribution(tuple(vectors), probs), laws


def assemble_dynamic(dataset: Dataset, ages: AgeProcess) -> Dataset:
    """Replace fresh features with the staled ones an age process dictates.

    For each slot the receiver holds the feature generated ``age`` slots
    earlier; slots whose staled feature is unavailable (warm-up or missing
    rows) are dropped.
    """
    if ages.m != dataset.m:
        raise IncompatibleSpaceError("age process and dataset disagree on source count")
    row_of = {int(t): i for i, t in enumerate(dataset.t)}
    t_out, y_out = [], []
    xs_out = [[] for _ in range(dataset.m)]
    ages_out = [[] for _ in range(dataset.m)]
    for i, t in enumerate(dataset.t):
        t = int(t)
        if t >= ages.horizon:
            break
        vec = [int(ages.ages[l, t]) for l in range(dataset.m)]
        if any(a == SENTINEL for a in vec):
            continue
        sources = [row_of.get(t - a) for a in vec]
        if any(j is None for j in sources):
            continue
        t_out.append(t)
        for l in range(dataset.m):
            xs_out[l].append(dataset.xs[l][sources[l]])
            ages_out[l].append(vec[l])
        y_out.append(dataset.y[i])
    if not t_out:
        raise AofLabError("no usable rows after staling; extend the trajectory")
    return Dataset(
        t=np.asarray(t_out, dtype=np.int64),
        xs=tuple(np.asarray(col, dtype=object) for col in xs_out),
        ages=tuple(np.asarray(col, dtype=np.int64) for col in ages_out),
        y=np.asarray(y_out, dtype=object),
    )


def smooth(law: JointPmf, pseudo_count: float, n_obs: float) -> JointPmf:
    """Add-pseudo-count smoothing over the declared full cell grid.

    With counts ``c = p * n_obs`` the smoothed law is
    ``(c + pseudo_count) / (n_obs + pseudo_count * n_cells)``; zero
    pseudo-count is the identity.
    """
    if pseudo_count < 0:
        raise AofLabError("pseudo-count must be nonnegative")
    if pseudo_count == 0.0:
        return law
    if n_obs <= 0:
        raise AofLabError("n_obs must be positive")
    cells = law.probs.size
    probs = (law.probs * n_obs + pseudo_count) / (n_obs + pseudo_count * cells)
    return JointPmf(law.variables, probs)
