"""Turn time-series rows into the distribution objects the analyses consume.

A dataset row is one training sample: slot index, the m feature values the
receiver holds at that slot, their ages, and the target.  Two usages exist:

* raw trajectories carry fresh features (all ages zero); window laws at
  chosen lags are built by shifting along the slot index.
* dynamic-age datasets carry pre-staled features; per-age laws are built by
  grouping rows on their age vector, no shifting involved.

Each label column is held once, as int64 codes into the space of labels it
contains, encoded when the dataset is built; labels appear again only when
a column is read back by ``coded(var).labels()``, written to CSV or named
in a law.  A dataset
CSV is read by ``_util.read_csv``, which decodes its bytes and hands over
each label column as its distinct texts plus codes, so each distinct text
is parsed once, and written by ``_util.csv_text``, which renders each
distinct label once.
Every empirical window law is counted by ``_stack_counts``, which counts a
whole ``LagStack`` over the column spaces: it aligns a lag by slicing when
the slots are contiguous and by one ``searchsorted`` per lag when they have
gaps, computes the drift statistic once per distinct (source, slice), and
counts each law's row-major cell codes in stack axis order with one
``bincount`` per law.  ``EmpiricalLawProvider`` asks it for whole
stacks; ``empirical_window_law`` is its one-law case, with the counts moved
onto the given spaces or the labels seen in the usable windows.

Strict positivity is never imposed silently: empty cells stay empty unless
a law is smoothed with an explicit pseudo-count, by ``smooth`` or by the
provider's ``pseudo_count``.

``aoi`` is imported inside ``dynamic_age_law`` and ``assemble_dynamic``, so
a command that reads a trajectory loads it only when it builds age laws.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

import numpy as np

from ._util import csv_text, read_csv, read_json, render_cell, trajectory_header, whole_numbers, write_text_atomic
from .errors import AofLabError, IncompatibleSpaceError
from .laws import (LagStack, WindowLaw, canonical_requests, lag_stack, source_index, source_variable, variable_name,
                   window_law_of)
from .spaces import JointPmf, OutcomeSpace

if TYPE_CHECKING:  # pragma: no cover
    from .aoi import AgeDistribution, AgeProcess

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


def _plain(value):
    """Hashable plain-Python label: numpy scalars become Python scalars and
    sequences become tuples."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (tuple, list, np.ndarray)):
        return tuple(_plain(v) for v in value)
    return value


class CodedColumn(NamedTuple):
    """A label column as int64 codes into an outcome space."""

    space: OutcomeSpace
    codes: np.ndarray

    def labels(self) -> np.ndarray:
        """The column's labels as a 1-D object array (tuples kept whole)."""
        table = np.empty(len(self.space), dtype=object)
        for i, label in enumerate(self.space.labels):
            table[i] = label
        return table[self.codes]


def _compact(labels: Sequence, codes: np.ndarray) -> CodedColumn:
    """Keep the labels that ``codes`` (indices into the pairwise distinct
    ``labels``) use, ordered by type name then ``repr``, and recode."""
    used = np.flatnonzero(np.bincount(codes, minlength=len(labels))).tolist()
    order = sorted(used, key=lambda i: (str(type(labels[i])), repr(labels[i])))
    recode = np.zeros(len(labels), dtype=np.int64)
    recode[order] = np.arange(len(order))
    codes = recode[codes]
    codes.setflags(write=False)
    return CodedColumn(OutcomeSpace(tuple(labels[i] for i in order)), codes)


def _encode(values: Sequence) -> CodedColumn:
    """Code plain labels by equality; the first of equal labels stands for
    them all, as in ``set(values)``."""
    index = {v: i for i, v in enumerate(dict.fromkeys(values))}
    codes = np.fromiter(map(index.__getitem__, values), np.int64, len(values))
    return _compact(list(index), codes)


def _recode(column: CodedColumn, codes: np.ndarray, space: OutcomeSpace, name: str) -> np.ndarray:
    """Translate ``codes`` of ``column`` into indices of ``space``; every
    label that occurs in ``codes`` must be in ``space``."""
    table = np.array([space.index(lab) if lab in space else -1 for lab in column.space.labels], dtype=np.int64)
    out = table[codes]
    if np.any(out < 0):
        missing = [column.space.labels[c] for c in np.unique(codes[out < 0]).tolist()]
        raise IncompatibleSpaceError(
            f"{name}: labels {', '.join(map(repr, missing))} not in the given space"
        )
    return out


def _count(codes: Sequence[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Cell counts of aligned code columns: one bincount over mixed-radix
    cell codes, reshaped to ``shape`` (row-major, first column slowest)."""
    flat = np.zeros(len(codes[0]) if codes else 0, dtype=np.int64)
    for column, size in zip(codes, shape):
        flat = flat * size + column
    return np.bincount(flat, minlength=math.prod(shape)).reshape(shape)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Columnar time-series rows (t, x_1..x_m, age_1..age_m, y).

    A feature or target column may be given as labels or as a
    :class:`CodedColumn`; either way ``columns`` holds the codes of x_1..x_m
    and y against the labels each column contains, and is the only copy of
    them the dataset keeps: ``coded(var).labels()`` reads a column's labels
    back.  Slots and ages must be whole numbers."""

    t: np.ndarray
    xs: InitVar[Sequence]
    ages: tuple[np.ndarray, ...]
    y: InitVar[Sequence]
    meta: dict = field(default_factory=dict)
    columns: tuple[CodedColumn, ...] = field(init=False, repr=False)

    def __post_init__(self, xs, y):
        t = whole_numbers(self.t, "t")
        if t.ndim != 1 or len(t) == 0:
            raise AofLabError("dataset must have at least one row")
        if np.any(np.diff(t) <= 0):
            raise AofLabError("slot indices must be strictly increasing")
        if not xs:
            raise AofLabError("a trajectory needs at least one feature source")
        if len(xs) != len(self.ages):
            raise AofLabError("need one age column per feature column")
        ages = tuple(whole_numbers(col, f"age_{l}") for l, col in enumerate(self.ages, start=1))
        given = [
            col if isinstance(col, CodedColumn) else [_plain(v) for v in col] for col in (*xs, y)
        ]
        for col in (*ages, *(c.codes if isinstance(c, CodedColumn) else c for c in given)):
            if len(col) != len(t):
                raise AofLabError("column lengths disagree")
        columns = []
        for col in given:
            if isinstance(col, CodedColumn):
                codes = np.asarray(col.codes, dtype=np.int64)
                if codes.ndim != 1 or np.any(codes < 0) or np.any(codes >= len(col.space)):
                    raise AofLabError("column codes must index the column's space")
                columns.append(_compact(col.space.labels, codes))
            else:
                columns.append(_encode(col))
        for col in ages:
            if np.any(col < 0):
                raise AofLabError("ages must be nonnegative")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "columns", tuple(columns))

    @property
    def m(self) -> int:
        return len(self.columns) - 1

    def __len__(self) -> int:
        return len(self.t)

    def coded(self, var: str) -> CodedColumn:
        """Codes of variable ``'y'`` or ``'x<l>'``."""
        src = source_index(var)
        if src is not None and not 1 <= src <= self.m:
            raise IncompatibleSpaceError(f"dataset has {self.m} sources; got {var!r}")
        return self.columns[-1 if src is None else src - 1]

    def to_csv(self, path) -> None:
        coded = [([render_cell(lab) for lab in col.space.labels], col.codes) for col in self.columns]
        write_text_atomic(path, csv_text(trajectory_header(self.m), [self.t, *coded[:-1], *self.ages, coded[-1]]))

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        def labels(texts, codes) -> CodedColumn:
            parsed = _encode([_parse_cell(text) for text in texts])
            return CodedColumn(parsed.space, parsed.codes[codes])

        def from_columns(columns):
            sources = range(1, (len(columns) - 2) // 2 + 1)
            if not sources:
                raise AofLabError("no x_<l> column; a trajectory needs at least one feature source")
            return cls(t=columns["t"], xs=tuple(labels(*columns[f"x_{l}"]) for l in sources),
                       ages=tuple(columns[f"age_{l}"] for l in sources), y=labels(*columns["y"]))

        return read_csv(path, lambda found: trajectory_header(sum(name.startswith("x_") for name in found)),
                        from_columns, labels=("x_", "y"))


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
            if len(edges) < 2 or not all(a < b for a, b in zip(edges, edges[1:])) or not np.all(np.isfinite(edges)):
                raise AofLabError(f"column {name!r}: edges must be finite and strictly increasing, >= 2 of them")
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
        return cls({name: (tuple(spec["edges"]), tuple(spec.get("labels", ())) or None)
                    for name, spec in data.items()})

    @classmethod
    def load(cls, path) -> "Quantizer":
        return read_json(path, cls.from_json_dict)

    def to_json_dict(self) -> dict:
        return {name: {"edges": list(edges), "labels": list(labels)} for name, (edges, labels) in self.columns.items()}


def quantize(dataset: Dataset, quantizer: Quantizer) -> Dataset:
    """Deterministically bin the configured numeric columns: one
    ``searchsorted`` per column, over the labels it contains."""
    new_xs = list(dataset.columns[:-1])
    new_y = dataset.columns[-1]
    for name in quantizer.columns:
        kind, _, idx = name.partition("_")
        if name != "y" and not (kind == "x" and idx.isdigit()):
            raise IncompatibleSpaceError(f"cannot quantize column {name!r}; only x_<l> and y hold labels")
        column = dataset.coded("y" if name == "y" else f"x{idx}")
        if any(isinstance(v, (str, tuple)) for v in column.space.labels):
            raise IncompatibleSpaceError(f"column {name!r} is not numeric; cannot quantize")
        edges, labels = quantizer.columns[name]
        bins = np.searchsorted(edges, np.asarray(column.space.labels, dtype=float), side="right") - 1
        bins = np.clip(bins, 0, len(labels) - 1)
        binned = _encode([_plain(lab) for lab in labels])
        coded = CodedColumn(binned.space, binned.codes[bins][column.codes])
        if name == "y":
            new_y = coded
        else:
            new_xs[int(idx) - 1] = coded
    meta = dict(dataset.meta)
    meta["quantizer"] = quantizer.to_json_dict()
    return Dataset(t=dataset.t, xs=tuple(new_xs), ages=dataset.ages, y=new_y, meta=meta)


def _stationarity_chi2(column: CodedColumn, codes: np.ndarray, order: np.ndarray) -> float:
    """Chi-squared drift of the first-half against the second-half label
    frequencies (add-one counts), summed over the labels present in
    ``order``, the column's codes sorted by label ``repr``, ties by code."""
    half = len(codes) // 2
    first = np.bincount(codes[:half], minlength=len(column.space))[order]
    second = np.bincount(codes[half:], minlength=len(column.space))[order]
    present = first + second > 0
    n1 = 1.0 + first[present]
    n2 = 1.0 + second[present]
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
    usable windows is an error.  A variable's space is ``spaces[var]``,
    else ``spaces[name]`` for its lagged name, else the labels seen in the
    usable windows.  The law is the one-law case of ``_stack_counts``, its
    counts moved from the column spaces onto those spaces.
    """
    stack = lag_stack([requests])
    reqs = stack.requests(0)
    columns = [dataset.coded(var) for var, _ in reqs]
    counts, windows, drift = _stack_counts(dataset.t, columns, stack, min_windows)
    counts, n_windows, spaces = counts[0], int(windows[0]), spaces or {}
    # each axis's column codes used in some window; the column space is in
    # _compact order, so the labels seen are too
    seen = [np.flatnonzero(counts.sum(axis=tuple(a for a in range(counts.ndim) if a != i))) for i in range(len(reqs))]
    variables, placed = [], []
    for (var, lag), column, codes in zip(reqs, columns, seen):
        name = variable_name(var, lag)
        space = spaces.get(var, spaces.get(name))
        if space is None:
            space = OutcomeSpace(tuple(column.space.labels[c] for c in codes.tolist()))
        variables.append((name, space))
        placed.append(_recode(column, codes, space, name))
    law = np.zeros(tuple(len(space) for _, space in variables), dtype=np.int64)
    law[np.ix_(*placed)] = counts[np.ix_(*seen)]
    chi2 = {variable_name(*req): value for req, value in zip(reqs, drift[0].tolist())}
    return WindowLaw(
        law=JointPmf(tuple(variables), law / n_windows),
        requests=reqs,
        meta={"source": "empirical", "n_windows": n_windows, "stationarity_chi2": chi2},
    )


@dataclass(eq=False)
class EmpiricalLawProvider:
    """Law provider backed by a raw trajectory dataset.

    Each law counts the dataset's sliding windows over its column spaces
    (at least ``DEFAULT_MIN_WINDOWS`` of them) and, with a positive
    ``pseudo_count``, is smoothed as :func:`smooth` does.
    """

    dataset: Dataset
    pseudo_count: float = 0.0

    def __post_init__(self):
        _check_pseudo_count(self.pseudo_count)

    @property
    def m(self) -> int:
        return self.dataset.m

    def feature_space(self, l: int) -> OutcomeSpace:
        return self.dataset.coded(f"x{l}").space

    @property
    def target_space(self) -> OutcomeSpace:
        return self.dataset.coded("y").space

    window_law = window_law_of

    def window_law_stack(self, stack: LagStack) -> np.ndarray:
        columns = [self.dataset.coded(source_variable(l)) for l in stack.sources]
        counts, n_obs, _ = _stack_counts(self.dataset.t, columns, stack, DEFAULT_MIN_WINDOWS)
        # Each law is laid out in memory as empirical_window_law lays it out,
        # axes in sorted request order, and viewed in stack order: sums over
        # the stack then run, and round, as they do over per-law laws.
        order = np.lexsort((stack.lags, np.broadcast_to(stack.sources, stack.lags.shape)))
        back = np.argsort(order, axis=1)
        probs = np.stack([(np.ascontiguousarray(c.transpose(o)) / n).transpose(b)
                          for c, n, o, b in zip(counts, n_obs.tolist(), order, back)])
        if self.pseudo_count > 0.0:
            probs = _add_pseudo_count(probs, self.pseudo_count, n_obs.reshape(-1, *(1,) * len(columns)), probs[0].size)
        return probs


def _stack_counts(t: np.ndarray, columns: Sequence[CodedColumn], stack: LagStack, min_windows: int):
    """``(counts[G, ...], windows[G], drift[G, k])``: the sliding-window
    counts of every law of ``stack``, axis ``i`` over the whole space of
    ``columns[i]``, each law's usable windows and each axis's drift chi2,
    as the row-by-row oracle ``tests/oracles.window_law_by_rows`` finds
    them one law at a time.

    On contiguous slots law ``g`` reads ``(i, lag)`` as the slice
    ``codes[first - lag : n - lag]``, ``first`` being its largest lag, so
    the drift statistic is computed once per distinct ``(source, first,
    lag)``; on gapped slots each lag's rows come from one ``searchsorted``
    and each law keeps the windows where all of them exist.  One walk over
    the laws makes each law's reads, warns of its drift and counts its
    windows with one ``bincount`` per law, so the first law short of
    ``min_windows`` windows is an error after the warnings of the laws
    before it."""
    n, lags = len(t), stack.lags
    shape = tuple(len(column.space) for column in columns)
    cells = math.prod(shape)
    orders = [np.array(sorted(range(len(c.space)), key=lambda i: repr(c.space.labels[i])), dtype=np.int64)
              for c in columns]
    contiguous = t[-1] - t[0] == n - 1
    if contiguous:  # each read is a slice
        firsts = np.minimum(lags.max(axis=1), n).tolist()
    else:
        rows = {lag: np.searchsorted(t, t - lag) for lag in np.unique(lags).tolist()}  # <= each row itself
        ok = {lag: t[r] == t - lag for lag, r in rows.items()}
    # row-major cell codes: axis i weighs the product of the sizes after it;
    # the last axis weighs one, so its codes are used as they are
    weighted = [column.codes * math.prod(shape[i + 1:]) for i, column in enumerate(columns[:-1])]
    weighted.append(columns[-1].codes)
    counts = np.empty((len(lags), cells), dtype=np.int64)
    windows = np.empty(len(lags), dtype=np.int64)
    drift = np.empty(lags.shape)
    known = {}  # (source, slice bounds) or (law, axis) -> chi2
    for g, row in enumerate(lags.tolist()):
        if contiguous:
            size = n - firsts[g]
            reads = [slice(firsts[g] - lag, n - lag) for lag in row]
        else:
            keep = np.logical_and.reduce([ok[lag] for lag in row])
            size = int(np.count_nonzero(keep))
            reads = [rows[lag][keep] for lag in row]
        if size < min_windows:
            raise AofLabError(f"only {size} usable windows; need at least {min_windows}")
        windows[g] = size
        for i, read in enumerate(reads):
            key = (stack.sources[i], read.start, read.stop) if contiguous else (g, i)
            if key not in known:
                known[key] = _stationarity_chi2(columns[i], columns[i].codes[read], orders[i])
            drift[g, i] = known[key]
        worst = max(drift[g].tolist())
        if worst > STATIONARITY_WARN:
            warnings.warn(f"first/second-half marginal drift chi2={worst:.3f}; data may be non-stationary", stacklevel=2)
        cell = np.zeros(size, dtype=np.int64)
        for codes, read in zip(weighted, reads):
            cell += codes[read]
        counts[g] = np.bincount(cell, minlength=cells)
        del cell  # so the next law's cell codes do not join this law's
    return counts.reshape(len(lags), *shape), windows, drift


def dynamic_age_law(
    dataset: Dataset,
    min_rows: int = DEFAULT_MIN_WINDOWS,
    spaces: Mapping[str, OutcomeSpace] | None = None,
) -> tuple[AgeDistribution, dict[tuple[int, ...], WindowLaw]]:
    """Age-vector frequencies plus one per-age joint law of (x_1..x_m, y).

    Rows are grouped on their age columns; features are taken as stored
    (already staled).  A variable's space is ``spaces[name]``, else its
    column's own space.  Age cells with fewer than ``min_rows`` rows are
    reported together in the error message, in order of first appearance.
    """
    from .aoi import AgeDistribution

    ages = np.array(dataset.ages, dtype=np.int64).reshape(dataset.m, len(dataset)).T
    vectors, first, group = np.unique(ages, axis=0, return_index=True, return_inverse=True)
    group = group.reshape(-1)
    vectors = [tuple(v) for v in vectors.tolist()]
    sizes = np.bincount(group, minlength=len(vectors))
    sparse = sorted(np.flatnonzero(sizes < min_rows).tolist(), key=lambda g: first[g])
    if sparse:
        cells = {vectors[g]: int(sizes[g]) for g in sparse}
        raise AofLabError(f"sparse age cells (need >= {min_rows} rows): {cells}")

    names = [f"x{l}" for l in range(1, dataset.m + 1)] + ["y"]
    variables, codes, spaces = [], [], spaces or {}
    for name, column in zip(names, dataset.columns):
        space = spaces.get(name, column.space)
        variables.append((name, space))
        codes.append(_recode(column, column.codes, space, name))
    counts = _count([group, *codes], (len(vectors), *(len(s) for _, s in variables)))

    laws = {}
    for g, vec in enumerate(vectors):
        requests = (*zip(names, vec), ("y", 0))
        named = tuple((variable_name(*req), space) for req, (_, space) in zip(requests, variables))
        laws[vec] = WindowLaw(law=JointPmf(named, counts[g] / sizes[g]), requests=canonical_requests(requests),
                              meta={"source": "empirical", "n_windows": int(sizes[g])})
    return AgeDistribution(tuple(vectors), sizes / len(dataset)), laws


def assemble_dynamic(dataset: Dataset, ages: AgeProcess) -> Dataset:
    """Replace fresh features with the staled ones an age process dictates.

    For each slot the receiver holds the feature generated ``age`` slots
    earlier; slots whose staled feature is unavailable (warm-up or missing
    rows) are dropped, and so are rows at slots outside the age process.
    """
    from .aoi import SENTINEL

    if ages.m != dataset.m:
        raise IncompatibleSpaceError("age process and dataset disagree on source count")
    t = dataset.t
    start, stop = np.searchsorted(t, [0, ages.horizon])
    t_in = t[start:stop]
    vec = ages.ages[:, t_in]
    wanted = t_in - vec
    source = np.minimum(np.searchsorted(t, wanted), len(t) - 1)
    keep = np.flatnonzero(np.all((vec != SENTINEL) & (t[source] == wanted), axis=0))
    if len(keep) == 0:
        raise AofLabError("no usable rows after staling; extend the trajectory")
    y = dataset.columns[-1]
    return Dataset(
        t=t_in[keep],
        xs=tuple(CodedColumn(col.space, col.codes[source[l, keep]]) for l, col in enumerate(dataset.columns[:-1])),
        ages=tuple(vec[:, keep]),
        y=CodedColumn(y.space, y.codes[start + keep]),
    )


def smooth(law: JointPmf, pseudo_count: float, n_obs: float) -> JointPmf:
    """Add-pseudo-count smoothing over the declared full cell grid.

    With counts ``c = p * n_obs`` the smoothed law is
    ``(c + pseudo_count) / (n_obs + pseudo_count * n_cells)``; zero
    pseudo-count is the identity.
    """
    _check_pseudo_count(pseudo_count)
    if pseudo_count == 0.0:
        return law
    if n_obs <= 0:
        raise AofLabError("n_obs must be positive")
    return JointPmf(law.variables, _add_pseudo_count(law.probs, pseudo_count, n_obs, law.probs.size))


def _check_pseudo_count(pseudo_count: float) -> None:
    if not 0.0 <= pseudo_count < math.inf:
        raise AofLabError(f"pseudo-count must be finite and nonnegative, got {pseudo_count}")


def _add_pseudo_count(probs: np.ndarray, pseudo_count: float, n_obs, cells: int) -> np.ndarray:
    """``(counts + pseudo_count) / (n_obs + pseudo_count * cells)`` with
    ``counts = probs * n_obs``, for one law of ``cells`` cells or, with
    ``n_obs`` broadcast per law, a stack of them."""
    return (probs * n_obs + pseudo_count) / (n_obs + pseudo_count * cells)
