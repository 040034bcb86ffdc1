"""Stationary hidden-state process models with exactly computable window laws.

A model is a finite irreducible aperiodic state chain plus per-source
emission kernels, a target kernel, a feature window length ``b``, and a
feature processing delay.  The feature of source ``l`` at slot ``t`` is the
tuple of its last ``b`` emissions ending at ``t - delay`` (newest first); a
window length of one keeps the bare symbol.

Every exact window law comes from one builder, ``exact_window_laws``.  Under
stationarity a window law is the HMM forward recursion
``pi D T^g1 D T^g2 ... D 1`` (Rabiner 1989) over the flat list of reads in
slot order, where each ``D`` applies one emission kernel and ``g_i`` is the
slot gap to the read before it.  A read at the same slot as the one before
it is a zero-gap step: ``T^0`` is the identity, exact in float.  Request
sets that read the same kernels in the same order, and map those reads to
variables the same way, differ only in their gaps, so they run as one
recursion over a stacked table with ``T^g`` taken from powers of the
transition matrix computed once.  ``exact_window_law`` is the case of one
request set.  ``DEFAULT_MAX_CELLS`` bounds the power table as well as each
law's table, so no separate cap limits how far apart lags may lie.

The builder snaps the total mass of each law back to one after checking
that it is within ``NORMALIZATION_ATOL`` of one.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ._util import read_json, write_text_atomic
from .errors import AofLabError, IncompatibleSpaceError, NotNormalizedError
from .ingest import CodedColumn, Dataset
from .laws import (
    DEFAULT_MAX_CELLS,
    STACK_CELLS,
    Layout,
    MixtureLawProvider,
    Request,
    WindowLaw,
    canonical_request_sets,
    source_index,
    window_law_of,
)
from .spaces import NORMALIZATION_ATOL, OutcomeSpace


def _stationary_distribution(transition: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eig(transition.T)
    k = int(np.argmin(np.abs(values - 1.0)))
    pi = np.real(vectors[:, k])
    pi = np.abs(pi)
    pi = pi / pi.sum()
    # polish with a few power steps to push the residual to float precision
    for _ in range(200):
        pi, prev = pi @ transition, pi
        if np.abs(pi - prev).sum() < 1e-16:
            break
    return pi


def _is_primitive(transition: np.ndarray) -> bool:
    n = transition.shape[0]
    reach = transition > 0
    # Wielandt bound: a primitive matrix has a strictly positive power by
    # exponent (n-1)^2 + 1
    target = (n - 1) ** 2 + 1
    acc = np.eye(n, dtype=bool)
    base = reach.copy()
    e = target
    while e:
        if e & 1:
            acc = (acc.astype(np.int64) @ base.astype(np.int64)) > 0
        base = (base.astype(np.int64) @ base.astype(np.int64)) > 0
        e >>= 1
    return bool(acc.all())


def _check_rows(name: str, matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or np.any(matrix < 0) or not np.all(np.isfinite(matrix)):
        raise NotNormalizedError(f"{name} must be a nonnegative matrix")
    if np.any(np.abs(matrix.sum(axis=1) - 1.0) > 1e-12):
        raise NotNormalizedError(f"{name} rows must each sum to 1")
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True, eq=False)
class ProcessModel:
    """Hidden-state chain with per-source emissions and a target kernel; ``states``
    defaults to ``0..n-1`` and ``stationary`` is computed once the inputs pass their checks."""

    transition: np.ndarray
    emissions: tuple[np.ndarray, ...]
    emission_spaces: tuple[OutcomeSpace, ...]
    target_kernel: np.ndarray
    target_space: OutcomeSpace
    window: int = 1
    delay: int = 0
    seed: int | None = None
    states: tuple | None = None
    stationary: np.ndarray = field(init=False)

    def __post_init__(self):
        transition = _check_rows("transition", self.transition)
        states = tuple(range(transition.shape[0]) if self.states is None else self.states)
        n = len(states)
        if transition.shape != (n, n):
            raise IncompatibleSpaceError("transition must be square over the states")
        if not _is_primitive(transition):
            raise AofLabError("chain is reducible or periodic; stationarity is not well-defined")
        stationary = _stationary_distribution(transition)
        if np.abs(stationary @ transition - stationary).max() > 1e-10:
            raise NotNormalizedError("stationary vector does not satisfy pi T = pi")
        stationary.setflags(write=False)
        emissions = tuple(_check_rows(f"emission[{l}]", e) for l, e in enumerate(self.emissions))
        spaces = tuple(self.emission_spaces)
        if len(emissions) != len(spaces):
            raise IncompatibleSpaceError("one emission kernel per source is required")
        for l, (kernel, space) in enumerate(zip(emissions, spaces)):
            if kernel.shape != (n, len(space)):
                raise IncompatibleSpaceError(f"emission kernel {l} shape mismatch")
        target_kernel = _check_rows("target_kernel", self.target_kernel)
        if target_kernel.shape != (n, len(self.target_space)):
            raise IncompatibleSpaceError("target kernel shape mismatch")
        if self.window < 1 or self.delay < 0:
            raise AofLabError("window must be >= 1 and delay >= 0")
        checked = {"states": states, "transition": transition, "stationary": stationary,
                   "emissions": emissions, "emission_spaces": spaces, "target_kernel": target_kernel}
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return len(self.emissions)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def feature_space(self, l: int) -> OutcomeSpace:
        base = self.emission_spaces[l - 1]
        if self.window == 1:
            return base
        labels = tuple(itertools.product(base.labels, repeat=self.window))
        return OutcomeSpace(labels)

    def with_window(self, window: int) -> "ProcessModel":
        return replace(self, window=window)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "states": list(self.states),
            "transition": self.transition.tolist(),
            "emissions": [e.tolist() for e in self.emissions],
            "emission_symbols": [list(s.labels) for s in self.emission_spaces],
            "target_kernel": self.target_kernel.tolist(),
            "target_symbols": list(self.target_space.labels),
            "window": self.window,
            "delay": self.delay,
            "seed": self.seed,
        }

    def save(self, path) -> None:
        write_text_atomic(path, json.dumps(self.to_json_dict()))

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProcessModel":
        return cls(
            transition=data["transition"],
            emissions=data["emissions"],
            emission_spaces=tuple(OutcomeSpace(tuple(s)) for s in data["emission_symbols"]),
            target_kernel=data["target_kernel"],
            target_space=OutcomeSpace(tuple(data["target_symbols"])),
            window=data["window"],
            delay=data["delay"],
            seed=data.get("seed"),
            states=tuple(data["states"]),
        )

    @classmethod
    def load(cls, path) -> "ProcessModel":
        return read_json(path, cls.from_json_dict)


def _elementary_reads(model: ProcessModel, requests: tuple[Request, ...]):
    """The (slot, kind, source) cells each request reads, newest first inside
    a feature tuple, and all distinct cells in order.  Slots are relative:
    lag k reads slot -k."""
    per_request = []
    for var, lag in requests:
        if var == "y":
            per_request.append(((-lag, "y", 0),))
        else:
            src = int(var[1:])
            if src > model.m:
                raise IncompatibleSpaceError(f"model has {model.m} sources; got {var!r}")
            base = -(lag + model.delay)
            per_request.append(tuple((base - j, "x", src) for j in range(model.window)))
    return per_request, sorted({r for reads in per_request for r in reads})


def exact_window_law(model: ProcessModel, requests: Sequence) -> WindowLaw:
    """Exact joint law of the requested lagged variables under stationarity,
    with variables named ``y@0``, ``x1@3`` and so on."""
    return window_law_of(ExactLawProvider(model), requests)


def exact_window_laws(model: ProcessModel, request_sets: Sequence[Sequence]) -> tuple[Layout, np.ndarray]:
    """Exact laws of request sets that share one layout, as one stack.

    Returns ``(layout, probs)`` where ``probs[g]`` is the law of
    ``request_sets[g]``.  Each request set reads a flat list of (slot, kind,
    source) cells sorted by slot; request sets are grouped by their read
    order (the kinds and sources, slots aside) plus the reads each variable
    takes.  Each group runs as one forward recursion over a (laws, states,
    cells) table with one step per read: ``T^gap`` for the gap to the read
    before (zero, the identity, at the same slot), then the read's kernel.
    One offset ``bincount`` maps elementary cells to variable cells.  Powers
    of the transition matrix go up to the widest gap asked for; a power
    table or a law table larger than ``DEFAULT_MAX_CELLS`` is rejected
    before it is built.  Tables are built in chunks of at most
    ``STACK_CELLS`` cells.
    """
    reqs_list = canonical_request_sets(request_sets)
    groups: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}
    for g, reqs in enumerate(reqs_list):
        per_request, reads = _elementary_reads(model, reqs)
        order = tuple(read[1:] for read in reads)
        axis_of = {read: i for i, read in enumerate(reads)}
        taps = tuple(tuple(axis_of[r] for r in at) for at in per_request)
        groups.setdefault((order, taps), []).append((g, tuple(b[0] - a[0] for a, b in zip(reads, reads[1:]))))

    layout = tuple(
        (var, model.target_space if var == "y" else model.feature_space(source_index(var)))
        for var, _ in reqs_list[0]
    )
    var_sizes = [len(space) for _, space in layout]
    var_strides = [math.prod(var_sizes[i + 1:]) for i in range(len(var_sizes))]
    total = math.prod(var_sizes)
    n_states = model.n_states
    max_gap = max((max(gaps) for members in groups.values() for _, gaps in members if gaps), default=0)
    if (max_gap + 1) * n_states**2 > DEFAULT_MAX_CELLS:
        raise AofLabError(
            f"lag gap {max_gap} would need {max_gap + 1} transition powers of "
            f"{n_states}x{n_states} cells (cap {DEFAULT_MAX_CELLS})"
        )
    # the table keeps states on the axis before the cells, so every step
    # works on long contiguous rows: a step by g slots is (T^g)' @ table
    steps = np.empty((max_gap + 1, n_states, n_states))
    steps[0] = np.eye(n_states)
    for k in range(1, max_gap + 1):
        steps[k] = model.transition.T @ steps[k - 1]
    # each kernel as (states, symbols, 1), ready to take a new outermost cell axis
    emission = {("y", 0): model.target_kernel[:, :, None]}
    emission.update({("x", l): e[:, :, None] for l, e in enumerate(model.emissions, start=1)})

    probs = np.empty((len(reqs_list), total))
    for (order, taps), members in groups.items():
        sizes = [emission[read].shape[1] for read in order]
        n_cells = math.prod(sizes)
        if n_cells * n_states > DEFAULT_MAX_CELLS:
            raise AofLabError(f"unrolled law would need {n_cells * n_states} cells (cap {DEFAULT_MAX_CELLS})")
        # variable cell of every elementary cell: a feature reads its window
        # newest first, so read j of a b-slot window is digit b - 1 - j
        coeff = [0] * len(sizes)
        for stride, axes in zip(var_strides, taps):
            for j, axis in enumerate(axes):
                coeff[axis] += stride * sizes[axis] ** (len(axes) - 1 - j)
        # each read adds the new outermost cell axis, so the last read varies slowest
        cell_of = np.zeros(1, dtype=np.int64)
        for size, c in zip(sizes[::-1], coeff[::-1]):
            cell_of = (cell_of[:, None] + c * np.arange(size)).ravel()

        chunk = max(1, STACK_CELLS // (n_cells * n_states))
        for start in range(0, len(members), chunk):
            part = members[start:start + chunk]
            gaps = np.array([gap for _, gap in part])
            table = np.repeat(model.stationary[None, :, None], len(part), axis=0)
            for i, read in enumerate(order):
                if i:
                    table = steps[gaps[:, i - 1]] @ table
                table = (table[:, :, None, :] * emission[read]).reshape(len(part), n_states, -1)
            cells = (cell_of + total * np.arange(len(part))[:, None]).ravel()
            laws = np.bincount(cells, weights=table.sum(axis=1).ravel(), minlength=len(part) * total)
            probs[[g for g, _ in part]] = laws.reshape(len(part), total)
    sums = probs.sum(axis=1)
    drift = float(np.abs(sums - 1.0).max())
    if drift > NORMALIZATION_ATOL:
        raise NotNormalizedError(f"window laws sum to 1 +- {drift!r} before normalization")
    probs /= sums[:, None]
    return layout, probs.reshape(len(reqs_list), *var_sizes)


@dataclass(eq=False)
class ExactLawProvider:
    """Exact window laws of one model, built on demand by the stacked forward
    recursion; ``DEFAULT_MAX_CELLS`` bounds the tables behind every law."""

    model: ProcessModel

    @property
    def m(self) -> int:
        return self.model.m

    def feature_space(self, l: int) -> OutcomeSpace:
        return self.model.feature_space(l)

    @property
    def target_space(self) -> OutcomeSpace:
        return self.model.target_space

    window_law = window_law_of

    def window_law_stack(self, request_sets: Sequence[Sequence]) -> tuple[Layout, np.ndarray]:
        return exact_window_laws(self.model, request_sets)


def _check_sizes(**sizes: int) -> None:
    for name, size in sizes.items():
        if size < 1:
            raise AofLabError(f"{name} must be at least 1, got {size}")


def _random_rows(rng, alpha: np.ndarray, rows: int, floor: float) -> np.ndarray:
    """``rows`` Dirichlet(``alpha``) rows, each lifted by ``floor / len(alpha)`` and renormalized."""
    draw = rng.dirichlet(alpha, size=rows)
    draw = draw + floor / len(alpha)
    return draw / draw.sum(axis=1, keepdims=True)


def _random_model(seed, n_states, n_targets, alpha, floors, emit, window, delay) -> ProcessModel:
    """The recipe both generators share, drawn from one seeded stream in this
    order: transition rows, ``emit(rng)``'s kernels and spaces, target rows."""
    rng = np.random.default_rng(seed)
    transition = _random_rows(rng, np.full(n_states, alpha), n_states, floors[0])
    emissions, spaces = emit(rng)
    target = _random_rows(rng, np.full(n_targets, alpha), n_states, floors[1])
    return ProcessModel(transition, emissions, spaces, target, OutcomeSpace(tuple(range(n_targets))),
                        window, delay, seed)


def make_markov_observable(
    seed: int,
    n_states: int = 3,
    n_sources: int = 1,
    n_targets: int = 3,
    window: int = 1,
    delay: int = 0,
) -> ProcessModel:
    """Random chain whose features reveal the state exactly.

    Emissions are per-source random bijections of the state, so the observed
    feature/target process is itself Markov and the Markov-deviation
    coefficient is zero at every lag horizon.
    """
    _check_sizes(n_states=n_states, n_sources=n_sources, n_targets=n_targets)

    def emit(rng):
        kernels = [np.eye(n_states)[rng.permutation(n_states)] for _ in range(n_sources)]
        return kernels, [OutcomeSpace(tuple(range(n_states)))] * n_sources

    return _random_model(seed, n_states, n_targets, 1.0, (0.05, 0.02), emit, window, delay)


def make_hidden_nonmarkov(
    seed: int,
    n_states: int = 4,
    n_sources: int = 1,
    n_symbols: int | Sequence[int] = 2,
    n_targets: int = 2,
    window: int = 1,
    delay: int = 0,
    noise: float = 0.2,
    concentration: float = 1.0,
) -> ProcessModel:
    """Random hidden chain with aliased, noisy emissions.

    ``noise`` blends each deterministic emission row with a random positive
    row; ``concentration`` below one makes transition rows spikier, which
    produces strongly history-dependent observed processes.  With zero noise
    and as many symbols as states the emissions are bijections and the model
    degenerates to an observable Markov one.
    """
    if not 0.0 <= noise <= 1.0:
        raise AofLabError(f"noise must lie in [0, 1], got {noise}")
    if concentration <= 0:
        raise AofLabError("concentration must be positive")
    _check_sizes(n_states=n_states, n_sources=n_sources, n_targets=n_targets)
    symbol_counts = [n_symbols] * n_sources if isinstance(n_symbols, int) else [int(k) for k in n_symbols]
    if len(symbol_counts) != n_sources:
        raise AofLabError("one symbol count per source is required")
    _check_sizes(n_symbols=min(symbol_counts))

    def emit(rng):
        kernels = []
        for k in symbol_counts:
            base = np.concatenate([rng.permutation(k), rng.integers(0, k, size=max(0, n_states - k))])
            base = base[rng.permutation(n_states)][:n_states]
            rows = rng.dirichlet(np.ones(k), size=n_states)
            kernels.append((1.0 - noise) * np.eye(k)[base] + noise * rows)
        return kernels, [OutcomeSpace(tuple(range(k))) for k in symbol_counts]

    return _random_model(seed, n_states, n_targets, concentration, (1e-3, 1e-3), emit, window, delay)


def mix_toward_markov(model: ProcessModel, markov_ref: ProcessModel, eta: float) -> MixtureLawProvider:
    """Provider whose laws blend a Markov reference (weight 1 - eta) with the
    given model (weight eta); its Markov deviation vanishes as eta -> 0."""
    return MixtureLawProvider(base=ExactLawProvider(markov_ref), other=ExactLawProvider(model), eta=eta)


def _symbol_column(parts: Sequence[np.ndarray], tuples: bool) -> CodedColumn:
    """Code a column of nonnegative int labels (one part), or of int tuples
    with one part per tuple slot, by its distinct rows.  Each slot is folded
    into the codes of the slots before it and recoded, so a code stays below
    the row count and cannot overflow however wide the window."""
    codes = np.zeros(len(parts[0]), dtype=np.int64)
    for part in parts:
        _, first, codes = np.unique(codes * (int(part.max()) + 1) + part, return_index=True, return_inverse=True)
    rows = np.stack(parts, axis=1)[first].tolist()
    labels = [tuple(r) for r in rows] if tuples else [r[0] for r in rows]
    return CodedColumn(OutcomeSpace(tuple(labels)), codes)


def sample_trajectory(model: ProcessModel, length: int, seed: int) -> Dataset:
    """Simulate ``length`` slots and emit one fresh-feature row per usable slot.

    Rows start once the first full feature window is available; all age
    columns are zero because every row carries the freshest feature.
    """
    warm = model.delay + model.window - 1
    if length <= warm:
        raise AofLabError(f"length must exceed the warm-up of {warm} slots")
    rng = np.random.default_rng(seed)
    rows = np.cumsum(model.transition, axis=1).tolist()
    state = int(rng.choice(model.n_states, p=model.stationary))
    path = [state]
    for u in memoryview(rng.random(length))[1:]:
        state = bisect.bisect_right(rows[state], u)
        path.append(state)
    states = np.array(path, dtype=np.int64)

    def draw(kernel):
        cum = np.cumsum(kernel, axis=1)[states]
        r = rng.random(length)
        return (r[:, None] > cum).sum(axis=1)

    emitted = [draw(e) for e in model.emissions]
    targets = draw(model.target_kernel)

    # a feature window is read newest first: slot t - delay, then one earlier, ...
    lagged = [
        [sym[warm - model.delay - j: length - model.delay - j] for j in range(model.window)] for sym in emitted
    ]
    xs = tuple(_symbol_column(parts, model.window > 1) for parts in lagged)
    t_values = np.arange(warm, length, dtype=np.int64)
    ages = tuple(np.zeros(len(t_values), dtype=np.int64) for _ in range(model.m))
    y = _symbol_column([targets[warm:]], False)
    return Dataset(t=t_values, xs=xs, ages=ages, y=y)
