"""Stationary hidden-state process models with exactly computable window laws.

A model is a finite irreducible aperiodic state chain plus per-source
emission kernels, a target kernel, a feature window length ``b``, and a
feature processing delay.  The feature of source ``l`` at slot ``t`` is the
tuple of its last ``b`` emissions ending at ``t - delay`` (newest first); a
window length of one keeps the bare symbol.

Every exact window law comes from one builder, ``exact_window_laws``, which
takes a ``LagStack``.  Under stationarity a window law is ``pi D T^g1 D
T^g2 ... D 1`` (Rabiner 1989) over the flat list of reads in slot order,
where each ``D`` applies one emission kernel and ``g_i`` is the slot gap to
the read before it (zero, the identity, at the same slot).  The reads,
their order, gaps and digit weights are worked out for the whole stack at
once with array operations.  Laws with the same read shape, the symbol
counts of their reads in order, run as one contraction from both ends:
forward rows left of a balanced split and backward columns right of it meet
in one batched matmul, with ``T^g`` taken from powers of the transition
matrix computed once.  ``exact_window_law`` is the case of one request set.
``DEFAULT_MAX_CELLS`` bounds the power table as well as each law's table,
so no separate cap limits how far apart lags may lie.

The builder snaps the total mass of each law back to one after checking
that it is within ``NORMALIZATION_ATOL`` of one.

A trajectory of ``length`` slots is drawn ``CSV_CHUNK_ROWS`` slots at a
time by ``_sampled_blocks``.  After the initial state's ``choice`` its
uniforms are one ``PCG64`` stream, one 64-bit step per double, read at
fixed offsets: the chain's at 0 (the first unused), source ``l``'s
emissions at ``l * length`` and the target's at ``(m + 1) * length``.
``sample_trajectory`` joins the blocks into a ``Dataset``;
``trajectory_csv`` renders each block as the rows its ``to_csv`` writes,
so ``gen`` holds one block whatever the length.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._util import CSV_CHUNK_ROWS, csv_table, csv_text, read_json, render_cell, trajectory_header, write_text_atomic
from .errors import AofLabError, IncompatibleSpaceError, NotNormalizedError
from .laws import DEFAULT_MAX_CELLS, STACK_CELLS, LagStack, MixtureLawProvider, WindowLaw, window_law_of
from .spaces import NORMALIZATION_ATOL, OutcomeSpace

if TYPE_CHECKING:  # pragma: no cover
    from .ingest import Dataset

# L1 move of one power step below which stationary polishing stops
STATIONARY_STEP_ATOL = 1e-16
# most a transition or emission row's sum may differ from 1
ROW_SUM_ATOL = 1e-12
# largest |pi T - pi| entry a stationary vector may leave
STATIONARY_RESIDUAL_ATOL = 1e-10


def _stationary_distribution(transition: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eig(transition.T)
    k = int(np.argmin(np.abs(values - 1.0)))
    pi = np.real(vectors[:, k])
    pi = np.abs(pi)
    pi = pi / pi.sum()
    # polish with a few power steps to push the residual to float precision
    for _ in range(200):
        pi, prev = pi @ transition, pi
        if np.abs(pi - prev).sum() < STATIONARY_STEP_ATOL:
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
    matrix = np.array(matrix, dtype=float)
    if matrix.ndim != 2 or np.any(matrix < 0) or not np.all(np.isfinite(matrix)):
        raise NotNormalizedError(f"{name} must be a nonnegative matrix")
    if np.any(np.abs(matrix.sum(axis=1) - 1.0) > ROW_SUM_ATOL):
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
        if np.abs(stationary @ transition - stationary).max() > STATIONARY_RESIDUAL_ATOL:
            raise NotNormalizedError("stationary vector does not satisfy pi T = pi")
        stationary.setflags(write=False)
        emissions = tuple(_check_rows(f"emission[{l}]", e) for l, e in enumerate(self.emissions))
        spaces = tuple(self.emission_spaces)
        if len(emissions) != len(spaces):
            raise IncompatibleSpaceError(f"one emission kernel per source is required, got {len(emissions)} "
                                         f"kernels for {len(spaces)} emission spaces")
        for l, (kernel, space) in enumerate(zip(emissions, spaces)):
            if kernel.shape != (n, len(space)):
                raise IncompatibleSpaceError(f"emission kernel {l} has shape {kernel.shape}, want (states, symbols) "
                                             f"= {(n, len(space))}")
        target_kernel = _check_rows("target_kernel", self.target_kernel)
        if target_kernel.shape != (n, len(self.target_space)):
            raise IncompatibleSpaceError(f"target kernel has shape {target_kernel.shape}, want (states, targets) "
                                         f"= {(n, len(self.target_space))}")
        if self.window < 1:
            raise AofLabError(f"window must be >= 1, got {self.window}")
        if self.delay < 0:
            raise AofLabError(f"delay must be >= 0, got {self.delay}")
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
        write_text_atomic(path, json.dumps(self.to_json_dict()).encode())

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


def exact_window_law(model: ProcessModel, requests: Sequence) -> WindowLaw:
    """Exact joint law of the requested lagged variables under stationarity,
    with variables named ``y@0``, ``x1@3`` and so on."""
    return window_law_of(ExactLawProvider(model), requests)


def exact_window_laws(model: ProcessModel, stack: LagStack) -> np.ndarray:
    """Exact laws of a lag stack, as ``probs[G, ...]`` in the stack's axis order.

    A target axis reads one cell at slot ``-lag``; a feature axis reads its
    window newest first from slot ``-(lag + delay)``, read ``j`` being digit
    ``b - 1 - j`` of its variable's cell.  Each law's reads are sorted by
    slot, features by source before the target, and coincident reads merge,
    adding their digit weights.  Laws are grouped by read shape.  A group is
    split at the read that best balances the cells on either side: forward
    rows ``pi D T^g ... D`` and backward columns ``D T^g ... D 1`` meet in
    one batched ``F' T^g B``, and the outer sum of the left and right digit
    weights places each elementary cell.  A power table or an unrolled law
    (cells times states) larger than ``DEFAULT_MAX_CELLS`` is rejected before
    it is built; tables are built in chunks of at most ``STACK_CELLS`` cells.
    """
    unknown = [l for l in stack.sources if not 0 <= l <= model.m]
    if unknown:
        raise IncompatibleSpaceError(f"model has {model.m} sources; got 'x{unknown[0]}'")
    n_states, b = model.n_states, model.window
    # kernels padded to the largest alphabet, indexed by a read's source (0 for the target)
    kernels = [model.target_kernel, *model.emissions]
    kernel_stack = np.zeros((len(kernels), n_states, max(k.shape[1] for k in kernels)))
    for i, kernel in enumerate(kernels):
        kernel_stack[i, :, :kernel.shape[1]] = kernel
    alphabet = np.array([k.shape[1] for k in kernels])
    var_sizes = [int(alphabet[l]) ** (1 if l == 0 else b) for l in stack.sources]
    var_strides = [math.prod(var_sizes[i + 1:]) for i in range(len(var_sizes))]

    # reads (axis, j of its window), features by source and the target last: the order within a slot
    cols = sorted(((a, j) for a, l in enumerate(stack.sources) for j in range(b if l else 1)),
                  key=lambda col: stack.sources[col[0]] or model.m + 1)
    axis, j = np.array(cols).T
    src = np.array(stack.sources)[axis]
    weight = np.array(var_strides)[axis] * alphabet[src] ** np.where(src == 0, 0, b - 1 - j)
    # slots relative to each law's smallest lag, so no slot overflows int64
    lags = stack.lags - stack.lags.min(axis=1, keepdims=True)
    span = int(lags.max()) + model.delay + b
    if span > 2**62:
        raise AofLabError(f"a request set spans {span} slots; its transition powers exceed {DEFAULT_MAX_CELLS} cells")
    slot = -(lags[:, axis] + np.where(src == 0, 0, model.delay + j))
    rows, order = np.arange(len(slot))[:, None], np.argsort(slot, axis=1, kind="stable")
    slot, src, weight = slot[rows, order], src[order], weight[order]
    # each read's distinct read (coincident reads share one), and each distinct read's source, slot, weight
    at = np.zeros_like(slot)
    at[:, 1:] = np.cumsum((slot[:, 1:] != slot[:, :-1]) | (src[:, 1:] != src[:, :-1]), axis=1)
    # a row's slots past its last distinct read repeat that read's slot, so their gaps are zero
    kind, coeff = np.zeros_like(slot), np.zeros_like(slot)
    read_slot = np.repeat(slot[:, -1:], slot.shape[1], axis=1)
    kind[rows, at], read_slot[rows, at] = src, slot
    np.add.at(coeff, (rows, at), weight)
    sizes_of = np.where(np.arange(slot.shape[1]) <= at[:, -1:], alphabet[kind], 0)
    # np.unique over one void item per row: axis=0's groups at a fraction of its cost on small stacks
    rows_as_items = sizes_of.view(np.dtype((np.void, sizes_of.itemsize * sizes_of.shape[1]))).ravel()
    _, first, group = np.unique(rows_as_items, return_index=True, return_inverse=True)

    # gap i steps from read i to the next; the last, to the all-ones end, is zero
    gaps_of = np.diff(read_slot, axis=1, append=read_slot[:, -1:])
    max_gap = int(gaps_of.max())
    if (max_gap + 1) * n_states**2 > DEFAULT_MAX_CELLS:
        raise AofLabError(
            f"lag gap {max_gap} would need {max_gap + 1} transition powers of "
            f"{n_states}x{n_states} cells (cap {DEFAULT_MAX_CELLS})"
        )
    powers = np.empty((max_gap + 1, n_states, n_states))
    powers[0] = np.eye(n_states)
    for k in range(1, max_gap + 1):
        powers[k] = powers[k - 1] @ model.transition

    probs = np.zeros((len(stack.lags), math.prod(var_sizes)))
    flat = probs.reshape(-1)
    for u in np.argsort(first):
        members = np.flatnonzero(group == u)
        sizes = sizes_of[first[u]][sizes_of[first[u]] > 0].tolist()
        n, n_cells = len(sizes), math.prod(sizes)
        if n_cells * n_states > DEFAULT_MAX_CELLS:
            raise AofLabError(f"unrolled law would need {n_cells * n_states} cells (cap {DEFAULT_MAX_CELLS})")
        split = min(range(1, max(n, 2)), key=lambda s: max(math.prod(sizes[:s]), math.prod(sizes[s:])))
        # each read adds the new outermost cell axis: forward cells run
        # row-major over reads split - 1 .. 0, backward cells over split .. n - 1
        digits_left = np.indices(sizes[:split][::-1]).reshape(split, -1)[::-1]
        digits_right = np.indices(sizes[split:]).reshape(n - split, math.prod(sizes[split:]))
        chunk = max(1, STACK_CELLS // (n_cells * n_states))
        for start in range(0, len(members), chunk):
            part = members[start:start + chunk]
            index, gaps, weights = kind[part, :n], gaps_of[part, :n], coeff[part, :n]
            emit = [kernel_stack[index[:, i], :, :size] for i, size in enumerate(sizes)]
            # states lie on the axis before the cells, so each step works on long rows
            table = model.stationary[None, :, None] * emit[0]
            for i in range(1, split):
                table = powers[gaps[:, i - 1]].transpose(0, 2, 1) @ table
                table = (table[:, :, None, :] * emit[i][:, :, :, None]).reshape(len(part), n_states, -1)
            back = np.ones((len(part), n_states, 1))
            for i in range(n - 1, split - 1, -1):
                back = powers[gaps[:, i]] @ back
                back = (emit[i][:, :, :, None] * back[:, :, None, :]).reshape(len(part), n_states, -1)
            laws = table.transpose(0, 2, 1) @ powers[gaps[:, split - 1]] @ back
            # every read belongs to a variable, so distinct elementary cells land on
            # distinct cells; each law's row offset into ``flat`` joins the left part
            left = weights[:, :split] @ digits_left + (part * probs.shape[1])[:, None]
            cells = left[:, :, None] + (weights[:, split:] @ digits_right)[:, None, :]
            flat[cells.reshape(-1)] = laws.reshape(-1)
    sums = probs.sum(axis=1)
    drift = float(np.abs(sums - 1.0).max())
    if drift > NORMALIZATION_ATOL:
        raise NotNormalizedError(f"window laws sum to 1 +- {drift!r} before normalization")
    probs /= sums[:, None]
    return probs.reshape(len(stack.lags), *var_sizes)


@dataclass(eq=False)
class ExactLawProvider:
    """Exact window laws of one model, built on demand by ``exact_window_laws``;
    ``DEFAULT_MAX_CELLS`` bounds the tables behind every law."""

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

    def window_law_stack(self, stack: LagStack) -> np.ndarray:
        return exact_window_laws(self.model, stack)


def _check_sizes(**sizes: int) -> None:
    for name, size in sizes.items():
        if size < 1:
            raise AofLabError(f"{name} must be at least 1, got {size}")


def _rng(seed) -> np.random.Generator:
    """numpy's generator for ``seed``; a seed numpy rejects (a negative one)
    is a domain error that names it."""
    try:
        return np.random.default_rng(seed)
    except ValueError:
        raise AofLabError(f"seed must be a nonnegative integer, got {seed!r}") from None


def _random_rows(rng, alpha: np.ndarray, rows: int, floor: float) -> np.ndarray:
    """``rows`` Dirichlet(``alpha``) rows, each lifted by ``floor / len(alpha)`` and renormalized."""
    draw = rng.dirichlet(alpha, size=rows)
    draw = draw + floor / len(alpha)
    return draw / draw.sum(axis=1, keepdims=True)


def _random_model(seed, n_states, n_targets, alpha, floors, emit, window, delay) -> ProcessModel:
    """The recipe both generators share, drawn from one seeded stream in this
    order: transition rows, ``emit(rng)``'s kernels and spaces, target rows."""
    rng = _rng(seed)
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
    if not 0 < concentration < math.inf:
        raise AofLabError(f"concentration must be positive and finite, got {concentration}")
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


def _distinct_rows(parts: Sequence[np.ndarray]) -> tuple[list, np.ndarray]:
    """``(labels, codes)`` of a column of nonnegative int labels (one part),
    or of int tuples with one part per tuple slot: its distinct rows in
    sorted order and an int64 index into them per row.  Each slot is folded
    into the codes of the slots before it and recoded through a table indexed
    by the folded key, so a code stays below the row count and cannot
    overflow however wide the window."""
    codes = np.zeros(len(parts[0]), dtype=np.int64)
    for part in parts:
        keys = codes * (int(part.max()) + 1) + part
        seen = np.zeros(int(keys.max()) + 1, dtype=bool)
        seen[keys] = True
        codes = (np.cumsum(seen) - 1)[keys]
    first = np.full(int(codes.max()) + 1, len(codes))
    np.minimum.at(first, codes, np.arange(len(codes)))
    rows = np.stack([part[first] for part in parts], axis=1).tolist()
    return [tuple(r) for r in rows] if len(parts) > 1 else [r[0] for r in rows], codes


def _sampled_blocks(model: ProcessModel, length: int, seed: int):
    """The draws of a ``length``-slot trajectory, ``CSV_CHUNK_ROWS`` slots at
    a time, as an iterator of blocks of int64 columns: ``t``, each source's
    window parts newest first (slot ``t - delay``, then one earlier, ...),
    then the target.  A block holds the rows of its slots that have a full
    feature window, and a block without such a row is skipped.  The length
    and seed are checked before the first block is asked for.

    Each stream of uniforms (see the module docstring for its offset) is
    read through its own ``PCG64`` copy, started from the state after the
    ``choice`` and moved on with ``advance``.  The chain state and each
    source's last ``delay + window - 1`` symbols carry from one block to
    the next."""
    warm = model.delay + model.window - 1
    if length <= warm:
        raise AofLabError(f"length must exceed the warm-up of {warm} slots, got {length}")
    rng = _rng(seed)
    state = int(rng.choice(model.n_states, p=model.stationary))
    after_choice = rng.bit_generator.state
    streams = []
    for k in range(model.m + 2):
        bits = np.random.PCG64()
        bits.state = after_choice
        streams.append(np.random.Generator(bits.advance(k * length)))
    rows = np.cumsum(model.transition, axis=1).tolist()
    kernels = [np.cumsum(kernel, axis=1).T for kernel in (*model.emissions, model.target_kernel)]

    def blocks(state):
        tails = [np.empty(0, dtype=np.int64)] * model.m  # each source's symbols of the slots before the block
        for start in range(0, length, CSV_CHUNK_ROWS):
            stop = min(start + CSV_CHUNK_ROWS, length)
            path = [state] if start == 0 else []  # slot 0's state is drawn, so its uniform is unused
            for u in memoryview(streams[0].random(stop - start))[len(path):]:
                state = bisect.bisect_right(rows[state], u)
                path.append(state)
            states = np.array(path, dtype=np.int64)
            emitted = []
            for stream, cumulative in zip(streams[1:], kernels):
                r = stream.random(stop - start)
                symbols = np.zeros(stop - start, dtype=np.int64)
                for column in cumulative:  # a symbol is the number of cumulative masses below r
                    symbols += r > column[states]
                emitted.append(symbols)
            first = max(start, warm)  # the block's first row
            columns = [np.arange(first, stop, dtype=np.int64)]
            for l, symbols in enumerate(emitted[:-1]):
                # the carried symbols, then the block's: index i is slot base + i
                slots = np.concatenate([tails[l], symbols])
                base = start - len(tails[l])
                columns += [slots[first - model.delay - j - base: stop - model.delay - j - base]
                            for j in range(model.window)]
                tails[l] = slots[max(0, len(slots) - warm):]
            columns.append(emitted[-1][first - start:])
            if first < stop:
                yield columns

    return blocks(state)


def trajectory_csv(model: ProcessModel, length: int, seed: int):
    """The bytes ``sample_trajectory(model, length, seed).to_csv`` writes, as
    an iterator of blocks for ``write_text_atomic``: the header row, then the
    rows of each block of ``_sampled_blocks``, so the memory it holds is one
    block's whatever the length.  A feature window's labels are its distinct
    rows in the block."""
    b = model.window

    def text(block):
        xs = []
        for l in range(model.m):
            labels, codes = _distinct_rows(block[1 + l * b: 1 + (l + 1) * b])
            xs.append(([render_cell(label) for label in labels], codes))
        ages = [np.zeros(len(block[0]), dtype=np.int64)] * model.m
        return csv_text(None, [block[0], *xs, *ages, block[-1]])

    return itertools.chain([csv_table(trajectory_header(model.m), ())], map(text, _sampled_blocks(model, length, seed)))


def sample_trajectory(model: ProcessModel, length: int, seed: int) -> Dataset:
    """Simulate ``length`` slots and emit one fresh-feature row per usable slot.

    Rows start once the first full feature window is available; all age
    columns are zero because every row carries the freshest feature.  The
    blocks of ``_sampled_blocks`` are joined and each column coded by its
    distinct rows.
    """
    from .ingest import CodedColumn, Dataset  # here, so exact-law commands load neither ingest nor aoi

    columns = [np.concatenate(column) for column in zip(*_sampled_blocks(model, length, seed))]
    b = model.window

    def coded(parts):
        labels, codes = _distinct_rows(parts)
        return CodedColumn(OutcomeSpace(tuple(labels)), codes)

    t = columns[0]
    xs = tuple(coded(columns[1 + l * b: 1 + (l + 1) * b]) for l in range(model.m))
    ages = tuple(np.zeros(len(t), dtype=np.int64) for _ in range(model.m))
    return Dataset(t=t, xs=xs, ages=ages, y=coded(columns[-1:]))
