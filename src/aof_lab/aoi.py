"""Age-of-information bookkeeping over discrete slots.

Ages are derived from per-source generation/delivery event lists: the age of
source ``l`` at slot ``t`` is ``t`` minus the creation slot of the freshest
feature delivered by ``t``.  Slots before the first delivery carry a
sentinel and must be trimmed before any aggregation.

Stochastic ordering of age vectors is decided by monotone-coupling
feasibility (a max-flow problem over a dense dominance matrix): mass of the
smaller distribution must be transportable to the larger one along
componentwise-dominating edges.  A greedy coupling gives the starting flow
and shortest augmenting paths finish it.  On failure the smallest minimum
cut yields the upper set with the largest violation as a certificate; every
maximum flow leaves the same supply points on its source side, so the
certificate does not depend on the greedy start.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ._util import (CSV_CHUNK_ROWS, DEFAULT_MAX_CELLS, NORMALIZATION_ATOL, csv_check, csv_text, is_whole, read_csv,
                    read_json, whole_numbers, write_text_atomic)
from .errors import AofLabError, IncompatibleSpaceError, WarmupError

if TYPE_CHECKING:  # pragma: no cover
    from .spaces import Pmf

SENTINEL = -1

FLOW_ATOL = 1e-9
# Residual capacity at or below which a transport edge counts as saturated.
RESIDUAL_ATOL = 1e-13


class DeliveryTrace:
    """Per-source lists of (generation slot, delivery slot) pairs; ``pairs``
    holds each source's as a read-only int64 ``(events, 2)`` array, and
    ``events`` the same pairs as tuples of ints, built on first use.  Traces
    with equal pairs are equal."""

    def __init__(self, events):
        pairs = tuple(np.array(whole_numbers(src, f"source {l} pairs")).reshape(-1, 2)
                      for l, src in enumerate(events, start=1))
        if not pairs:
            raise AofLabError("trace needs at least one source")
        for l, (g, d) in enumerate((p.T for p in pairs), start=1):
            late, back = np.flatnonzero(g > d), np.flatnonzero(g[1:] < g[:-1]) + 1
            if late.size and not (back.size and back[0] < late[0]):
                raise AofLabError(f"source {l}: generation {g[late[0]]} after delivery {d[late[0]]}")
            if back.size:
                raise AofLabError(f"source {l}: generation slots must be nondecreasing")
        for p in pairs:
            p.setflags(write=False)
        self.pairs = pairs

    @functools.cached_property
    def events(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(tuple(zip(*p.T.tolist())) for p in self.pairs)

    def __eq__(self, other):
        if type(other) is not DeliveryTrace:
            return NotImplemented
        return len(self.pairs) == len(other.pairs) and all(map(np.array_equal, self.pairs, other.pairs))

    def __hash__(self):
        return hash(self.events)

    def __repr__(self):
        return f"DeliveryTrace(events={self.events!r})"

    @property
    def m(self) -> int:
        return len(self.pairs)

    def to_csv(self, path) -> None:
        pairs = np.concatenate(self.pairs)
        source = np.repeat(np.arange(1, self.m + 1), [len(p) for p in self.pairs])
        write_text_atomic(path, csv_text(["source_id", "G", "D"], [source, pairs[:, 0], pairs[:, 1]]))

    @classmethod
    def from_csv(cls, path) -> "DeliveryTrace":
        """Read a ``source_id, G, D`` CSV.  Ids are 1-based source indices, so
        m is the largest id and a source without rows has no events; an id
        whose age paths through the last delivery would need more than
        ``DEFAULT_MAX_CELLS`` cells is rejected."""
        def from_columns(columns):
            source, pairs = columns["source_id"], np.stack([columns["G"], columns["D"]], axis=1)
            csv_check("source_id", source >= 1, lambda row: f"{source[row]} is below 1")
            slots = max(int(pairs[:, 1].max()), 0) + 1
            csv_check("source_id", source <= DEFAULT_MAX_CELLS // slots,
                      lambda row: f"{source[row]} sources x {slots} slots is over {DEFAULT_MAX_CELLS} age cells")
            order = np.argsort(source, kind="stable")
            pairs = pairs[order]
            bounds = np.searchsorted(source[order], np.arange(1, int(source.max()) + 2)).tolist()
            return cls(tuple(pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])))

        return read_csv(path, lambda found: ["source_id", "G", "D"], from_columns)


@dataclass(frozen=True, eq=False)
class AgeProcess:
    """Per-source age sample paths; SENTINEL marks pre-first-delivery slots."""

    ages: np.ndarray  # (m, horizon) int

    def __post_init__(self):
        ages = np.array(whole_numbers(self.ages, "ages"))
        if ages.ndim != 2 or ages.shape[1] == 0:
            raise AofLabError(f"ages must be a (sources, horizon) array with horizon >= 1, got shape {ages.shape}")
        if np.any(ages < SENTINEL):
            raise AofLabError(f"ages must be nonnegative, or {SENTINEL} for the sentinel")
        ages.setflags(write=False)
        object.__setattr__(self, "ages", ages)

    @property
    def m(self) -> int:
        return self.ages.shape[0]

    @property
    def horizon(self) -> int:
        return self.ages.shape[1]

    def has_sentinel(self) -> bool:
        return bool(np.any(self.ages == SENTINEL))

    def to_csv(self, path) -> None:
        header = ["t"] + [f"age_{l}" for l in range(1, self.m + 1)]
        oldest = int(self.ages.max())
        if oldest < CSV_CHUNK_ROWS:  # a table of every age from the sentinel's empty text on
            values, codes = ["", *range(oldest + 1)], self.ages - SENTINEL
        else:
            values, codes = np.unique(self.ages, return_inverse=True)
            values = ["" if v == SENTINEL else v for v in values.tolist()]
        columns = [(values, row) for row in codes.reshape(self.ages.shape)]
        write_text_atomic(path, csv_text(header, [np.arange(self.horizon), *columns]))

    @classmethod
    def from_csv(cls, path) -> "AgeProcess":
        """Read the CSV ``to_csv`` writes: a ``t, age_1..age_m`` header, then
        one row per slot from 0 on, an empty age cell marking the sentinel."""
        def from_columns(columns):
            t = columns.pop("t")
            csv_check("t", t == np.arange(len(t)), lambda row: f"{t[row]} is not slot {row}")
            return cls(np.stack(list(columns.values())))

        return read_csv(path, lambda found: ["t"] + [f"age_{l}" for l in range(1, max(len(found), 2))],
                        from_columns, blank=("age_",))


def age_process(trace: DeliveryTrace, horizon: int) -> AgeProcess:
    """Evaluate the age of every source at every slot in [0, horizon)."""
    if horizon <= 0:
        raise AofLabError("horizon must be positive")
    if trace.m * horizon > DEFAULT_MAX_CELLS:
        raise AofLabError(f"{trace.m} sources x horizon {horizon} is over {DEFAULT_MAX_CELLS} age cells")
    slots = np.arange(horizon)
    ages = np.full((trace.m, horizon), SENTINEL, dtype=np.int64)
    for l, pairs in enumerate(trace.pairs):
        if not len(pairs):
            continue
        by_delivery = pairs[np.argsort(pairs[:, 1], kind="stable")]
        deliveries = by_delivery[:, 1]
        freshest = np.maximum.accumulate(by_delivery[:, 0])
        k = np.searchsorted(deliveries, slots, side="right")
        ages[l, k > 0] = slots[k > 0] - freshest[k[k > 0] - 1]
    return AgeProcess(ages)


def _age_component(value) -> int:
    """``value`` as an int; anything ``is_whole`` refuses is an error."""
    if is_whole(value):
        return int(value)
    raise AofLabError(f"age components must be integers, got {value!r}")


@dataclass(frozen=True, eq=False)
class AgeDistribution:
    """Finite distribution over age vectors."""

    vectors: tuple[tuple[int, ...], ...]
    probs: np.ndarray

    def __post_init__(self):
        vectors = tuple(tuple(_age_component(v) for v in vec) for vec in self.vectors)
        if not vectors:
            raise AofLabError("age distribution needs support points")
        m = len(vectors[0])
        for vec in vectors:
            if len(vec) != m:
                raise AofLabError(f"age vectors have inconsistent dimension: {vec} has {len(vec)} "
                                  f"components, {vectors[0]} has {m}")
        if m == 0:
            raise AofLabError(f"age vectors need at least one component, got {vectors[0]}")
        for vec in vectors:
            if any(v < 0 for v in vec):
                raise AofLabError(f"age components must be nonnegative, got {vec}")
        seen = set()
        for vec in vectors:
            if vec in seen:
                raise AofLabError(f"age vectors must be distinct, got {vec} twice")
            seen.add(vec)
        probs = np.array(self.probs, dtype=float)
        if probs.shape != (len(vectors),):
            raise AofLabError(f"probs must have shape {(len(vectors),)}, one per age vector, got {probs.shape}")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > NORMALIZATION_ATOL:
            raise AofLabError("age probabilities must be finite, nonnegative and sum to 1")
        probs.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "probs", probs)

    @property
    def m(self) -> int:
        return len(self.vectors[0])

    @classmethod
    def from_mapping(cls, mapping: Mapping[tuple[int, ...], float]) -> "AgeDistribution":
        vecs = tuple(mapping.keys())
        return cls(vecs, np.array([mapping[v] for v in vecs], dtype=float))

    @classmethod
    def point_mass(cls, vector: Sequence[int]) -> "AgeDistribution":
        return cls((tuple(vector),), np.array([1.0]))

    @classmethod
    def uniform(cls, vectors: Iterable[Sequence[int]]) -> "AgeDistribution":
        vecs = tuple(tuple(v) for v in vectors)
        return cls(vecs, np.full(len(vecs), 1.0 / max(len(vecs), 1)))  # no support points: the constructor refuses

    def to_json_dict(self) -> dict:
        return {
            "vectors": [list(v) for v in self.vectors],
            "probs": [float(p) for p in self.probs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AgeDistribution":
        return cls(tuple(tuple(v) for v in data["vectors"]), np.asarray(data["probs"], dtype=float))

    def save(self, path) -> None:
        write_text_atomic(path, json.dumps(self.to_json_dict()).encode())

    @classmethod
    def load(cls, path) -> "AgeDistribution":
        return read_json(path, cls.from_json_dict)


def empirical_age_distribution(
    ages: AgeProcess, start: int = 0, stop: int | None = None
) -> AgeDistribution:
    """Relative frequency of observed age vectors over [start, stop)."""
    window = ages.ages[:, start:stop]
    if window.shape[1] == 0:
        raise AofLabError("empty aggregation window")
    if np.any(window == SENTINEL):
        raise WarmupError(
            "warm-up not trimmed: sentinel ages inside the aggregation window "
            f"(first delivery has not happened by slot {start})"
        )
    vecs, counts = np.unique(window.T, axis=0, return_counts=True)
    return AgeDistribution(tuple(map(tuple, vecs.tolist())), counts / window.shape[1])


def sample_path_dominates(a: AgeProcess, b: AgeProcess) -> bool:
    """True iff every component of ``a`` is at most ``b`` at every slot."""
    if a.ages.shape != b.ages.shape:
        raise IncompatibleSpaceError(f"shape mismatch: {a.ages.shape} vs {b.ages.shape}")
    if a.has_sentinel() or b.has_sentinel():
        raise WarmupError("warm-up not trimmed: sentinel ages present")
    return bool(np.all(a.ages <= b.ages))


def stochastic_order_univariate(p: Pmf, q: Pmf) -> bool:
    """True iff P(X > x) <= P(Z > x) at every threshold."""
    for pm in (p, q):
        if not pm.space.is_numeric:
            raise IncompatibleSpaceError("stochastic order needs numeric supports")
    points = sorted(
        {lab for lab, pr in zip(p.space.labels, p.probs) if pr > 0}
        | {lab for lab, pr in zip(q.space.labels, q.probs) if pr > 0}
    )
    for x in points:
        tail_p = sum(pr for lab, pr in zip(p.space.labels, p.probs) if lab > x)
        tail_q = sum(pr for lab, pr in zip(q.space.labels, q.probs) if lab > x)
        if tail_p > tail_q + FLOW_ATOL:
            return False
    return True


@dataclass(frozen=True)
class UpperSetWitness:
    """An upper set violating the ordering: mass under the allegedly smaller
    distribution exceeds mass under the larger one."""

    generators: tuple[tuple[int, ...], ...]
    p_mass: float
    q_mass: float

    def contains(self, vector: Sequence[int]) -> bool:
        vec = tuple(vector)
        return any(all(v >= g for v, g in zip(vec, gen)) for gen in self.generators)

    def to_json_dict(self) -> dict:
        return {
            "generators": [list(g) for g in self.generators],
            "p_mass": self.p_mass,
            "q_mass": self.q_mass,
        }


@dataclass(frozen=True)
class OrderingVerdict:
    holds: bool
    witness: UpperSetWitness | None = None

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
        }


def _dominance(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``[i, j]`` is true iff ``lower[i] <= upper[j]`` componentwise."""
    out = np.ones((len(lower), len(upper)), dtype=bool)
    for c in range(lower.shape[1]):  # one component at a time: no (n, n, m) temporary
        out &= lower[:, None, c] <= upper[None, :, c]
    return out


def _max_transport(supply: np.ndarray, demand: np.ndarray, allowed: np.ndarray):
    """Maximum flow from supply to demand points along the ``allowed``
    (uncapacitated) edges.  A greedy pass builds a feasible flow first:
    supply points with the fewest allowed demands go first, and each fills
    its open allowed demands, those with the fewest allowed supplies first.
    Shortest augmenting paths (Edmonds & Karp 1972), each breadth-first
    search expanding one layer at a time, then finish what the greedy flow
    leaves.  Returns the flow value and the mask of supply points the final
    residual graph still reaches: the source side of the smallest minimum
    cut.  Every maximum flow leaves that same set reachable, so the mask does
    not depend on the greedy start.  Residuals up to ``RESIDUAL_ATOL`` count
    as saturated, so rounding cannot move it.
    """
    # Demand points are renumbered fewest allowed supplies first; only the
    # flow value and the supply-side mask leave this function.
    order = np.argsort(allowed.sum(axis=0), kind="stable")
    allowed, supply, demand = allowed[:, order], supply.astype(float), demand[order].astype(float)
    flow, total = np.zeros(allowed.shape), 0.0
    open_q = demand > RESIDUAL_ATOL
    for i in np.argsort(allowed.sum(axis=1), kind="stable"):
        cols = np.flatnonzero(allowed[i] & open_q)
        if supply[i] <= RESIDUAL_ATOL or not cols.size:
            continue
        room = np.cumsum(demand[cols])
        k = int(np.searchsorted(room, supply[i]))  # cols[:k] fill up
        full, left = cols[:k], supply[i] - (room[k - 1] if k else 0.0)
        flow[i, full], demand[full], open_q[full] = demand[full], 0.0, False
        if k < cols.size:  # capped by the demand, so no residual goes negative
            j = cols[k]
            flow[i, j] = take = min(left, demand[j])
            demand[j] -= take
            left -= take
            open_q[j] = demand[j] > RESIDUAL_ATOL
        total += supply[i] - left
        supply[i] = left
    while True:
        seen_p, seen_q = supply > RESIDUAL_ATOL, np.zeros(len(demand), dtype=bool)
        via_q, via_p = np.full(len(supply), -1), np.full(len(demand), -1)
        frontier, end = np.flatnonzero(seen_p), -1
        while frontier.size:
            step = allowed[frontier] & ~seen_q
            reached = np.flatnonzero(step.any(axis=0))
            if not reached.size:
                break
            via_p[reached] = frontier[step[:, reached].argmax(axis=0)]
            seen_q[reached] = True
            sinks = reached[demand[reached] > RESIDUAL_ATOL]
            if sinks.size:
                end = sinks[0]
                break
            back = (flow[:, reached] > RESIDUAL_ATOL).T & ~seen_p
            frontier = np.flatnonzero(back.any(axis=0))
            via_q[frontier] = reached[back[:, frontier].argmax(axis=0)]
            seen_p[frontier] = True
        if end < 0:
            return total, seen_p
        # the path alternates ps[k] -> qs[k] forward and qs[k + 1] -> ps[k] back
        qs, ps = [end], [via_p[end]]
        while via_q[ps[-1]] >= 0:
            qs.append(via_q[ps[-1]])
            ps.append(via_p[qs[-1]])
        delta = min(supply[ps[-1]], demand[end], *flow[ps[:-1], qs[1:]])
        flow[ps, qs] += delta
        flow[ps[:-1], qs[1:]] -= delta
        supply[ps[-1]] -= delta
        demand[end] -= delta
        total += delta


def stochastic_order_multivariate(p: AgeDistribution, q: AgeDistribution) -> OrderingVerdict:
    """Decide multivariate stochastic dominance by coupling feasibility.

    ``p`` is stochastically smaller than ``q`` iff a transport plan moves all
    of ``p``'s mass to ``q`` along componentwise-increasing edges (Strassen
    1965).  The mass left unmoved is the largest violation ``p(U) - q(U)``
    over upper sets ``U``; on failure the witness is the smallest such set,
    generated by the supply points the residual graph still reaches.
    """
    if p.m != q.m:
        raise IncompatibleSpaceError(f"component count mismatch: {p.m} vs {q.m}")
    if len(p.vectors) * len(q.vectors) > DEFAULT_MAX_CELLS:
        raise AofLabError(f"{len(p.vectors)} x {len(q.vectors)} support points is over "
                          f"{DEFAULT_MAX_CELLS} transport cells")
    vp, vq = np.asarray(p.vectors), np.asarray(q.vectors)
    allowed = _dominance(vp, vq)
    flow_value, reached = _max_transport(p.probs, q.probs, allowed)
    if flow_value >= 1.0 - FLOW_ATOL:
        return OrderingVerdict(holds=True)
    cut = vp[reached]
    minimal = ~(_dominance(cut, cut) & ~np.eye(len(cut), dtype=bool)).any(axis=0)
    witness = UpperSetWitness(
        generators=tuple(sorted(map(tuple, cut[minimal].tolist()))),
        p_mass=math.fsum(p.probs[_dominance(cut, vp).any(axis=0)]),
        q_mass=math.fsum(q.probs[allowed[reached].any(axis=0)]),
    )
    return OrderingVerdict(holds=False, witness=witness)
