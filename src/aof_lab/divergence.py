"""Chi-squared divergence machinery.

Neyman's chi-squared divergence ``sum (P - Q)^2 / Q`` measures two kinds of
closeness in this package: the Markov-deviation coefficient of a process
(via the chi-squared conditional mutual information maximized over a lag
grid) and the train/test mismatch radius ``beta``.

Cells where both the compared law and the reference vanish contribute zero.
The conditional mutual information always uses the product reference
``P(y|x) P(z|x) P(x)``, which dominates the triple law, so degenerate
(deterministic) conditionals are handled exactly rather than rejected.

One kernel computes the conditional mutual information, over a stack of
(x, y, z) cubes with no loop over conditioning cells; a single joint law is
a stack of one.  ``epsilon_coefficient`` walks the lag grid one layout at a
time (the sources whose future lag is nonzero).  It builds each layout's
lags with numpy as a ``LagStack`` in cube order (x at tau, y at 0, x at
tau + mu), so every stack the provider returns is already a stack of
cubes, and scatters the values back into the lexicographic grid.
``epsilon_sweep`` shares that walk: for a family of mixtures ``(1 - eta) *
base + eta * other`` it builds each chunk's two endpoint stacks once and
mixes and scores them per ``eta``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import AofLabError, IncompatibleSpaceError, PositivityError, ReferenceNotInteriorError
from .laws import DEFAULT_MAX_CELLS, STACK_CELLS, LagStack, MixtureLawProvider
from .spaces import JointPmf, OutcomeSpace, Pmf, check_same_variables, grid_label

# triple mass above this on a cell whose product reference is zero breaks the
# domination the conditional mutual information relies on
POSITIVITY_ATOL = 1e-15

# grid points whose epsilon lies this close to the maximum tie for the argmax
EPSILON_TIE_ATOL = 1e-12

if TYPE_CHECKING:  # pragma: no cover
    from .laws import LawProvider


def _aligned_arrays(p, q):
    if isinstance(p, Pmf) and isinstance(q, Pmf):
        if p.space.labels != q.space.labels:
            raise IncompatibleSpaceError("pmfs live on different spaces")
        return p.probs, q.probs, lambda i: p.space.labels[i]
    if isinstance(p, JointPmf) and isinstance(q, JointPmf):
        check_same_variables(p, q)
        return p.probs.ravel(), q.probs.ravel(), p.cell_label
    raise IncompatibleSpaceError("chi2_divergence needs two Pmfs or two JointPmfs of the same shape")


def chi2_divergence(p, q) -> float:
    """Neyman's chi-squared divergence of ``p`` from the reference ``q``.

    Zero iff ``p == q``.  The reference must be positive wherever ``p`` has
    mass; otherwise the divergence is infinite and
    :class:`ReferenceNotInteriorError` is raised with the offending cells.
    """
    pa, qa, label = _aligned_arrays(p, q)
    bad = (pa > 0.0) & (qa == 0.0)
    if np.any(bad):
        cells = [label(int(i)) for i in np.flatnonzero(bad)]
        raise ReferenceNotInteriorError(f"reference not interior: zero mass at {cells}", cells)
    pos = qa > 0.0
    d = pa[pos] - qa[pos]
    return float((d * d / qa[pos]).sum())


def _chi2_cmi_stack(cubes: np.ndarray, x_spaces: Sequence[OutcomeSpace]) -> np.ndarray:
    """Chi-squared conditional MI of every cube in a ``(G, n_x, n_y, n_z)``
    stack, where the x axis runs row-major over ``x_spaces``.

    Raises :class:`PositivityError` naming every conditioning cell, by its
    labels, that puts mass on a zero product-reference cell.
    """
    w = cubes.sum(axis=(2, 3))
    py = cubes.sum(axis=3)
    pz = cubes.sum(axis=2)
    # a conditioning cell without mass has an all-zero slab and reference
    ref = py[:, :, :, None] * pz[:, :, None, :]
    ref /= np.where(w > 0.0, w, 1.0)[:, :, None, None]
    terms = cubes - ref
    terms *= terms
    if not ref.all():
        pos = ref > 0.0
        stray = (~pos & (cubes > POSITIVITY_ATOL)).any(axis=(0, 2, 3))
        if np.any(stray):
            cells = [grid_label(x_spaces, x) for x in np.flatnonzero(stray)]
            raise PositivityError(
                f"positivity violated: triple mass on a zero product-reference cell at {cells}", cells
            )
        ref[~pos] = np.inf  # such a cell holds at most POSITIVITY_ATOL and adds zero
    terms /= ref
    return terms.sum(axis=(1, 2, 3))


def chi2_conditional_mi(
    joint: JointPmf, target: str, future: Iterable[str], given: Iterable[str]
) -> float:
    """Chi-squared conditional mutual information of target and future given X.

    Computed as the chi-squared divergence of the triple law from the product
    reference ``P(y|x) P(z|x) P(x)``.  Zero iff the target and the future
    block are conditionally independent given the conditioning block.
    """
    future = list(dict.fromkeys(future))
    given = list(dict.fromkeys(given))
    overlap = set(future) & set(given)
    if overlap:
        raise IncompatibleSpaceError(f"future and given sets overlap: {sorted(overlap)}")
    if target in future or target in given:
        raise IncompatibleSpaceError("target cannot appear among the lagged blocks")
    sub = joint.arrange([*given, target, *future])
    n_y = len(joint.space(target))
    n_z = int(np.prod([len(joint.space(n)) for n in future], dtype=np.int64))
    cube = sub.probs.reshape(1, -1, n_y, n_z)
    return float(_chi2_cmi_stack(cube, [joint.space(n) for n in given])[0])


@dataclass(frozen=True)
class EpsilonReport:
    """Markov-deviation coefficient over a capped lag grid.

    ``epsilon`` is the square root of the largest chi-squared conditional
    mutual information found on the grid; because the grid is capped it is a
    certified lower bound on the uncapped supremum.  The argmax is the first
    (tau, mu) whose epsilon is within ``EPSILON_TIE_ATOL`` of ``epsilon``, so
    last-bit noise cannot move it (on a Markov model: tau = 0..0, mu = 0..01).
    ``grid`` retains every evaluated (tau, mu, value) triple for audit.
    """

    epsilon: float
    argmax_tau: tuple[int, ...]
    argmax_mu: tuple[int, ...]
    tau_max: int
    mu_max: int
    grid: tuple[tuple[tuple[int, ...], tuple[int, ...], float], ...]

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "tau_max": self.tau_max,
            "mu_max": self.mu_max,
            "argmax_tau": list(self.argmax_tau),
            "argmax_mu": list(self.argmax_mu),
        }


def epsilon_coefficient(laws: "LawProvider", tau_max: int = 8, mu_max: int = 8) -> EpsilonReport:
    """Maximize the chi-squared conditional MI over the capped lag grid.

    For every tau vector in [0, tau_max]^m and mu vector in [0, mu_max]^m
    with mu not identically zero, evaluates the triple (target now, features
    at lags tau, features at lags tau + mu).  Ties in the maximum, up to
    ``EPSILON_TIE_ATOL`` in epsilon, go to the lexicographically smallest
    (tau, mu) pair, so the result is independent of evaluation order.

    Grid points are evaluated one layout at a time: the layout is the set of
    sources with a nonzero future lag, which fixes the law's variables and
    the split into conditioning and future blocks.  A model whose laws
    exceed ``DEFAULT_MAX_CELLS`` cells is rejected before any law is built.
    """
    return _epsilon_reports(laws, tau_max, mu_max, 1, lambda stack: [laws.window_law_stack(stack)])[0]


def epsilon_sweep(
    base: "LawProvider", other: "LawProvider", etas: Sequence[float], tau_max: int = 8, mu_max: int = 8
) -> list[EpsilonReport]:
    """:func:`epsilon_coefficient` of ``MixtureLawProvider(base, other, eta)``
    for every ``eta``; each chunk of the lag grid asks both providers for
    its laws once and mixes the two stacks per ``eta``."""
    mixtures = [MixtureLawProvider(base, other, eta) for eta in etas]

    def stacks(stack):
        a, b = base.window_law_stack(stack), other.window_law_stack(stack)
        return (mixture.mix(a, b) for mixture in mixtures)

    return _epsilon_reports(base, tau_max, mu_max, len(etas), stacks)


def _epsilon_reports(laws: "LawProvider", tau_max: int, mu_max: int, n_reports: int, stacks) -> list[EpsilonReport]:
    """Walk the lag grid of :func:`epsilon_coefficient` on the spaces of
    ``laws``; ``stacks(stack)`` yields ``n_reports`` law stacks of a
    :class:`LagStack`, one per report."""
    if tau_max < 0 or mu_max < 0:
        raise IncompatibleSpaceError("lag caps must be nonnegative")
    m = laws.m
    taus = list(itertools.product(range(tau_max + 1), repeat=m))
    mus = [mu for mu in itertools.product(range(mu_max + 1), repeat=m) if any(mu)]
    if not mus:
        raise IncompatibleSpaceError("empty lag grid: mu_max must allow a nonzero lag")
    y_space = laws.target_space
    x_spaces = [laws.feature_space(l) for l in range(1, m + 1)]
    n_x = int(np.prod([len(space) for space in x_spaces]))
    largest = n_x * len(y_space) * n_x
    if largest > DEFAULT_MAX_CELLS:
        raise AofLabError(
            f"epsilon grid laws need up to {largest} cells (cap {DEFAULT_MAX_CELLS}); "
            "--lag-cap, --tau-max and --mu-max only choose the lags searched, "
            "so use a model with fewer sources, fewer symbols or a shorter window"
        )

    values = np.empty((n_reports, len(taus), len(mus)))
    tau_lags, mu_lags = np.array(taus, dtype=np.int64), np.array(mus, dtype=np.int64)
    for mask in itertools.product((False, True), repeat=m):
        cols = np.flatnonzero(np.all((mu_lags > 0) == mask, axis=1))
        if not len(cols):
            continue
        # cube axes: x@tau per source, y@0, then x@(tau + mu) per masked source
        future = np.flatnonzero(mask)
        sources = (*range(1, m + 1), 0, *(future + 1).tolist())
        rows, columns = np.repeat(np.arange(len(taus)), len(cols)), np.tile(cols, len(taus))
        lags = np.column_stack([tau_lags[rows], np.zeros(len(rows), dtype=np.int64),
                                (tau_lags[rows] + mu_lags[columns])[:, future]])
        n_z = int(np.prod([len(x_spaces[l]) for l in future]))
        chunk = max(1, STACK_CELLS // (n_x * len(y_space) * n_z))
        for start in range(0, len(rows), chunk):
            part = slice(start, start + chunk)
            for k, probs in enumerate(stacks(LagStack(sources, lags[part]))):
                cubes = probs.reshape(len(probs), n_x, len(y_space), n_z)
                values[k][rows[part], columns[part]] = _chi2_cmi_stack(cubes, x_spaces)
    return [_report(taus, mus, v, tau_max, mu_max) for v in values]


def _report(taus, mus, values: np.ndarray, tau_max: int, mu_max: int) -> EpsilonReport:
    eps = np.sqrt(np.maximum(values, 0.0))
    # first near-maximum in lexicographic (tau, mu) order
    t, j = divmod(int(np.argmax(eps >= eps.max() - EPSILON_TIE_ATOL)), len(mus))
    grid = tuple(
        (tau, mu, value) for tau, row in zip(taus, values.tolist()) for mu, value in zip(mus, row)
    )
    return EpsilonReport(
        epsilon=float(eps.max()),
        argmax_tau=taus[t],
        argmax_mu=mus[j],
        tau_max=tau_max,
        mu_max=mu_max,
        grid=grid,
    )


@dataclass(frozen=True)
class BetaReport:
    """Chi-squared neighborhood radius between two laws."""

    beta: float
    divergence: float

    def to_json_dict(self) -> dict:
        return {"beta": self.beta, "divergence": self.divergence}


def beta_between(train: JointPmf, test: JointPmf) -> BetaReport:
    """Radius of the smallest chi-squared ball around the train law
    containing the test law; the train law is the reference."""
    d = chi2_divergence(test, train)
    return BetaReport(beta=float(np.sqrt(d)), divergence=float(d))
