"""Loss functions, Bayes actions, and generalized entropy.

A loss specification pairs a per-outcome loss ``L(y, a)`` with its action
space.  The generalized entropy of a distribution is the minimum expected
loss over that action space, attained by the Bayes action:

* logarithmic  — actions are pmfs, ``L(y, q) = -ln q(y)``; the Bayes action
  is the distribution itself and the entropy is Shannon entropy (nats).
* quadratic    — actions are reals, ``L(y, a) = (y - a)^2``; Bayes action is
  the mean and the entropy is the variance (numeric outcomes only).
* zero-one     — actions are labels, ``L(y, a) = 1[y != a]``; Bayes action is
  the mode and the entropy is one minus the top probability.
* finite-table — an explicit action list with a loss table; the Bayes action
  is found by exhaustive search.

Each kind is one kernel on an outcome space: ``fit`` maps rows of outcome
masses (along the last axis, under any leading axes) to one Bayes-action
code per row, ``losses`` maps codes to the matching array of ``L(y, a)``,
and ``encode``/``decode`` translate codes to and from public actions.
Every expected loss, entropy and cross entropy is :func:`risk` of such an
array, for one law or for each law of a stack.

Ties are always broken by the first label/action in the fixed ordering, so
repeated calls on identical inputs return identical actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import IncompatibleSpaceError, UnboundedCrossEntropyError
from .spaces import OutcomeSpace, Pmf

LOGARITHMIC = "logarithmic"
QUADRATIC = "quadratic"
ZERO_ONE = "zero-one"
FINITE_TABLE = "finite-table"


def _per_mass(values: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """``values / mass``, with zeros where ``mass`` is zero."""
    return np.divide(values, mass, out=np.zeros(values.shape), where=mass > 0.0)


class _Kernel:
    """One loss kind bound to an outcome space."""

    def __init__(self, loss: "LossSpec", space: OutcomeSpace):
        self.space = space


class _LogKernel(_Kernel):
    def fit(self, rows):
        return _per_mass(rows, rows.sum(axis=-1, keepdims=True))

    def losses(self, codes):
        return -np.log(codes, out=np.full(codes.shape, -np.inf), where=codes > 0.0)

    def encode(self, action):
        if not isinstance(action, Pmf):
            raise IncompatibleSpaceError("logarithmic actions are pmfs")
        if action.space.labels != self.space.labels:
            raise IncompatibleSpaceError("action pmf lives on a different space")
        return action.probs

    def decode(self, code):
        return Pmf(self.space, code)


class _QuadraticKernel(_Kernel):
    def __init__(self, loss: "LossSpec", space: OutcomeSpace):
        if not space.is_numeric:
            raise IncompatibleSpaceError("quadratic loss needs a numeric outcome space")
        self.levels = space.levels()

    def fit(self, rows):
        return _per_mass(rows @ self.levels, rows.sum(axis=-1))

    def losses(self, codes):
        return (self.levels - codes[..., None]) ** 2

    def encode(self, action):
        return float(action)

    def decode(self, code):
        return float(code)


class _ZeroOneKernel(_Kernel):
    def fit(self, rows):
        return np.argmax(rows, axis=-1)

    def losses(self, codes):
        return (np.arange(len(self.space)) != codes[..., None]).astype(float)

    def encode(self, action):
        return self.space.index(action)

    def decode(self, code):
        return self.space.labels[code]


class _TableKernel(_Kernel):
    def __init__(self, loss: "LossSpec", space: OutcomeSpace):
        self.table, self.actions = loss.aligned_table(space), loss.actions

    def fit(self, rows):
        return np.argmin(rows @ self.table, axis=-1)

    def losses(self, codes):
        return self.table.T[codes]

    def encode(self, action):
        return self.actions.index(action)

    def decode(self, code):
        return self.actions[code]


_KERNELS = {
    LOGARITHMIC: _LogKernel,
    QUADRATIC: _QuadraticKernel,
    ZERO_ONE: _ZeroOneKernel,
    FINITE_TABLE: _TableKernel,
}


@dataclass(frozen=True, eq=False)
class LossSpec:
    """A loss function plus its action space."""

    kind: str
    outcomes: tuple | None = None  # finite-table: labels indexing table rows
    actions: tuple | None = None   # finite-table: action labels (columns)
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KERNELS:
            raise IncompatibleSpaceError(f"unknown loss kind {self.kind!r}")
        if self.kind == FINITE_TABLE:
            if self.outcomes is None or self.actions is None or self.table is None:
                raise IncompatibleSpaceError("finite-table loss needs outcomes, actions, table")
            table = np.asarray(self.table, dtype=float)
            if table.shape != (len(self.outcomes), len(self.actions)):
                raise IncompatibleSpaceError(
                    f"table shape {table.shape} does not match "
                    f"{len(self.outcomes)} outcomes x {len(self.actions)} actions"
                )
            if not np.all(np.isfinite(table)):
                raise IncompatibleSpaceError("finite-table losses must be finite")
            table.setflags(write=False)
            object.__setattr__(self, "outcomes", tuple(self.outcomes))
            object.__setattr__(self, "actions", tuple(self.actions))
            object.__setattr__(self, "table", table)

    def aligned_table(self, space: OutcomeSpace) -> np.ndarray:
        """Loss table with rows reordered to match ``space.labels``."""
        rows = [self.outcomes.index(lab) if lab in self.outcomes else -1 for lab in space.labels]
        if any(r < 0 for r in rows):
            missing = [lab for lab, r in zip(space.labels, rows) if r < 0]
            raise IncompatibleSpaceError(f"loss table missing outcomes {missing}")
        return self.table[rows, :]

    def kernel(self, space: OutcomeSpace):
        """This loss's kernel on ``space``; raises if the space cannot serve it."""
        return _KERNELS[self.kind](self, space)


def log_loss() -> LossSpec:
    return LossSpec(LOGARITHMIC)


def quadratic_loss() -> LossSpec:
    return LossSpec(QUADRATIC)


def zero_one_loss() -> LossSpec:
    return LossSpec(ZERO_ONE)


def table_loss(outcomes: Sequence, actions: Sequence, table) -> LossSpec:
    return LossSpec(FINITE_TABLE, tuple(outcomes), tuple(actions), np.asarray(table, dtype=float))


def risk(
    mass: np.ndarray,
    losses: np.ndarray,
    space: OutcomeSpace,
    row_label: Callable[[int], Any] | None = None,
):
    """Sum of ``mass * losses`` over the ``(rows, outcomes)`` cells with mass:
    a float for one law, one value per law for a ``(laws, rows, outcomes)``
    stack.

    An infinite loss on a cell with mass raises
    :class:`UnboundedCrossEntropyError` naming each such cell by its outcome
    label, paired with ``row_label(row)`` when rows are conditioning cells.
    """
    live = mass > 0.0
    bad = live & np.isinf(losses)
    if bad.any():
        cells = [
            space.labels[y] if row_label is None else (row_label(r), space.labels[y])
            for *_, r, y in zip(*np.nonzero(bad))
        ]
        raise UnboundedCrossEntropyError(f"unbounded cross-entropy: zero action probability on {cells}", cells)
    total = np.multiply(mass, losses, out=np.zeros(mass.shape), where=live)
    return float(total.sum()) if mass.ndim == 2 else total.reshape(len(mass), -1).sum(axis=1)


@dataclass(frozen=True, eq=False)
class BayesResult:
    """Minimizing action and its expected loss."""

    action: Any
    value: float


def bayes_action(p: Pmf, loss: LossSpec) -> BayesResult:
    """Minimize expected loss under ``p`` over the loss's action space."""
    kernel = loss.kernel(p.space)
    mass = p.probs[None, :]
    codes = kernel.fit(mass)
    return BayesResult(kernel.decode(codes[0]), risk(mass, kernel.losses(codes), p.space))


def entropy(p: Pmf, loss: LossSpec) -> float:
    """Generalized entropy: the Bayes-optimal expected loss under ``p``."""
    return bayes_action(p, loss).value


def expected_loss(p: Pmf, action, loss: LossSpec) -> float:
    """Expected loss of a fixed action under ``p``.

    For logarithmic loss the action is a :class:`Pmf` on the same space; zero
    action probability on the support of ``p`` raises
    :class:`UnboundedCrossEntropyError`.
    """
    kernel = loss.kernel(p.space)
    codes = np.asarray([kernel.encode(action)])
    return risk(p.probs[None, :], kernel.losses(codes), p.space)
