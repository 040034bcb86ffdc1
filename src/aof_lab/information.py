"""Conditional entropy, mutual information, and cross entropy on joint laws.

The minimum expected loss of predicting a target from features decomposes
into one Bayes problem per conditioning cell, weighted by the cell's
probability.  All functions here evaluate that decomposition exactly with
vectorized per-loss kernels.  Conditioning cells with zero probability
contribute nothing; conditioning *on* such a cell directly is an error
(raised by ``JointPmf.conditional``).

Cross entropies evaluate a Bayes action trained under one law against
outcomes drawn from another.  Test mass on a conditioning cell that the
training law never visits raises :class:`UntrainedCellError`; logarithmic
test mass on an outcome the trained action excludes raises
:class:`UnboundedCrossEntropyError`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
from scipy.special import xlogy

from .errors import (
    IncompatibleSpaceError,
    UnboundedCrossEntropyError,
    UntrainedCellError,
)
from .losses import LOGARITHMIC, QUADRATIC, ZERO_ONE, LossSpec, entropy
from .spaces import JointPmf, OutcomeSpace


def _canonical_given(joint: JointPmf, target: str, given: Iterable[str]) -> tuple[str, ...]:
    given = set(given)
    if target in given:
        raise IncompatibleSpaceError(f"target {target!r} appears in the conditioning set")
    unknown = given - set(joint.names)
    if unknown:
        raise IncompatibleSpaceError(f"unknown variables {sorted(unknown)}")
    joint.axis(target)
    return tuple(n for n in joint.names if n in given)


def _cond_matrix(joint: JointPmf, target: str, given: tuple[str, ...]):
    """Masses reshaped to (conditioning cells, target outcomes)."""
    sub = joint.arrange([*given, target])
    y_space = joint.space(target)
    w = sub.probs.reshape(-1, len(y_space))
    return w, y_space, sub


def _entropy_of_rows(rows: np.ndarray, y_space: OutcomeSpace, loss: LossSpec) -> float:
    """Sum over rows of (row mass) * (generalized entropy of the row's
    normalized conditional).  Rows are unnormalized; zero rows contribute 0.
    """
    w = rows.sum(axis=1)
    if loss.kind == LOGARITHMIC:
        return float(xlogy(w, w).sum() - xlogy(rows, rows).sum())
    if loss.kind == QUADRATIC:
        v = y_space.levels()
        sy = rows @ v
        syy = rows @ (v * v)
        pos = w > 0.0
        return float(syy.sum() - (sy[pos] ** 2 / w[pos]).sum())
    if loss.kind == ZERO_ONE:
        return float(w.sum() - rows.max(axis=1).sum())
    table = loss.aligned_table(y_space)
    return float((rows @ table).min(axis=1).sum())


def conditional_entropy(joint: JointPmf, target: str, given: Iterable[str], loss: LossSpec) -> float:
    """Minimum expected loss of predicting ``target`` from the ``given`` set.

    An empty ``given`` reduces to the unconditional generalized entropy of
    the target's marginal.
    """
    given = _canonical_given(joint, target, given)
    loss.check_space(joint.space(target))
    if not given:
        return entropy(joint.pmf(target), loss)
    rows, y_space, _ = _cond_matrix(joint, target, given)
    return _entropy_of_rows(rows, y_space, loss)


def mutual_information(joint: JointPmf, target: str, features: Iterable[str], loss: LossSpec) -> float:
    """Entropy reduction from conditioning: H_L(Y) - H_L(Y | features)."""
    return entropy(joint.pmf(target), loss) - conditional_entropy(joint, target, features, loss)


def conditional_mutual_information(
    joint: JointPmf, target: str, added: Iterable[str], given: Iterable[str], loss: LossSpec
) -> float:
    """H_L(Y | given) - H_L(Y | added + given), for disjoint variable sets."""
    added = set(added)
    given = set(given)
    overlap = added & given
    if overlap:
        raise IncompatibleSpaceError(f"added and given sets overlap: {sorted(overlap)}")
    if target in added or target in given:
        raise IncompatibleSpaceError("target cannot appear among the features")
    return conditional_entropy(joint, target, given, loss) - conditional_entropy(
        joint, target, added | given, loss
    )


def cross_entropy(p_test, p_train, loss: LossSpec) -> float:
    """Expected loss under ``p_test`` of the Bayes action trained on ``p_train``."""
    if p_test.space.labels != p_train.space.labels:
        raise IncompatibleSpaceError("test and train pmfs live on different spaces")
    loss.check_space(p_test.space)
    pt = p_test.probs
    if loss.kind == LOGARITHMIC:
        bad = (pt > 0.0) & (p_train.probs == 0.0)
        if np.any(bad):
            cells = [p_test.space.labels[i] for i in np.flatnonzero(bad)]
            raise UnboundedCrossEntropyError(
                f"unbounded cross-entropy: zero train probability on {cells}", cells
            )
        return -float(xlogy(pt, p_train.probs).sum())
    if loss.kind == QUADRATIC:
        v = p_test.space.levels()
        a = float(p_train.probs @ v)
        return float(pt @ (v - a) ** 2)
    if loss.kind == ZERO_ONE:
        i = int(np.argmax(p_train.probs))
        return float(1.0 - pt[i])
    table = loss.aligned_table(p_test.space)
    j = int(np.argmin(p_train.probs @ table))
    return float(pt @ table[:, j])


def _check_same_variables(a: JointPmf, b: JointPmf) -> None:
    if a.names != b.names:
        raise IncompatibleSpaceError(f"variable mismatch: {a.names} vs {b.names}")
    for (n, sa), (_, sb) in zip(a.variables, b.variables):
        if sa.labels != sb.labels:
            raise IncompatibleSpaceError(f"space mismatch on variable {n!r}")


def conditional_cross_entropy(
    joint_test: JointPmf,
    joint_train: JointPmf,
    target: str,
    given: Iterable[str],
    loss: LossSpec,
) -> float:
    """Test-law expected loss of per-cell Bayes actions trained on the train law.

    Each conditioning cell with test mass must carry train mass; offenders
    are reported together in :class:`UntrainedCellError`.
    """
    _check_same_variables(joint_test, joint_train)
    given = _canonical_given(joint_test, target, given)
    loss.check_space(joint_test.space(target))
    if not given:
        return cross_entropy(joint_test.pmf(target), joint_train.pmf(target), loss)
    rows_t, y_space, sub_t = _cond_matrix(joint_test, target, given)
    rows_q, _, _ = _cond_matrix(joint_train, target, given)
    wt = rows_t.sum(axis=1)
    wq = rows_q.sum(axis=1)
    x_spaces = [joint_test.space(n) for n in given]

    def x_label(flat: int) -> tuple:
        idx = np.unravel_index(flat, tuple(len(s) for s in x_spaces))
        return tuple(s.labels[i] for s, i in zip(x_spaces, idx))

    untrained = (wt > 0.0) & (wq == 0.0)
    if np.any(untrained):
        cells = [x_label(flat) for flat in np.flatnonzero(untrained)]
        raise UntrainedCellError(f"untrained conditioning cells: {cells}", cells)
    live = np.flatnonzero(wt > 0.0)
    rows_t = rows_t[live]
    rows_q = rows_q[live]
    wq_live = wq[live]

    if loss.kind == LOGARITHMIC:
        q = rows_q / wq_live[:, None]
        bad = (rows_t > 0.0) & (q == 0.0)
        if np.any(bad):
            cells = [(x_label(live[r]), y_space.labels[y]) for r, y in zip(*np.nonzero(bad))]
            raise UnboundedCrossEntropyError(
                f"unbounded cross-entropy: trained conditional excludes test outcomes at {cells}", cells
            )
        return -float(xlogy(rows_t, q).sum())
    if loss.kind == QUADRATIC:
        v = y_space.levels()
        mu = (rows_q @ v) / wq_live
        diff = v[None, :] - mu[:, None]
        return float((rows_t * diff**2).sum())
    if loss.kind == ZERO_ONE:
        picks = np.argmax(rows_q, axis=1)
        hit = rows_t[np.arange(rows_t.shape[0]), picks]
        return float(rows_t.sum() - hit.sum())
    table = loss.aligned_table(y_space)
    picks = np.argmin(rows_q @ table, axis=1)
    return float((rows_t * table[:, picks].T).sum())
