"""Conditional entropy, mutual information, and cross entropy on joint laws.

The minimum expected loss of predicting a target from features decomposes
into one Bayes problem per conditioning cell, weighted by the cell's
probability.  Every function here arranges a law as one row of target
masses per conditioning cell (one row when nothing is conditioned on),
fits the loss kernel's Bayes actions on the rows and sums the loss with
:func:`losses.risk`; no function here depends on the loss kind.
:func:`conditional_entropy_stack` scores a whole stack of laws with one fit;
:func:`conditional_entropy` is its case of one law.
Conditioning cells with zero probability contribute nothing; conditioning
*on* such a cell directly is an error (raised by ``JointPmf.conditional``).

Cross entropies evaluate a Bayes action trained under one law against
outcomes drawn from another.  Test mass on a conditioning cell that the
training law never visits raises :class:`UntrainedCellError`; logarithmic
test mass on an outcome the trained action excludes raises
:class:`UnboundedCrossEntropyError`.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable

import numpy as np

from .errors import IncompatibleSpaceError, UntrainedCellError
from .losses import LossSpec, entropy, risk
from .spaces import JointPmf, OutcomeSpace, check_same_variables, grid_label


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
    y_space = joint.space(target)
    return joint.arrange([*given, target]).probs.reshape(-1, len(y_space)), y_space


def conditional_entropy_stack(probs: np.ndarray, y_space: OutcomeSpace, loss: LossSpec) -> np.ndarray:
    """Minimum expected loss of predicting the last axis (outcomes
    ``y_space``) from all other axes, for every law of a ``(laws, ...,
    target outcomes)`` stack; one kernel fit serves the whole stack."""
    rows = probs.reshape(len(probs), -1, len(y_space))
    kernel = loss.kernel(y_space)
    return risk(rows, kernel.losses(kernel.fit(rows)), y_space)


def conditional_entropy(joint: JointPmf, target: str, given: Iterable[str], loss: LossSpec) -> float:
    """Minimum expected loss of predicting ``target`` from the ``given`` set.

    An empty ``given`` reduces to the unconditional generalized entropy of
    the target's marginal.
    """
    rows, y_space = _cond_matrix(joint, target, _canonical_given(joint, target, given))
    return float(conditional_entropy_stack(rows[None], y_space, loss)[0])


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
    kernel = loss.kernel(p_test.space)
    codes = kernel.fit(p_train.probs[None, :])
    return risk(p_test.probs[None, :], kernel.losses(codes), p_test.space)


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
    check_same_variables(joint_test, joint_train)
    given = _canonical_given(joint_test, target, given)
    rows_t, y_space = _cond_matrix(joint_test, target, given)
    rows_q, _ = _cond_matrix(joint_train, target, given)
    kernel = loss.kernel(y_space)
    x_label = partial(grid_label, [joint_test.space(n) for n in given])
    untrained = (rows_t.sum(axis=1) > 0.0) & (rows_q.sum(axis=1) == 0.0)
    if np.any(untrained):
        cells = [x_label(flat) for flat in np.flatnonzero(untrained)]
        raise UntrainedCellError(f"untrained conditioning cells: {cells}", cells)
    return risk(rows_t, kernel.losses(kernel.fit(rows_q)), y_space, x_label if given else None)
