"""Forecasting-loss analyses over age vectors.

The minimum expected loss of predicting the current target from features at
lags ``delta`` is an exact conditional entropy under the window law.  Along
a coordinate staircase that walks each lag down to zero it telescopes into

    h(delta) = f1(delta) - f2(delta),

where every step contributes a nonnegative "information gained" term to f1
and a nonnegative "information lost" term to f2 (the latter vanish exactly
when the observed process is Markov).  The identity holds for any law and
any coordinate order; the split itself depends on the order, which callers
choose via ``path``.

Laws are asked for as ``LagStack``s with the target last, (x..., y@0), the
order the stacked conditional entropy scores: a loss curve is one stack of
its age vectors, a decomposition one stack of the laws reading each source
once plus one per walked source of the laws reading it at two lags.

Dynamic ages are handled by mixing per-age laws (the stack of constant-age
laws weighted by the age law) into one joint law of (age, x1..xm, y), the
variables and age axis (``laws.AGE_VARIABLE``) of the joint that
``ingest.dynamic_age_law`` counts from data: training with the age as a
feature recovers the age-weighted average of constant-age losses, training
without it conditions on the pooled mixture and can only be worse.  Every
testing loss is one ``conditional_cross_entropy`` call: per-cell Bayes
actions trained on one provider's age-weighted joint, scored on another's
under the same ages.
:func:`cross_loss_sweep` mixes the test laws toward the training ones from
the two constant-age stacks, each built once.

``aoi`` serves type hints only and ``divergence`` is imported inside
:func:`cross_loss_sweep`, so a loss curve or a decomposition loads neither.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._util import DEFAULT_MAX_CELLS, csv_table, whole_numbers, write_text_atomic
from .errors import AofLabError, IncompatibleSpaceError
from .information import conditional_cross_entropy, conditional_entropy, conditional_entropy_stack
from .laws import AGE_VARIABLE, LagStack, LawProvider, MixtureLawProvider, axis_spaces, source_variable
from .losses import LossSpec
from .spaces import JointPmf, OutcomeSpace

if TYPE_CHECKING:  # pragma: no cover
    from .aoi import AgeDistribution

AgeVector = tuple[int, ...]


def _age_vector(delta: Sequence[int], m: int, field: str = "delta") -> AgeVector:
    vec = tuple(whole_numbers(delta, f"{field} lags").tolist())
    if len(vec) != m:
        raise IncompatibleSpaceError(f"age vector {vec} does not match {m} sources")
    if any(d < 0 for d in vec):
        raise AofLabError(f"age components must be nonnegative, got {vec}")
    return vec


def _age_vectors(grid: Sequence[Sequence[int]], m: int) -> list[AgeVector]:
    """``_age_vector`` of every grid point.  A rectangular grid of whole,
    nonnegative numbers is checked in one ``whole_numbers`` call; any other
    grid point by point, so the error names the first bad point as before."""
    points = list(grid)
    try:
        table = whole_numbers(points, "grid point lags")
    except AofLabError:
        table = None
    if table is not None and len(points) and table.shape == (len(points), m) and table.min() >= 0:
        return list(map(tuple, table.tolist()))
    return [_age_vector(g, m, "grid point") for g in points]


def _constant_age_laws(laws: LawProvider, lags, sources: Sequence[int] | None = None) -> np.ndarray:
    """Laws of (x@lag per source, y@0) per row of ``lags``, ``sources`` by default 1..m, as one stack."""
    lags = np.asarray(lags)
    sources = range(1, laws.m + 1) if sources is None else sources
    if lags.shape[1] != len(sources):
        raise IncompatibleSpaceError(f"age distribution and provider disagree on sources: "
                                     f"age vectors of length {lags.shape[1]}, {len(sources)} sources")
    lags = np.column_stack([lags, np.zeros(len(lags), dtype=np.int64)])
    return laws.window_law_stack(LagStack((*sources, 0), lags))


def min_training_loss(laws: LawProvider, delta: Sequence[int], loss: LossSpec) -> float:
    """Exact minimum expected loss at the constant age vector ``delta``."""
    stack = _constant_age_laws(laws, [_age_vector(delta, laws.m)])
    return float(conditional_entropy_stack(stack, laws.target_space, loss)[0])


@dataclass(frozen=True)
class StaircaseTerm:
    """One step of the decomposition: walking source ``source`` from lag
    ``lag + 1`` down to ``lag`` in the stated context."""

    source: int
    lag: int
    context: tuple[tuple[int, int], ...]
    gained: float
    lost: float

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "lag": self.lag,
            "context": [list(c) for c in self.context],
            "gained": self.gained,
            "lost": self.lost,
        }


@dataclass(frozen=True)
class DecompositionReport:
    """Minimum training loss split into two non-decreasing age functions."""

    delta: AgeVector
    h: float
    f1: float
    f2: float
    base: float
    path: tuple[int, ...]
    loss_kind: str
    terms: tuple[StaircaseTerm, ...]

    def to_json_dict(self) -> dict:
        return {
            "delta": list(self.delta),
            "h": self.h,
            "f1": self.f1,
            "f2": self.f2,
            "base": self.base,
            "path": list(self.path),
            "loss_kind": self.loss_kind,
            "terms": [t.to_json_dict() for t in self.terms],
        }

    def save(self, path) -> None:
        write_text_atomic(path, json.dumps(self.to_json_dict(), indent=2).encode())


def decompose(
    laws: LawProvider,
    delta: Sequence[int],
    loss: LossSpec,
    path: Sequence[int] | None = None,
) -> DecompositionReport:
    """Split the minimum training loss at ``delta`` into gained/lost sums.

    ``path`` is the coordinate order (0-based): coordinate ``path[0]`` is
    walked from its lag down to zero while later coordinates stay at their
    full lags and earlier ones are pinned at zero, then the next coordinate
    follows.  ``h == f1 - f2`` holds for any law and any path; ``h`` is also
    computed directly so reports expose the identity rather than assume it.
    A ``delta`` whose staircase table, ``(sum(delta) + 1) x m`` cells, is
    over ``DEFAULT_MAX_CELLS`` is refused before anything is built.
    """
    m = laws.m
    vec = _age_vector(delta, m)
    if (sum(vec) + 1) * m > DEFAULT_MAX_CELLS:
        raise AofLabError(f"age vector {vec}: its staircase of {sum(vec) + 1} age vectors x {m} sources "
                          f"is over {DEFAULT_MAX_CELLS} cells")
    if path is None:
        path = tuple(range(m))
    else:
        path = tuple(whole_numbers(path, "path").tolist())
        if sorted(path) != list(range(m)):
            raise IncompatibleSpaceError(f"path {path} must be a permutation of 0..{m - 1}")

    # the staircase from delta down to zero, coordinate path[0] first: step i
    # lowers coordinate steps[i] by one, from stair[i] to stair[i + 1]
    steps = np.repeat(path, [vec[c] for c in path])
    stair = np.array([vec] * (len(steps) + 1), dtype=np.int64)
    stair[1:] -= np.cumsum(np.eye(m, dtype=np.int64)[steps], axis=0)
    entropy = conditional_entropy_stack(_constant_age_laws(laws, stair), laws.target_space, loss).tolist()
    base, h = entropy[-1], entropy[0]

    terms = []
    f1 = base
    f2 = 0.0
    for stage, c in enumerate(path):
        at = np.flatnonzero(steps == c)[::-1]  # the steps that lower c, to lag 0, 1, ...
        if not len(at):
            continue
        # the laws reading source c + 1 at both lags k and k + 1, beside the context
        both = _constant_age_laws(laws, np.insert(stair[at + 1], c + 1, stair[at, c], axis=1),
                                  [*range(1, c + 2), *range(c + 1, m + 1)])
        both = conditional_entropy_stack(both, laws.target_space, loss).tolist()
        context = tuple(sorted([(d + 1, vec[d]) for d in path[stage + 1:]] + [(d + 1, 0) for d in path[:stage]]))
        for k, (i, with_both) in enumerate(zip(at.tolist(), both)):
            gained = entropy[i] - with_both
            lost = entropy[i + 1] - with_both
            terms.append(StaircaseTerm(source=c + 1, lag=k, context=context, gained=gained, lost=lost))
            f1 += gained
            f2 += lost
    return DecompositionReport(
        delta=vec,
        h=h,
        f1=f1,
        f2=f2,
        base=base,
        path=path,
        loss_kind=loss.kind,
        terms=tuple(terms),
    )


@dataclass(frozen=True)
class LossCurve:
    """Loss values on a grid of age vectors plus a non-monotonicity index.

    The index sums, over all grid edges that increase exactly one coordinate
    by one, the drop (if any) of the loss along that edge; it is zero iff
    the sampled curve is coordinate-wise non-decreasing.
    """

    grid: tuple[AgeVector, ...]
    values: tuple[float, ...]
    loss_kind: str
    nonmonotonicity_index: float

    def to_csv(self, path) -> None:
        header = [f"delta_{l}" for l in range(1, len(self.grid[0]) + 1)] + ["loss"]
        rows = [list(vec) + [val] for vec, val in zip(self.grid, self.values)]
        write_text_atomic(path, csv_table(header, rows))


def loss_curve(laws: LawProvider, grid: Sequence[Sequence[int]], loss: LossSpec) -> LossCurve:
    """Evaluate the minimum training loss over a grid of age vectors."""
    vectors = _age_vectors(grid, laws.m)
    if not vectors:
        raise AofLabError("grid must hold at least one age vector")
    seen = set()
    for vec in vectors:
        if vec in seen:
            raise AofLabError(f"grid points must be distinct, got {vec} twice")
        seen.add(vec)
    values = conditional_entropy_stack(_constant_age_laws(laws, vectors), laws.target_space, loss).tolist()
    index = 0.0
    value_of = dict(zip(vectors, values))
    for vec, val in value_of.items():
        for c in range(laws.m):
            upper = vec[:c] + (vec[c] + 1,) + vec[c + 1 :]
            if upper in value_of:
                index += max(0.0, val - value_of[upper])
    return LossCurve(
        grid=tuple(vectors),
        values=tuple(float(v) for v in values),
        loss_kind=loss.kind,
        nonmonotonicity_index=float(index),
    )


def _age_weighted(ages: AgeDistribution, laws: LawProvider, stack: np.ndarray) -> JointPmf:
    """Joint law of (age vector, held features, target): the constant-age
    stack of ``laws`` at ``ages.vectors`` weighted by the age law."""
    weights = ages.probs.reshape((-1,) + (1,) * (stack.ndim - 1))
    sources = (*range(1, laws.m + 1), 0)
    variables = ((AGE_VARIABLE, OutcomeSpace(ages.vectors)),
                 *zip(map(source_variable, sources), axis_spaces(laws, sources)))
    return JointPmf(variables, stack * weights)


def dynamic_joint(laws: LawProvider, ages: AgeDistribution) -> JointPmf:
    """Joint law of (age vector, held features, target) under dynamic ages."""
    return _age_weighted(ages, laws, _constant_age_laws(laws, ages.vectors))


def joint_training_loss(
    laws: LawProvider, ages: AgeDistribution, loss: LossSpec, with_age_feature: bool = True
) -> float:
    """Minimum training loss under dynamic ages, pooled over age values.

    With the age included as a feature this equals the age-weighted average
    of the constant-age losses; with it excluded the decision rule sees only
    the pooled feature mixture, which can only increase the loss.
    """
    joint = dynamic_joint(laws, ages)
    features = [f"x{l + 1}" for l in range(laws.m)]
    if with_age_feature:
        return conditional_entropy(joint, "y", [AGE_VARIABLE, *features], loss)
    return conditional_entropy(joint, "y", features, loss)


def testing_loss(train_laws: LawProvider, test_laws: LawProvider, ages: AgeDistribution, loss: LossSpec) -> float:
    """Expected test-law loss of per-cell Bayes actions trained elsewhere.

    Actions are trained per (age vector, feature cell) under the training
    provider, both providers' laws weighted by ``ages``; an action depends on
    its row's conditional only.  Conditioning cells with test mass but no
    train mass raise :class:`UntrainedCellError`.
    """
    return _joint_testing_loss(dynamic_joint(test_laws, ages), dynamic_joint(train_laws, ages), loss)


def _joint_testing_loss(joint_test: JointPmf, joint_train: JointPmf, loss: LossSpec) -> float:
    """The loss under ``joint_test`` of the per-cell Bayes actions of ``joint_train``."""
    features = [n for n in joint_test.names if n != "y"]
    return conditional_cross_entropy(joint_test, joint_train, "y", features, loss)


def cross_loss_sweep(
    train_laws: LawProvider, test_laws: LawProvider, ages: AgeDistribution, loss: LossSpec, etas: Sequence[float]
) -> tuple[float, list[tuple[float, float]]]:
    """``(training, [(beta, testing), ...])``: the joint training loss and,
    per weight ``eta``, the radius and testing loss against the test laws of
    ``MixtureLawProvider(train_laws, test_laws, eta)``; ``eta = 1.0`` tests
    on ``test_laws`` itself."""
    from .divergence import beta_between

    # each feature space's size, then the training laws, before the mixtures
    # compare the providers' feature labels: a model over the cell cap is
    # refused without its labels being built
    for l in range(1, train_laws.m + 1):
        train_laws.feature_size(l)
    train = _constant_age_laws(train_laws, ages.vectors)
    mixtures = [MixtureLawProvider(train_laws, test_laws, eta) for eta in etas]
    test = _constant_age_laws(test_laws, ages.vectors)
    joint_train = _age_weighted(ages, train_laws, train)
    training = conditional_entropy(joint_train, "y", [n for n in joint_train.names if n != "y"], loss)
    results = []
    for mixture in mixtures:
        joint_test = _age_weighted(ages, train_laws, mixture.mix(train, test))
        testing = _joint_testing_loss(joint_test, joint_train, loss)
        results.append((beta_between(joint_train, joint_test).beta, testing))
    return training, results
