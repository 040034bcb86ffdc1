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

Dynamic ages are handled by mixing per-age laws: training with the age as a
feature recovers the age-weighted average of constant-age losses, training
without it conditions on the pooled mixture and can only be worse.  Testing
losses evaluate per-cell Bayes actions trained under one provider against a
law from another.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._util import csv_text, write_text_atomic
from .aoi import AgeDistribution, OrderingVerdict, stochastic_order_multivariate
from .divergence import BetaReport, EpsilonReport, beta_between, epsilon_coefficient
from .errors import AofLabError, IncompatibleSpaceError
from .information import conditional_cross_entropy, conditional_entropy
from .laws import Layout, LawProvider, variable_name
from .losses import LossSpec
from .spaces import JointPmf, OutcomeSpace

AgeVector = tuple[int, ...]


def _age_vector(delta: Sequence[int], m: int) -> AgeVector:
    vec = tuple(int(d) for d in delta)
    if len(vec) != m:
        raise IncompatibleSpaceError(f"age vector {vec} does not match {m} sources")
    if any(d < 0 for d in vec):
        raise AofLabError("age components must be nonnegative")
    return vec


def _constant_age_laws(laws: LawProvider, vectors: Sequence[AgeVector]) -> tuple[Layout, np.ndarray]:
    """Laws of (y@0, x1@d1, ..., xm@dm) at each age vector, as one stack whose
    layout is (y, x1, ..., xm)."""
    return laws.window_law_stack(
        [[("y", 0)] + [(f"x{l + 1}", d) for l, d in enumerate(vec)] for vec in vectors]
    )


def _min_training_losses(laws: LawProvider, vectors: Sequence[AgeVector], loss: LossSpec) -> list[float]:
    layout, stack = _constant_age_laws(laws, vectors)
    features = [f"x{l + 1}" for l in range(laws.m)]
    return [conditional_entropy(JointPmf(layout, p), "y", features, loss) for p in stack]


def min_training_loss(laws: LawProvider, delta: Sequence[int], loss: LossSpec) -> float:
    """Exact minimum expected loss at the constant age vector ``delta``."""
    return _min_training_losses(laws, [_age_vector(delta, laws.m)], loss)[0]


def _staircase_entropy(
    laws: LawProvider, lags: dict[int, int], extra: tuple[tuple[int, int], ...], loss: LossSpec
) -> float:
    """Conditional entropy given features at ``lags`` plus extra (source, lag)
    reads; duplicate (source, lag) pairs collapse to one variable."""
    pairs = sorted(set(lags.items()) | set(extra))
    requests = [("y", 0)] + [(f"x{l}", lag) for l, lag in pairs]
    law = laws.window_law(requests)
    given = [variable_name(f"x{l}", lag) for l, lag in pairs]
    return conditional_entropy(law.law, "y@0", given, loss)


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
        write_text_atomic(path, json.dumps(self.to_json_dict(), indent=2))


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
    """
    m = laws.m
    vec = _age_vector(delta, m)
    if path is None:
        path = tuple(range(m))
    else:
        path = tuple(int(c) for c in path)
        if sorted(path) != list(range(m)):
            raise IncompatibleSpaceError(f"path {path} must be a permutation of 0..{m - 1}")

    cache: dict = {}

    def entropy_given(pairs: tuple[tuple[int, int], ...]) -> float:
        key = tuple(sorted(set(pairs)))
        if key not in cache:
            cache[key] = _staircase_entropy(laws, dict(), key, loss)
        return cache[key]

    base = entropy_given(tuple((l + 1, 0) for l in range(m)))
    terms = []
    f1 = base
    f2 = 0.0
    for stage, coord in enumerate(path):
        context = []
        for later in path[stage + 1 :]:
            context.append((later + 1, vec[later]))
        for earlier in path[:stage]:
            context.append((earlier + 1, 0))
        context = tuple(sorted(context))
        src = coord + 1
        for k in range(vec[coord]):
            with_newer = entropy_given(context + ((src, k),))
            with_older = entropy_given(context + ((src, k + 1),))
            with_both = entropy_given(context + ((src, k), (src, k + 1)))
            gained = with_older - with_both
            lost = with_newer - with_both
            terms.append(
                StaircaseTerm(source=src, lag=k, context=context, gained=gained, lost=lost)
            )
            f1 += gained
            f2 += lost
    h = min_training_loss(laws, vec, loss)
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
    meta: dict = field(default_factory=dict)

    @property
    def nonmonotonicity_index(self) -> float:
        return self.meta["nonmonotonicity_index"]

    def to_csv(self, path) -> None:
        header = [f"delta_{l}" for l in range(1, len(self.grid[0]) + 1)] + ["loss"]
        rows = (list(vec) + [val] for vec, val in zip(self.grid, self.values))
        write_text_atomic(path, csv_text(header, rows))

    def to_json_dict(self) -> dict:
        return {
            "grid": [list(v) for v in self.grid],
            "values": list(self.values),
            "loss_kind": self.loss_kind,
            "meta": self.meta,
        }


def loss_curve(laws: LawProvider, grid: Sequence[Sequence[int]], loss: LossSpec) -> LossCurve:
    """Evaluate the minimum training loss over a grid of age vectors."""
    vectors = [_age_vector(g, laws.m) for g in grid]
    if not vectors:
        raise AofLabError("grid must hold at least one age vector")
    if len(set(vectors)) != len(vectors):
        raise AofLabError("grid points must be distinct")
    values = _min_training_losses(laws, vectors, loss)
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
        meta={"nonmonotonicity_index": float(index)},
    )


AGE_VARIABLE = "age"


def dynamic_joint(laws: LawProvider, ages: AgeDistribution) -> JointPmf:
    """Joint law of (age vector, held features, target) under dynamic ages."""
    if ages.m != laws.m:
        raise IncompatibleSpaceError("age distribution and provider disagree on sources")
    layout, stack = _constant_age_laws(laws, ages.vectors)
    weights = ages.probs.reshape((-1,) + (1,) * (stack.ndim - 1))
    variables = ((AGE_VARIABLE, OutcomeSpace(ages.vectors)), *layout[1:], layout[0])
    return JointPmf(variables, np.moveaxis(stack, 1, -1) * weights)


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


@dataclass(frozen=True)
class TrainingComparison:
    """Joint training losses of two experiments with ordered age laws."""

    loss_smaller: float
    loss_larger: float
    difference: float
    violation: float
    ordering: OrderingVerdict
    epsilon_report: EpsilonReport

    @property
    def hypothesis_ok(self) -> bool:
        return self.ordering.holds

    def to_json_dict(self) -> dict:
        return {
            "loss_smaller": self.loss_smaller,
            "loss_larger": self.loss_larger,
            "difference": self.difference,
            "violation": self.violation,
            "ordering": self.ordering.to_json_dict(),
            "epsilon": self.epsilon_report.to_json_dict(),
        }


def _default_caps(*age_dists: AgeDistribution) -> int:
    top = max(max(max(vec) for vec in d.vectors) for d in age_dists)
    return max(2, top)


def compare_experiments(
    laws: LawProvider,
    ages_smaller: AgeDistribution,
    ages_larger: AgeDistribution,
    loss: LossSpec,
    epsilon_report: EpsilonReport | None = None,
    tau_max: int | None = None,
    mu_max: int | None = None,
) -> TrainingComparison:
    """Compare joint training losses under stochastically ordered age laws.

    An unmet ordering hypothesis is reported in the verdict rather than
    raised.  The provider's Markov-deviation coefficient is measured (or
    passed in precomputed) so the signed difference can be read against it.
    """
    verdict = stochastic_order_multivariate(ages_smaller, ages_larger)
    loss_c = joint_training_loss(laws, ages_smaller, loss, with_age_feature=True)
    loss_d = joint_training_loss(laws, ages_larger, loss, with_age_feature=True)
    if epsilon_report is None:
        cap = _default_caps(ages_smaller, ages_larger)
        epsilon_report = epsilon_coefficient(
            laws, tau_max if tau_max is not None else cap, mu_max if mu_max is not None else cap
        )
    diff = loss_c - loss_d
    return TrainingComparison(
        loss_smaller=float(loss_c),
        loss_larger=float(loss_d),
        difference=float(diff),
        violation=float(max(0.0, diff)),
        ordering=verdict,
        epsilon_report=epsilon_report,
    )


def testing_loss(
    train_laws: LawProvider,
    test_laws: LawProvider,
    ages_test: AgeDistribution,
    loss: LossSpec,
    ages_train: AgeDistribution | None = None,
) -> float:
    """Expected test-law loss of per-cell Bayes actions trained elsewhere.

    Actions are trained per (age vector, feature cell) under the training
    provider and evaluated under the test provider's laws weighted by the
    test age distribution.  Conditioning cells with test mass but no train
    mass raise :class:`UntrainedCellError`.
    """
    if ages_train is None:
        ages_train = ages_test
    joint_test = dynamic_joint(test_laws, ages_test)
    joint_train = dynamic_joint(train_laws, ages_train)
    if joint_test.space(AGE_VARIABLE).labels != joint_train.space(AGE_VARIABLE).labels:
        raise IncompatibleSpaceError(
            "train and test age supports differ; supply matching age distributions"
        )
    features = [AGE_VARIABLE] + [f"x{l + 1}" for l in range(test_laws.m)]
    return conditional_cross_entropy(joint_test, joint_train, "y", features, loss)


@dataclass(frozen=True)
class TestingComparison:
    """Testing losses of two experiments with ordered test-age laws."""

    testing_smaller: float
    testing_larger: float
    difference: float
    violation: float
    ordering: OrderingVerdict
    epsilon_report: EpsilonReport
    beta_smaller: BetaReport
    beta_larger: BetaReport

    def to_json_dict(self) -> dict:
        return {
            "testing_smaller": self.testing_smaller,
            "testing_larger": self.testing_larger,
            "difference": self.difference,
            "violation": self.violation,
            "ordering": self.ordering.to_json_dict(),
            "epsilon": self.epsilon_report.to_json_dict(),
            "beta_smaller": self.beta_smaller.to_json_dict(),
            "beta_larger": self.beta_larger.to_json_dict(),
        }


def compare_testing_experiments(
    train_laws: LawProvider,
    test_laws: LawProvider,
    ages_smaller: AgeDistribution,
    ages_larger: AgeDistribution,
    loss: LossSpec,
    epsilon_report: EpsilonReport | None = None,
    tau_max: int | None = None,
    mu_max: int | None = None,
) -> TestingComparison:
    """Testing losses under two ordered test-age laws, with the measured
    train/test mismatch radius of each experiment alongside."""
    verdict = stochastic_order_multivariate(ages_smaller, ages_larger)
    t_c = testing_loss(train_laws, test_laws, ages_smaller, loss)
    t_d = testing_loss(train_laws, test_laws, ages_larger, loss)
    beta_c = beta_between(dynamic_joint(train_laws, ages_smaller), dynamic_joint(test_laws, ages_smaller))
    beta_d = beta_between(dynamic_joint(train_laws, ages_larger), dynamic_joint(test_laws, ages_larger))
    if epsilon_report is None:
        cap = _default_caps(ages_smaller, ages_larger)
        epsilon_report = epsilon_coefficient(
            train_laws,
            tau_max if tau_max is not None else cap,
            mu_max if mu_max is not None else cap,
        )
    diff = t_c - t_d
    return TestingComparison(
        testing_smaller=float(t_c),
        testing_larger=float(t_d),
        difference=float(diff),
        violation=float(max(0.0, diff)),
        ordering=verdict,
        epsilon_report=epsilon_report,
        beta_smaller=beta_c,
        beta_larger=beta_d,
    )
