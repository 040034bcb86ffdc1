import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aof_lab import (
    JointPmf,
    OutcomeSpace,
    Pmf,
    bayes_action,
    conditional_cross_entropy,
    conditional_entropy,
    conditional_mutual_information,
    cross_entropy,
    entropy,
    expected_loss,
    log_loss,
    mutual_information,
    quadratic_loss,
    table_loss,
    zero_one_loss,
)
from aof_lab.errors import (
    IncompatibleSpaceError,
    UnboundedCrossEntropyError,
    UntrainedCellError,
)
from aof_lab.information import conditional_entropy_stack

from oracles import (
    enumerate_decision_rules,
    expected_conditional_variance,
    per_cell_bayes_search,
    random_joint,
    shannon_mi_direct,
)

ALL_LOSSES = [log_loss(), quadratic_loss(), zero_one_loss()]


def _vars(*sizes, names=None):
    names = names or [f"v{i}" for i in range(len(sizes))]
    return [(n, OutcomeSpace(tuple(range(k)))) for n, k in zip(names, sizes)]


def _copy_joint():
    # y is a copy of x
    vs = _vars(2, 2, names=["x", "y"])
    probs = np.array([[0.3, 0.0], [0.0, 0.7]])
    return JointPmf(tuple(vs), probs)


def _independent_joint(rng):
    vs = _vars(3, 2, names=["x", "y"])
    px = rng.random(3) + 0.1
    px /= px.sum()
    py = rng.random(2) + 0.1
    py /= py.sum()
    return JointPmf(tuple(vs), np.outer(px, py)), Pmf(vs[1][1], py)


def test_copy_has_zero_conditional_entropy():
    j = _copy_joint()
    assert conditional_entropy(j, "y", ["x"], log_loss()) == pytest.approx(0.0, abs=1e-12)


def test_independence_reduces_to_marginal_entropy():
    rng = np.random.default_rng(3)
    j, py = _independent_joint(rng)
    for loss in ALL_LOSSES:
        assert conditional_entropy(j, "y", ["x"], loss) == pytest.approx(
            entropy(py, loss), abs=1e-12
        )
        assert mutual_information(j, "y", ["x"], loss) == pytest.approx(0.0, abs=1e-12)


def test_empty_conditioning_set_is_unconditional():
    rng = np.random.default_rng(4)
    j = random_joint(rng, _vars(3, 3, names=["x", "y"]))
    for loss in ALL_LOSSES:
        assert conditional_entropy(j, "y", [], loss) == pytest.approx(
            entropy(j.pmf("y"), loss), abs=1e-14
        )


def test_bad_variable_names_raise():
    j = _copy_joint()
    with pytest.raises(IncompatibleSpaceError):
        conditional_entropy(j, "y", ["nope"], log_loss())
    with pytest.raises(IncompatibleSpaceError):
        conditional_entropy(j, "y", ["y"], log_loss())


def test_conditional_entropy_matches_full_rule_enumeration():
    # exhaustive search over all decision functions, finite actions
    rng = np.random.default_rng(7)
    loss = table_loss([0, 1, 2], ["a", "b"], rng.random((3, 2)))
    j = random_joint(rng, _vars(3, 3, names=["x", "y"]))
    produced = conditional_entropy(j, "y", ["x"], loss)
    assert produced == pytest.approx(enumerate_decision_rules(j, "y", ["x"], loss), abs=1e-12)
    z1 = zero_one_loss()
    assert conditional_entropy(j, "y", ["x"], z1) == pytest.approx(
        enumerate_decision_rules(j, "y", ["x"], z1), abs=1e-12
    )


def test_conditional_entropy_matches_per_cell_search():
    rng = np.random.default_rng(8)
    j = random_joint(rng, _vars(4, 2, 3, names=["x1", "x2", "y"]))
    decoy_pmfs = [Pmf(j.space("y"), np.full(3, 1 / 3))]
    for loss in ALL_LOSSES:
        extra = decoy_pmfs if loss.kind == "logarithmic" else [0.0, 1.0]
        want = per_cell_bayes_search(j, "y", ["x1", "x2"], loss, extra_actions=extra)
        assert conditional_entropy(j, "y", ["x1", "x2"], loss) == pytest.approx(want, abs=1e-10)


def test_log_loss_matches_shannon_identities():
    rng = np.random.default_rng(9)
    for _ in range(20):
        j = random_joint(rng, _vars(3, 4, names=["x", "y"]), floor=0.01)
        mi = mutual_information(j, "y", ["x"], log_loss())
        assert mi == pytest.approx(shannon_mi_direct(j, "y", ["x"]), abs=1e-10)


def test_quadratic_matches_expected_conditional_variance():
    rng = np.random.default_rng(10)
    for _ in range(20):
        j = random_joint(rng, _vars(4, 3, names=["x", "y"]))
        want = expected_conditional_variance(j, "y", ["x"])
        assert conditional_entropy(j, "y", ["x"], quadratic_loss()) == pytest.approx(want, abs=1e-10)


def test_quadratic_mi_of_copied_bernoulli():
    vs = _vars(2, 2, names=["x", "y"])
    j = JointPmf(tuple(vs), np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert mutual_information(j, "y", ["x"], quadratic_loss()) == pytest.approx(0.25, abs=1e-12)


def test_conditional_mutual_information_basics():
    rng = np.random.default_rng(12)
    j = random_joint(rng, _vars(2, 2, 2, 2, names=["a", "b", "x", "y"]), floor=0.02)
    for loss in ALL_LOSSES:
        got = conditional_mutual_information(j, "y", ["a"], ["b", "x"], loss)
        want = conditional_entropy(j, "y", ["b", "x"], loss) - conditional_entropy(
            j, "y", ["a", "b", "x"], loss
        )
        assert got == pytest.approx(want, abs=1e-12)
        assert got >= -1e-10
        # empty given reduces to plain mutual information
        assert conditional_mutual_information(j, "y", ["a"], [], loss) == pytest.approx(
            mutual_information(j, "y", ["a"], loss), abs=1e-12
        )
    with pytest.raises(IncompatibleSpaceError):
        conditional_mutual_information(j, "y", ["a"], ["a", "b"], log_loss())


def test_cmi_zero_when_added_independent():
    rng = np.random.default_rng(13)
    # a independent of (y, b): product law
    jyb = random_joint(rng, _vars(2, 3, names=["b", "y"]), floor=0.05)
    pa = rng.random(2) + 0.1
    pa /= pa.sum()
    probs = np.einsum("a,by->aby", pa, jyb.probs)
    j = JointPmf(tuple(_vars(2, 2, 3, names=["a", "b", "y"])), probs)
    for loss in ALL_LOSSES:
        assert conditional_mutual_information(j, "y", ["a"], ["b"], loss) == pytest.approx(
            0.0, abs=1e-10
        )


def test_conditioning_monotonicity_property():
    rng = np.random.default_rng(14)
    for trial in range(30):
        j = random_joint(rng, _vars(2, 3, 2, names=["a", "b", "y"]))
        losses = ALL_LOSSES + [
            table_loss([0, 1], ["u", "v", "w"], rng.random((2, 3)))
        ]
        for loss in losses:
            more = conditional_entropy(j, "y", ["a", "b"], loss)
            less = conditional_entropy(j, "y", ["b"], loss)
            assert more <= less + 1e-10


def test_cross_entropy_values_and_identity():
    p = Pmf.from_mapping({0: 0.5, 1: 0.5})
    q = Pmf.from_mapping({0: 0.25, 1: 0.75})
    # frozen from -0.5 ln 0.25 - 0.5 ln 0.75
    assert cross_entropy(p, q, log_loss()) == pytest.approx(0.836988, abs=1e-6)
    for loss in ALL_LOSSES:
        assert cross_entropy(q, q, loss) == entropy(q, loss)  # exact float equality


def test_cross_entropy_quadratic_bias_variance():
    rng = np.random.default_rng(15)
    space = OutcomeSpace((0, 1, 2, 3))
    for _ in range(10):
        pt = rng.random(4) + 0.05
        pt /= pt.sum()
        pq = rng.random(4) + 0.05
        pq /= pq.sum()
        p, q = Pmf(space, pt), Pmf(space, pq)
        want = p.variance() + (p.mean() - q.mean()) ** 2
        assert cross_entropy(p, q, quadratic_loss()) == pytest.approx(want, abs=1e-12)


def test_cross_entropy_dominates_entropy():
    rng = np.random.default_rng(16)
    space = OutcomeSpace(tuple(range(5)))
    for _ in range(25):
        p = Pmf(space, (lambda r: r / r.sum())(rng.random(5) + 0.01))
        q = Pmf(space, (lambda r: r / r.sum())(rng.random(5) + 0.01))
        for loss in ALL_LOSSES:
            assert cross_entropy(p, q, loss) >= entropy(p, loss) - 1e-10


def test_cross_entropy_unbounded_error():
    space = OutcomeSpace((0, 1))
    p = Pmf.uniform(space)
    q = Pmf.point_mass(space, 0)
    with pytest.raises(UnboundedCrossEntropyError):
        cross_entropy(p, q, log_loss())


def test_cross_entropy_certificate_names_outcome_labels():
    space = OutcomeSpace(("lo", "mid", "hi"))
    p = Pmf(space, np.array([0.5, 0.25, 0.25]))
    q = Pmf(space, np.array([0.5, 0.5, 0.0]))
    with pytest.raises(UnboundedCrossEntropyError) as exc:
        cross_entropy(p, q, log_loss())
    assert exc.value.cells == ["hi"]
    assert "'hi'" in str(exc.value)


def test_conditional_cross_entropy_log_certificate_names_labels():
    x = OutcomeSpace(("lo", "mid", "hi"))
    y = OutcomeSpace(("no", "yes"))
    variables = (("x", x), ("y", y))
    # "lo" carries no test mass, so the offending row is the second live row
    test = JointPmf(variables, np.array([[0.0, 0.0], [0.25, 0.25], [0.25, 0.25]]))
    train = JointPmf(variables, np.array([[0.2, 0.2], [0.2, 0.2], [0.2, 0.0]]))
    with pytest.raises(UnboundedCrossEntropyError) as exc:
        conditional_cross_entropy(test, train, "y", ["x"], log_loss())
    assert exc.value.cells == [(("hi",), "yes")]
    assert "('hi',), 'yes'" in str(exc.value)


def test_conditional_cross_entropy_matches_termwise_sum():
    rng = np.random.default_rng(17)
    vs = _vars(2, 2, 2, names=["x1", "x2", "y"])
    for _ in range(10):
        jt = random_joint(rng, vs, floor=0.02)
        jq = random_joint(rng, vs, floor=0.02)
        # independent oracle: loop cells, train per cell, evaluate under test
        for loss in ALL_LOSSES:
            total = 0.0
            for xa in range(2):
                for xb in range(2):
                    test_cell = jt.conditional({"x1": xa, "x2": xb})
                    train_cell = jq.conditional({"x1": xa, "x2": xb})
                    from aof_lab import bayes_action, expected_loss

                    action = bayes_action(Pmf(jq.space("y"), train_cell.probs), loss).action
                    weight = jt.arrange(["x1", "x2"]).probs[xa, xb]
                    total += weight * expected_loss(Pmf(jt.space("y"), test_cell.probs), action, loss)
            got = conditional_cross_entropy(jt, jq, "y", ["x1", "x2"], loss)
            assert got == pytest.approx(total, abs=1e-10)


def test_conditional_cross_entropy_self_is_conditional_entropy():
    rng = np.random.default_rng(18)
    j = random_joint(rng, _vars(3, 3, names=["x", "y"]), floor=0.01)
    for loss in ALL_LOSSES:
        assert conditional_cross_entropy(j, j, "y", ["x"], loss) == pytest.approx(
            conditional_entropy(j, "y", ["x"], loss), abs=1e-12
        )


def test_untrained_cell_error_lists_cells():
    vs = tuple(_vars(2, 2, names=["x", "y"]))
    test = JointPmf(vs, np.array([[0.25, 0.25], [0.25, 0.25]]))
    train = JointPmf(vs, np.array([[0.5, 0.5], [0.0, 0.0]]))
    with pytest.raises(UntrainedCellError) as exc:
        conditional_cross_entropy(test, train, "y", ["x"], log_loss())
    assert exc.value.cells == [(1,)]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_information_nonnegative_on_random_joints(seed):
    rng = np.random.default_rng(seed)
    j = random_joint(rng, _vars(2, 3, 2, names=["x1", "x2", "y"]))
    for loss in ALL_LOSSES:
        assert mutual_information(j, "y", ["x1", "x2"], loss) >= -1e-10


_X_SPACES = (("x1", OutcomeSpace(("a", "b", "c"))), ("x2", OutcomeSpace(("p", "q"))))
_Y_SPACE = OutcomeSpace((0, 1, 3))


def _sparse_joint(rng, n_given, support=None):
    """A random law with zero outcome cells and zero-mass conditioning cells,
    kept inside ``support`` when one is given."""
    variables = (*_X_SPACES[:n_given], ("y", _Y_SPACE))
    shape = tuple(len(space) for _, space in variables)
    raw = rng.random(shape) * (rng.random(shape) < 0.6)
    rows = raw.reshape(-1, len(_Y_SPACE))
    rows[rng.random(rows.shape[0]) < 0.3] = 0.0
    if support is not None:
        raw = raw * support
    if raw.sum() == 0.0:
        allowed = np.flatnonzero(np.ones(shape) if support is None else support)
        raw.flat[allowed[rng.integers(len(allowed))]] = 1.0
    return JointPmf(variables, raw / raw.sum())


@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
@settings(max_examples=80, deadline=None)
def test_loss_kernels_on_sparse_laws(seed, n_given):
    rng = np.random.default_rng(seed)
    test = _sparse_joint(rng, n_given)
    if rng.random() < 0.5:  # train covers the test support, so most cases evaluate
        train = _sparse_joint(rng, n_given, support=(test.probs > 0) | (rng.random(test.probs.shape) < 0.3))
        train = JointPmf(train.variables, (train.probs + 0.5 * test.probs) / 1.5)
    else:
        train = _sparse_joint(rng, n_given)
    given = [name for name, _ in _X_SPACES[:n_given]]
    table = table_loss(_Y_SPACE.labels, ("u", "v", "w"), rng.random((3, 3)))
    cells = list(itertools.product(*(space.labels for _, space in _X_SPACES[:n_given])))
    rows_t = test.arrange([*given, "y"]).probs.reshape(-1, len(_Y_SPACE))
    rows_q = train.arrange([*given, "y"]).probs.reshape(-1, len(_Y_SPACE))
    untrained = [c for c, rt, rq in zip(cells, rows_t, rows_q) if rt.sum() > 0 and rq.sum() == 0]
    for loss in (*ALL_LOSSES, table):
        want = per_cell_bayes_search(test, "y", given, loss)
        assert conditional_entropy(test, "y", given, loss) == pytest.approx(want, abs=1e-12)
        if loss.kind == "quadratic":
            want = expected_conditional_variance(test, "y", given)
            assert conditional_entropy(test, "y", given, loss) == pytest.approx(want, abs=1e-12)
        if untrained:
            with pytest.raises(UntrainedCellError) as exc:
                conditional_cross_entropy(test, train, "y", given, loss)
            assert exc.value.cells == untrained
            continue
        total, offending = 0.0, []
        for cell, rt, rq in zip(cells, rows_t, rows_q):
            if rt.sum() == 0:
                continue
            if loss.kind == "logarithmic":
                for y, pt, pq in zip(_Y_SPACE.labels, rt, rq):
                    if pt > 0 and pq == 0:
                        offending.append((cell, y) if n_given else y)
                    elif pt > 0:
                        total -= pt * math.log(pq / rq.sum())
            else:
                action = bayes_action(Pmf(_Y_SPACE, rq / rq.sum()), loss).action
                total += rt.sum() * expected_loss(Pmf(_Y_SPACE, rt / rt.sum()), action, loss)
        if offending:
            with pytest.raises(UnboundedCrossEntropyError) as exc:
                conditional_cross_entropy(test, train, "y", given, loss)
            assert exc.value.cells == offending
        else:
            assert conditional_cross_entropy(test, train, "y", given, loss) == pytest.approx(total, abs=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_conditional_entropy_stack_equals_per_law_entropy(seed, n_given, n_laws):
    rng = np.random.default_rng(seed)
    joints = [_sparse_joint(rng, n_given) for _ in range(n_laws)]
    stack = np.stack([joint.probs for joint in joints])
    given = [name for name, _ in _X_SPACES[:n_given]]
    table = table_loss(_Y_SPACE.labels, ("u", "v", "w"), rng.random((3, 3)))
    for loss in (*ALL_LOSSES, table):
        values = conditional_entropy_stack(stack, _Y_SPACE, loss)
        assert values.shape == (n_laws,)
        assert values.tolist() == [conditional_entropy(joint, "y", given, loss) for joint in joints]


def test_conditional_entropy_stack_with_all_zero_conditioning_rows():
    # every law but one puts mass on a single conditioning cell; the rest of
    # its rows are all zero, as in staircase laws of aliased emissions
    rng = np.random.default_rng(5)
    shape = (len(_X_SPACES[0][1]), len(_X_SPACES[1][1]), len(_Y_SPACE))
    stack = np.zeros((4, *shape))
    for g, (a, b) in enumerate([(0, 0), (2, 1), (1, 0)]):
        stack[g, a, b] = rng.dirichlet(np.ones(len(_Y_SPACE)))
    stack[3] = rng.dirichlet(np.ones(stack[3].size)).reshape(shape)
    variables = (*_X_SPACES, ("y", _Y_SPACE))
    for loss in (*ALL_LOSSES, table_loss(_Y_SPACE.labels, ("u", "v"), rng.random((3, 2)))):
        values = conditional_entropy_stack(stack, _Y_SPACE, loss).tolist()
        assert values == [conditional_entropy(JointPmf(variables, p), "y", ["x1", "x2"], loss) for p in stack]
        assert all(np.isfinite(values))
