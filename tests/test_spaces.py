import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aof_lab import JointPmf, OutcomeSpace, Pmf
from aof_lab.errors import IncompatibleSpaceError, NotNormalizedError


def test_space_rejects_duplicates_and_empty():
    with pytest.raises(IncompatibleSpaceError):
        OutcomeSpace((0, 0))
    with pytest.raises(IncompatibleSpaceError):
        OutcomeSpace(())


def test_space_numeric_detection():
    assert OutcomeSpace((0, 1, 2)).is_numeric
    assert OutcomeSpace((0.5, 1.5)).is_numeric
    assert not OutcomeSpace(("a", "b")).is_numeric
    assert not OutcomeSpace((True, False)).is_numeric


def test_pmf_normalization_enforced():
    space = OutcomeSpace((0, 1))
    with pytest.raises(NotNormalizedError):
        Pmf(space, np.array([0.5, 0.6]))
    with pytest.raises(NotNormalizedError):
        Pmf(space, np.array([1.5, -0.5]))


def test_pmf_moments():
    p = Pmf.from_mapping({0: 0.5, 1: 0.5})
    assert p.mean() == 0.5
    assert p.variance() == 0.25


def _joint_2x2():
    vs = (("x", OutcomeSpace(("a", "b"))), ("y", OutcomeSpace((0, 1))))
    probs = np.array([[0.1, 0.2], [0.3, 0.4]])
    return JointPmf(vs, probs)


def test_joint_marginal_and_conditional():
    j = _joint_2x2()
    px = j.pmf("x")
    assert np.allclose(px.probs, [0.3, 0.7])
    cond = j.conditional({"x": "b"})
    assert np.allclose(cond.probs, [3 / 7, 4 / 7])
    with pytest.raises(NotNormalizedError):
        JointPmf((("x", OutcomeSpace(("a", "b"))), ("y", OutcomeSpace((0, 1)))),
                 np.array([[0.0, 0.0], [0.5, 0.5]])).conditional({"x": "a"})


def test_arrange_orders_axes():
    j = _joint_2x2()
    flipped = j.arrange(["y", "x"])
    assert flipped.names == ("y", "x")
    assert np.allclose(flipped.probs, j.probs.T)


def test_joint_json_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    vs = (("x", OutcomeSpace((("l", 0), ("l", 1), "plain"))), ("y", OutcomeSpace((0, 1))))
    raw = rng.random((3, 2))
    j = JointPmf(vs, raw / raw.sum())
    path = tmp_path / "law.json"
    j.save(path)
    back = JointPmf.load(path)
    assert back.names == j.names
    assert back.variables[0][1].labels == j.variables[0][1].labels
    assert np.array_equal(back.probs, j.probs)  # bit-exact decimal round-trip
    data = json.loads(path.read_text())
    assert len(data["probs"]) == 6


@given(st.lists(st.integers(1, 30), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_pmf_from_counts_normalizes(counts):
    total = sum(counts)
    space = OutcomeSpace(tuple(range(len(counts))))
    p = Pmf(space, np.array([c / total for c in counts]))
    assert abs(p.probs.sum() - 1.0) < 1e-12
