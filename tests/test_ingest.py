import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aof_lab import (
    AgeProcess,
    Dataset,
    EmpiricalLawProvider,
    ExactLawProvider,
    OutcomeSpace,
    Quantizer,
    assemble_dynamic,
    chi2_divergence,
    dynamic_age_law,
    empirical_window_law,
    joint_training_loss,
    log_loss,
    make_hidden_nonmarkov,
    mix_joints,
    quantize,
    sample_trajectory,
    smooth,
)
from aof_lab import ingest
from aof_lab.errors import AofLabError, IncompatibleSpaceError
from aof_lab.ingest import CodedColumn
from aof_lab.laws import LagStack, canonical_requests, variable_name

from oracles import dynamic_age_law_by_rows, window_law_by_rows


def _tiny_dataset(values, ages=None, y=None):
    n = len(values)
    return Dataset(
        t=np.arange(n),
        xs=(np.asarray(values, dtype=object),),
        ages=(np.asarray(ages if ages is not None else [0] * n, dtype=np.int64),),
        y=np.asarray(y if y is not None else values, dtype=object),
    )


def test_dataset_invariants():
    with pytest.raises(AofLabError):
        Dataset(t=np.array([0, 0]), xs=(np.array([1, 2], dtype=object),),
                ages=(np.array([0, 0]),), y=np.array([1, 2], dtype=object))
    with pytest.raises(AofLabError):
        Dataset(t=np.array([0, 1]), xs=(np.array([1, 2], dtype=object),),
                ages=(np.array([0, -1]),), y=np.array([1, 2], dtype=object))


def test_quantizer_binning_conventions():
    q = Quantizer({"x_1": ((0.0, 1.0, 2.0), None)})
    assert q.bin_of("x_1", 0.5) == "B0"
    assert q.bin_of("x_1", 1.0) == "B1"  # edge goes right (half-open bins)
    assert q.bin_of("x_1", 5.0) == "B1"  # clamp above
    assert q.bin_of("x_1", -3.0) == "B0"  # clamp below


@pytest.mark.parametrize("edges", [(0.0, float("nan"), 2.0), (0.0, 1.0, float("inf")),
                                   (float("-inf"), 0.0), (0.0, 2.0, 1.0), (1.0,)])
def test_quantizer_rejects_non_finite_or_unordered_edges(edges):
    with pytest.raises(AofLabError, match="finite and strictly increasing"):
        Quantizer({"x_1": (edges, None)})


@pytest.mark.parametrize("pseudo_count", [-1.0, float("inf"), float("nan")])
def test_pseudo_count_must_be_finite_and_nonnegative(pseudo_count):
    ds = _tiny_dataset([0, 1, 1, 0, 1])
    law = empirical_window_law(ds, [("x1", 0), ("y", 0)], min_windows=1).law
    with pytest.raises(AofLabError, match="pseudo-count must be finite and nonnegative"):
        EmpiricalLawProvider(ds, pseudo_count=pseudo_count)
    with pytest.raises(AofLabError, match="pseudo-count must be finite and nonnegative"):
        smooth(law, pseudo_count, 5)


def test_quantize_dataset_and_metadata():
    ds = _tiny_dataset([0.1, 0.9, 1.4, 1.9, 2.5])
    q = Quantizer({"x_1": ((0.0, 1.0, 2.0), None)})
    out = quantize(ds, q)
    assert list(out.coded("x1").labels()) == ["B0", "B0", "B1", "B1", "B1"]
    assert "quantizer" in out.meta
    symbolic = _tiny_dataset(["a", "b", "a"])
    with pytest.raises(IncompatibleSpaceError):
        quantize(symbolic, q)


def test_quantizer_json_roundtrip(tmp_path):
    q = Quantizer({"y": ((0.0, 0.5, 1.0), ("lo", "hi"))})
    path = tmp_path / "q.json"
    path.write_text(__import__("json").dumps(q.to_json_dict()))
    back = Quantizer.load(path)
    assert back.columns["y"][1] == ("lo", "hi")


def test_empirical_window_law_constant_series():
    ds = _tiny_dataset([3] * 40)
    law = empirical_window_law(ds, [("y", 0), ("x1", 1)])
    assert law.law.probs.max() == 1.0


def test_empirical_window_law_requires_enough_windows():
    ds = _tiny_dataset([1, 2] * 10)
    with pytest.raises(AofLabError):
        empirical_window_law(ds, [("y", 0), ("x1", 25)])
    # lag larger than the series leaves no usable windows at all
    with pytest.raises(AofLabError):
        empirical_window_law(ds, [("y", 0), ("x1", 100)])


def test_empirical_law_converges_to_exact():
    model = make_hidden_nonmarkov(21, n_states=4, n_sources=2, n_symbols=2, n_targets=2,
                                  noise=0.4, concentration=3.0)
    prov = ExactLawProvider(model)
    exact = prov.window_law([("y", 0), ("x1", 1), ("x2", 1)]).law
    spaces = {"x1": model.feature_space(1), "x2": model.feature_space(2), "y": model.target_space}
    divs = []
    for length in (1_000, 10_000, 100_000):
        ds = sample_trajectory(model, length, seed=5)
        emp = empirical_window_law(ds, [("y", 0), ("x1", 1), ("x2", 1)], spaces=spaces)
        divs.append(chi2_divergence(emp.law, exact))
    assert divs[0] > divs[1] > divs[2]
    n = 100_000 - 1
    cells = exact.probs.size
    bound = (cells - 1 + 3 * np.sqrt(2 * (cells - 1))) / n
    assert divs[2] <= bound


def test_empirical_law_deterministic():
    model = make_hidden_nonmarkov(22, n_states=3, n_symbols=2, n_targets=2, noise=0.3)
    ds = sample_trajectory(model, 2_000, seed=9)
    a = empirical_window_law(ds, [("y", 0), ("x1", 2)])
    b = empirical_window_law(ds, [("y", 0), ("x1", 2)])
    assert np.array_equal(a.law.probs, b.law.probs)
    assert a.meta["n_windows"] == b.meta["n_windows"]


def test_dynamic_age_law_census_and_reconstruction():
    values = [0, 1] * 40
    ages = [0, 1] * 40
    ds = _tiny_dataset(values, ages=ages, y=[v ^ 1 for v in values])
    dist, laws = dynamic_age_law(ds, min_rows=10)
    assert dist.vectors == ((0,), (1,))
    assert np.allclose(dist.probs, [0.5, 0.5])
    # law of total probability: age-weighted per-age laws pool to the
    # age-marginalized mixture
    pooled_components = []
    for vec, w in zip(dist.vectors, dist.probs):
        law = laws[vec].law
        renamed = law.rename({n: n.split("@")[0] for n in law.names})
        pooled_components.append((float(w), renamed.arrange(["x1", "y"])))
    pooled = mix_joints(pooled_components)
    counts = np.zeros((2, 2))
    for x, y in zip(values, ds.coded("y").labels()):
        counts[x, y] += 1
    want = counts / counts.sum()
    assert np.allclose(pooled.probs, want, atol=1e-12)


def test_dynamic_age_law_point_mass_and_sparse():
    ds = _tiny_dataset([0, 1] * 20, ages=[2] * 40)
    dist, _ = dynamic_age_law(ds, min_rows=10)
    assert dist.vectors == ((2,),) and dist.probs[0] == 1.0
    sparse = _tiny_dataset([0, 1] * 20, ages=[2] * 39 + [3])
    with pytest.raises(AofLabError) as exc:
        dynamic_age_law(sparse, min_rows=10)
    assert "(3,)" in str(exc.value)


def test_assemble_dynamic_stales_features():
    model = make_hidden_nonmarkov(23, n_states=3, n_symbols=2, n_targets=2, noise=0.3)
    ds = sample_trajectory(model, 50, seed=3)
    ages = AgeProcess(np.tile(np.array([1, 2], dtype=np.int64), (1, 25))[:, :50])
    staled = assemble_dynamic(ds, ages)
    row_of = {int(t): i for i, t in enumerate(ds.t)}
    for i, t in enumerate(staled.t):
        a = staled.ages[0][i]
        assert staled.coded("x1").labels()[i] == ds.coded("x1").labels()[row_of[int(t) - a]]
        assert staled.coded("y").labels()[i] == ds.coded("y").labels()[row_of[int(t)]]


def test_assemble_dynamic_drops_rows_at_negative_slots():
    # slots -3..4 against an 8-slot age process: rows before slot 0 have no
    # age and must not borrow the ages of the last slots
    t = np.arange(-3, 5)
    ds = Dataset(t=t, xs=(np.array([f"x{v}" for v in t], dtype=object),), ages=(np.zeros(8, dtype=np.int64),),
                 y=np.array([f"y{v}" for v in t], dtype=object))
    ages = AgeProcess(np.array([[1, 2, 1, 0, 3, 1, 0, 2]], dtype=np.int64))
    staled = assemble_dynamic(ds, ages)
    assert staled.t.tolist() == [0, 1, 2, 3, 4]
    assert staled.ages[0].tolist() == [1, 2, 1, 0, 3]
    assert list(staled.coded("y").labels()) == ["y0", "y1", "y2", "y3", "y4"]
    assert list(staled.coded("x1").labels()) == ["x-1", "x-1", "x1", "x3", "x1"]


def test_assemble_then_group_feeds_joint_training():
    model = make_hidden_nonmarkov(24, n_states=3, n_symbols=2, n_targets=2, noise=0.35)
    ds = sample_trajectory(model, 30_000, seed=8)
    rng = np.random.default_rng(0)
    age_row = rng.integers(0, 2, size=30_000)
    ages = AgeProcess(age_row.reshape(1, -1))
    staled = assemble_dynamic(ds, ages)
    dist, laws = dynamic_age_law(staled, min_rows=30)
    assert set(dist.vectors) == {(0,), (1,)}
    # empirical mixture loss should approach the exact one
    exact_prov = ExactLawProvider(model)
    exact_loss = joint_training_loss(exact_prov, dist, log_loss(), True)
    emp_loss = 0.0
    for vec, w in zip(dist.vectors, dist.probs):
        from aof_lab import conditional_entropy

        law = laws[vec].law
        emp_loss += float(w) * conditional_entropy(law, "y@0", [n for n in law.names if n != "y@0"], log_loss())
    assert abs(emp_loss - exact_loss) < 0.05


def test_smooth_identity_limit_and_formula():
    rng = np.random.default_rng(1)
    vs = (("x", OutcomeSpace((0, 1))), ("y", OutcomeSpace((0, 1))))
    counts = np.array([[4.0, 0.0], [6.0, 10.0]])
    from aof_lab import JointPmf

    law = JointPmf(vs, counts / counts.sum())
    n = counts.sum()
    assert smooth(law, 0.0, n) is law
    one = smooth(law, 1.0, n)
    assert one.probs[0, 1] == pytest.approx(1.0 / (n + 4.0), abs=1e-15)
    assert one.probs.min() > 0
    assert one.probs.sum() == pytest.approx(1.0, abs=1e-12)
    limit = smooth(law, 1e6, n)
    assert np.allclose(limit.probs, 0.25, atol=1e-4)


def test_empirical_provider_smoothing_positivity():
    model = make_hidden_nonmarkov(25, n_states=3, n_symbols=2, n_targets=2, noise=0.2)
    ds = sample_trajectory(model, 500, seed=2)
    prov = EmpiricalLawProvider(ds, pseudo_count=1.0)
    reqs = [("y", 0), ("x1", 1)]
    law = prov.window_law(reqs)
    assert law.law.probs.min() > 0
    spaces = {"x1": ds.columns[0].space, "y": ds.columns[-1].space}
    counted = window_law_by_rows(ds, reqs, spaces)
    expected = smooth(counted.law, 1.0, counted.meta["n_windows"])
    assert np.array_equal(law.law.probs, expected.probs)


def test_dataset_csv_roundtrip_with_tuples(tmp_path):
    model = make_hidden_nonmarkov(26, n_states=3, n_symbols=2, n_targets=2, noise=0.2, window=2)
    ds = sample_trajectory(model, 40, seed=1)
    path = tmp_path / "ds.csv"
    ds.to_csv(path)
    back = Dataset.from_csv(path)
    assert np.array_equal(back.t, ds.t)
    assert all(a == b for a, b in zip(back.coded("x1").labels(), ds.coded("x1").labels()))
    assert isinstance(back.coded("x1").labels()[0], tuple)
    header = path.read_text().splitlines()[0]
    assert header == "t,x_1,age_1,y"


def test_stationarity_warning_on_drifting_series():
    values = [0] * 100 + [1] * 100
    ds = _tiny_dataset(values)
    with pytest.warns(UserWarning, match="non-stationary"):
        empirical_window_law(ds, [("y", 0), ("x1", 1)])


# -- integer-coded columns against the per-row oracles ------------------------

# no two labels of a column compare equal across types (1 == 1.0), so floats
# never share a column with ints; the unseen label widens caller-given spaces
_TUPLES = st.tuples(st.integers(0, 2), st.sampled_from(["p", "q"]))
LABEL_KINDS = {
    "int": (st.integers(-30, 30), 99),
    "float": (st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), 0.125e9),
    "str": (st.text("abc", min_size=1, max_size=3), "zz"),
    "tuple": (_TUPLES, (9, "z")),
    "mixed": (st.one_of(st.integers(-30, 30), st.text("abc", min_size=1, max_size=3), _TUPLES), "zz"),
}


@st.composite
def _alphabets(draw, kinds=tuple(LABEL_KINDS)):
    kind = draw(st.sampled_from(kinds))
    labels, unseen = LABEL_KINDS[kind]
    return draw(st.lists(labels, min_size=1, max_size=5, unique=True)), unseen


@st.composite
def _datasets(draw, max_m=3, min_rows=6, max_rows=60, aged=False):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(min_rows, max_rows))
    # contiguous slots in half the draws: the slice path of the lag alignment
    gaps = [1] * n if draw(st.booleans()) else draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    t = np.cumsum(gaps) + draw(st.integers(-5, 5))
    alphabets, columns = [], []
    for _ in range(m + 1):
        alphabet, unseen = draw(_alphabets())
        alphabets.append((alphabet, unseen))
        columns.append(draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)))
    age_values = st.integers(0, 2) if aged else st.just(0)
    ages = tuple(draw(st.lists(age_values, min_size=n, max_size=n)) for _ in range(m))
    ds = Dataset(t=t, xs=tuple(columns[:-1]), ages=ages, y=columns[-1])
    return ds, alphabets


def _law_parts(law):
    return (law.requests, [(n, s.labels) for n, s in law.law.variables], law.meta)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_empirical_window_law_equals_per_row_oracle(data):
    ds, alphabets = data.draw(_datasets())
    variables = ["y"] + [f"x{l}" for l in range(1, ds.m + 1)]
    requests = data.draw(st.lists(st.tuples(st.sampled_from(variables), st.integers(0, 5)),
                                  min_size=1, max_size=4))
    spaces = {}
    for var, lag in canonical_requests(requests):
        alphabet, unseen = alphabets[-1 if var == "y" else int(var[1:]) - 1]
        extra = [unseen] if data.draw(st.booleans()) else []
        space = OutcomeSpace(tuple(data.draw(st.permutations([*alphabet, *extra]))))
        keyed = data.draw(st.sampled_from(["observed", "bare", "lagged"]))
        if keyed == "bare":
            spaces[var] = space
        elif keyed == "lagged":
            spaces[variable_name(var, lag)] = space
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            got = empirical_window_law(ds, requests, spaces or None, min_windows=1)
        except AofLabError as exc:
            assert "only 0 usable windows" in str(exc)
            assume(False)
        want = window_law_by_rows(ds, requests, spaces or None)
    assert _law_parts(got) == _law_parts(want)
    assert np.array_equal(got.law.probs, want.law.probs)


def test_contiguous_slots_align_up_to_and_past_the_row_count():
    n = 8
    ds = Dataset(t=np.arange(n) + 3, xs=(list("abcabcab"),), ages=(np.zeros(n),), y=[0, 1, 1, 0, 1, 0, 0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for lag in (n - 2, n - 1):
            got = empirical_window_law(ds, [("y", 0), ("x1", lag)], min_windows=1)
            want = window_law_by_rows(ds, [("y", 0), ("x1", lag)])
            assert got.meta["n_windows"] == n - lag
            assert _law_parts(got) == _law_parts(want)
            assert np.array_equal(got.law.probs, want.law.probs)
    for lag in (n, n + 5):
        with pytest.raises(AofLabError, match="only 0 usable windows; need at least 1"):
            empirical_window_law(ds, [("y", 0), ("x1", lag)], min_windows=1)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_dynamic_age_law_equals_per_row_oracle(data):
    ds, alphabets = data.draw(_datasets(aged=True))
    spaces = None
    if data.draw(st.booleans()):
        names = [f"x{l}" for l in range(1, ds.m + 1)] + ["y"]
        left_out = data.draw(st.sets(st.sampled_from(names)))  # the mapping may name only some variables
        spaces = {name: OutcomeSpace(tuple(data.draw(st.permutations([*alphabet, unseen]))))
                  for name, (alphabet, unseen) in zip(names, alphabets) if name not in left_out}
    dist, laws = dynamic_age_law(ds, min_rows=1, spaces=spaces)
    want_dist, want_laws = dynamic_age_law_by_rows(ds, spaces)
    assert dist.vectors == want_dist.vectors
    assert np.array_equal(dist.probs, want_dist.probs)
    assert list(laws) == list(want_laws)
    for vec, (probs, rows) in want_laws.items():
        assert np.array_equal(laws[vec].law.probs, probs)
        assert laws[vec].meta["n_windows"] == rows


def test_missing_labels_are_all_named_and_only_in_usable_windows():
    # "d" and "e" occur in usable windows and are missing from the space:
    # the error names the lagged variable and both labels
    xs = ["c"] + ["a", "b", "d", "e"] * 10
    ds = _tiny_dataset(xs, y=[0] * len(xs))
    narrow = {"x1": OutcomeSpace(("a", "b", "c"))}
    with pytest.raises(IncompatibleSpaceError) as exc:
        empirical_window_law(ds, [("y", 0), ("x1", 1)], narrow)
    assert "x1@1" in str(exc.value) and "'d'" in str(exc.value) and "'e'" in str(exc.value)
    with pytest.raises(IncompatibleSpaceError) as exc:
        dynamic_age_law(ds, min_rows=1, spaces={"x1": OutcomeSpace(("a", "b")), "y": OutcomeSpace((0,))})
    for label in ("'c'", "'d'", "'e'"):
        assert label in str(exc.value)
    # "c" only ever appears at x1@0 of row 0; a lag-1 law never reads it
    # there, so a space without "c" serves it
    ds = _tiny_dataset(["c"] + ["a", "b"] * 20, y=[0] * 41)
    law = empirical_window_law(ds, [("y", 1), ("x1", 0)], {"x1": OutcomeSpace(("a", "b"))})
    assert law.law.space("x1@0").labels == ("a", "b")
    with pytest.raises(IncompatibleSpaceError, match="x1@0: labels 'c'"):
        empirical_window_law(ds, [("y", 0), ("x1", 0)], {"x1": OutcomeSpace(("a", "b"))})


@st.composite
def _csv_alphabets(draw):
    # labels that render to text parsing back to the same label: strings
    # that read as neither a number nor a tuple, and flat tuples
    scalars = st.one_of(st.integers(-1000, 1000), st.floats(allow_nan=False, allow_infinity=False),
                        st.text("abc", min_size=1, max_size=4))
    kind = draw(st.sampled_from(["int", "float", "str", "tuple"]))
    if kind == "tuple":
        labels = st.lists(scalars, min_size=1, max_size=3).map(tuple)
    else:
        labels = {"int": st.integers(-10**6, 10**6),
                  "float": st.floats(allow_nan=False, allow_infinity=False),
                  "str": st.text("abc ,", min_size=1, max_size=4).filter(lambda s: s.strip() == s)}[kind]
    return draw(st.lists(labels, min_size=1, max_size=4, unique=True))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_csv_roundtrip_keeps_labels_and_bytes(tmp_path_factory, data):
    m = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(1, 12))
    columns = [data.draw(st.lists(st.sampled_from(data.draw(_csv_alphabets())), min_size=n, max_size=n))
               for _ in range(m + 1)]
    ages = tuple(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)) for _ in range(m))
    ds = Dataset(t=np.arange(n) * 2, xs=tuple(columns[:-1]), ages=ages, y=columns[-1])
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    ds.to_csv(path)
    back = Dataset.from_csv(path)
    names = [f"x{l}" for l in range(1, m + 1)] + ["y"]
    for got, want in zip([back.coded(v).labels() for v in names], [ds.coded(v).labels() for v in names]):
        assert list(got) == list(want)
        assert all(type(a) is type(b) for a, b in zip(got, want))
    assert all(np.array_equal(a, b) for a, b in zip(back.ages, ds.ages))
    first = path.read_bytes()
    back.to_csv(path)
    assert path.read_bytes() == first


def test_labels_stay_plain_python():
    ds = Dataset(t=np.arange(3), xs=(np.array([1, 2, 1]),), ages=(np.zeros(3),),
                 y=np.array([[0, 1], [1, 1], [0, 1]]))
    assert [type(v) for v in ds.coded("x1").labels()] == [int, int, int]
    assert list(ds.coded("y").labels()) == [(0, 1), (1, 1), (0, 1)]
    assert all(type(v) is int for label in ds.coded("y").labels() for v in label)
    assert ds.columns[0].space.labels == (1, 2)
    assert list(ds.columns[0].codes) == [0, 1, 0]


def test_quantize_equals_bin_of_per_value():
    edges = (-1.0, 0.0, 0.5, 2.0)
    q = Quantizer({"x_1": (edges, ("lo", "mid", "hi")), "y": ((0.0, 1.0, 2.0), None)})
    values = [-5.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 7.5, 0, 2, -1]
    ds = _tiny_dataset(values, y=[v + 0.5 for v in values])
    out = quantize(ds, q)
    assert list(out.coded("x1").labels()) == [q.bin_of("x_1", v) for v in values]
    assert list(out.coded("y").labels()) == [q.bin_of("y", v + 0.5) for v in values]
    # edge values open the bin to their right; values beyond the ends clamp
    assert [q.bin_of("x_1", v) for v in (-1.0, 0.0, 0.5, 2.0, -5.0)] == ["lo", "mid", "hi", "hi", "lo"]
    with pytest.raises(IncompatibleSpaceError):
        quantize(ds, Quantizer({"age_1": ((0.0, 1.0), None)}))
    # a dataset has rows, so there is no empty one to quantize, labelled or coded
    empty = CodedColumn(OutcomeSpace((0.25,)), np.zeros(0, dtype=np.int64))
    for xs, y in (([],), []), ((empty,), empty):
        with pytest.raises(AofLabError, match="at least one row"):
            Dataset(t=[], xs=xs, ages=([],), y=y)


def test_dataset_without_a_feature_column_is_rejected():
    # with no source, epsilon would fail later on an empty lag grid
    with pytest.raises(AofLabError, match="^a trajectory needs at least one feature source$"):
        Dataset(t=range(100), xs=(), ages=(), y=np.arange(100) % 2)


@pytest.mark.parametrize("field", ["t", "age_1"])
@pytest.mark.parametrize("values,bad", [
    ([0.5, 1.7, 2.2], "0.5"),
    (np.array([0.0, 1.5, 2.0]), "1.5"),
    ([0, 1, True], "True"),
    ([0, 1, 2**63], str(2**63)),
    (np.array([0, 1, 2**63], dtype=np.uint64), str(2**63)),
    ([0, 1, float("nan")], "nan"),
    (["0", "1", "2"], "'0'"),
])
def test_dataset_refuses_slots_and_ages_that_are_not_whole(field, values, bad):
    # a fraction used to be cut to its whole part, and 2**63 ended in an
    # OverflowError
    columns = {"t": [0, 1, 2], "age_1": [0, 0, 0], field: values}
    with pytest.raises(AofLabError, match=rf"^{field} must be whole numbers in the int64 range, got {bad}$"):
        Dataset(t=columns["t"], xs=(["a", "b", "a"],), ages=(columns["age_1"],), y=[0, 1, 0])
    # whole floats and narrower integer arrays are whole numbers
    ds = Dataset(t=[0.0, 1.0, 3.0], xs=(["a", "b", "a"],), ages=(np.array([2, 0, 1], dtype=np.int32),), y=[0, 1, 0])
    assert ds.t.tolist() == [0, 1, 3] and ds.ages[0].tolist() == [2, 0, 1]
    assert ds.t.dtype == ds.ages[0].dtype == np.int64
    ds = Dataset(t=np.array([0, 1, 3], dtype=np.uint32), xs=(["a", "b", "a"],),
                 ages=(np.array([2, 0, 1], dtype=np.uint16),), y=[0, 1, 0])
    assert ds.t.tolist() == [0, 1, 3] and ds.ages[0].tolist() == [2, 0, 1]
    assert ds.t.dtype == ds.ages[0].dtype == np.int64


def test_csv_reads_in_batches_and_names_the_bad_line(tmp_path, monkeypatch):
    import aof_lab._util as util

    monkeypatch.setattr(util, "CSV_CHUNK_ROWS", 2)
    ds = Dataset(t=[1, 2, 4, 5, 6, 9, 10], xs=([(0, "a"), (1, "b"), (0, "a"), 2, 2.5, "c", (1, "b")],),
                 ages=([0, 1, 2, 0, 1, 2, 3],), y=["u", "v", "u", "w", "v", "u", "u"])
    path = tmp_path / "ds.csv"
    ds.to_csv(path)
    back = Dataset.from_csv(path)
    assert list(back.t) == list(ds.t) and list(back.ages[0]) == list(ds.ages[0])
    assert (list(back.coded("x1").labels()) == list(ds.coded("x1").labels())
            and list(back.coded("y").labels()) == list(ds.coded("y").labels()))
    assert back.columns[0].space == ds.columns[0].space
    lines = path.read_text().splitlines()
    lines[6] = lines[6].replace(",2,", ",two,")  # data row 6 sits in the third batch
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(AofLabError, match=r"line 7, column 'age_1': 'two' is not an integer"):
        Dataset.from_csv(path)


# -- the stack counter against the row-by-row oracle, law by law --------------


def _gapped(ds, seed):
    """``ds`` with about one row in five dropped."""
    keep = np.random.default_rng(seed).random(len(ds)) > 0.2
    xs = tuple(CodedColumn(col.space, col.codes[keep]) for col in ds.columns[:-1])
    return Dataset(t=ds.t[keep], xs=xs, ages=tuple(a[keep] for a in ds.ages), y=CodedColumn(ds.columns[-1].space, ds.columns[-1].codes[keep]))


def _oracle_laws(ds, stack):
    """Each row of ``stack`` counted by the row-by-row oracle over the column
    spaces."""
    spaces = {var: ds.coded(var).space for var, _ in stack.requests(0)}
    for g in range(len(stack.lags)):
        yield window_law_by_rows(ds, stack.requests(g), spaces)


def _per_law(ds, stack, pseudo_count):
    """Each row of ``stack`` counted by the oracle, smoothed and put in stack
    axis order."""
    for g, law in enumerate(_oracle_laws(ds, stack)):
        law_probs = smooth(law.law, pseudo_count, law.meta["n_windows"]).probs
        yield law_probs.transpose([law.requests.index(r) for r in stack.requests(g)])


def _random_stack(rng, m, sources, n_rows, max_lag):
    """A stack over ``sources`` whose rows read no (source, lag) twice."""
    rows = []
    while len(rows) < n_rows:
        row = rng.integers(0, max_lag + 1, size=len(sources)).tolist()
        if len(set(zip(sources, row))) == len(sources):
            rows.append(row)
    return LagStack(sources, np.array(rows, dtype=np.int64))


@pytest.mark.parametrize("n_laws", [1, 12])
@pytest.mark.parametrize("pseudo_count", [0.0, 0.5])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("slots", ["contiguous", "gapped"])
def test_stack_counter_equals_per_law_counting(slots, m, pseudo_count, n_laws):
    model = make_hidden_nonmarkov(31 + m, n_states=3, n_sources=m, n_symbols=[2, 3][:m], n_targets=3)
    ds = sample_trajectory(model, 600, seed=m)
    if slots == "gapped":
        ds = _gapped(ds, m)
        assert ds.t[-1] - ds.t[0] != len(ds) - 1
    rng = np.random.default_rng(m)
    sources = (1, 0, 1) if m == 1 else (1, 2, 0, 2)
    stack = _random_stack(rng, m, sources, n_laws, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        probs = EmpiricalLawProvider(ds, pseudo_count).window_law_stack(stack)
        want = list(_per_law(ds, stack, pseudo_count))
    assert probs.shape == (len(stack.lags), *want[0].shape)
    for got, expected in zip(probs, want):
        assert np.array_equal(got, expected)
    # laid out as the stacked per-law laws, so sums over the stack round alike
    assert probs.strides == np.stack(want).strides


# rows-sized int64 columns the traced peak of a stack count may pass its
# m + 1 by: the bincount output, the drift statistic and tracemalloc's own
# bookkeeping (measured: 0.03)
STACK_COUNT_MARGIN = 0.25


@pytest.mark.parametrize("m", [1, 2])
def test_stack_counter_holds_a_few_columns_of_cell_codes(m):
    # each law is counted on its own: live are the m weighted feature codes
    # (the target, the last axis, weighs one and is read as it is) and one
    # law's cell codes, not a buffer of many laws' codes
    model = make_hidden_nonmarkov(40 + m, n_states=3, n_sources=m, n_symbols=3, n_targets=3)
    ds = sample_trajectory(model, 30_000, seed=m)
    sources = (*range(1, m + 1), 0)
    lags = np.array([[l, l + 1][:m] + [1] for l in range(6)], dtype=np.int64)
    provider = EmpiricalLawProvider(ds)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            provider.window_law_stack(LagStack(sources, lags))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (m + 1 + STACK_COUNT_MARGIN) * len(ds) * 8


# bytes per dataset beyond its rows' int64 slot, ages and codes: the label
# spaces and the small objects around the arrays (measured: under 3 KB)
DATASET_HELD_MARGIN = 8 * 1024


@pytest.mark.parametrize("m", [1, 2])
def test_a_dataset_holds_each_column_once_as_int64(tmp_path, m):
    # the slots, m age columns and m + 1 code columns, and no per-row label
    # array beside the codes, whichever producer built the dataset
    n = 20_000
    model = make_hidden_nonmarkov(50 + m, n_states=3, n_sources=m, n_symbols=2, n_targets=2, noise=0.3)
    path = tmp_path / "ds.csv"
    sample_trajectory(model, n, seed=m).to_csv(path)
    staling = AgeProcess(np.tile(np.array([1, 2], dtype=np.int64), (m, n // 2)))
    bins = Quantizer({**{f"x_{l}": ((0.0, 0.5, 1.0), None) for l in range(1, m + 1)}, "y": ((0.0, 1.0), None)})

    def numeric():
        rng = np.random.default_rng(m)
        return Dataset(t=np.arange(n), xs=tuple(rng.random(n) for _ in range(m)),
                       ages=tuple(np.zeros(n, dtype=np.int64) for _ in range(m)), y=rng.random(n))

    producers = {
        "from_csv": lambda: Dataset.from_csv(path),
        "sample_trajectory": lambda: sample_trajectory(model, n, seed=m),
        "assemble_dynamic": lambda: assemble_dynamic(sample_trajectory(model, n, seed=m), staling),
        "quantize": lambda: quantize(numeric(), bins),
    }
    for name, produce in producers.items():
        # what the dataset holds is what dropping it frees, its inputs gone
        tracemalloc.start()
        try:
            ds = produce()
            rows, with_ds = len(ds), tracemalloc.get_traced_memory()[0]
            label_arrays = [attr for attr in ("xs", "y") if hasattr(ds, attr)]
            del ds
            held = with_ds - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= (2 + 2 * m) * 8 * rows + DATASET_HELD_MARGIN, name
        assert not label_arrays, name


def _drifting_dataset(n=200):
    """x1 switches from 0 to 1 half way; y is a fair coin."""
    y = np.random.default_rng(3).integers(0, 2, size=n).tolist()
    return Dataset(t=np.arange(n), xs=([0] * (n // 2) + [1] * (n - n // 2),), ages=(np.zeros(n),), y=y)


def _messages(call):
    """``(warning texts, error text or None)`` of ``call()``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
            error = None
        except AofLabError as exc:
            error = str(exc)
    return [str(w.message) for w in caught], error


def _drift_text(law):
    """The drift warning the oracle's ``stationarity_chi2`` of ``law`` calls
    for, or None."""
    worst = max(law.meta["stationarity_chi2"].values())
    if worst > ingest.STATIONARITY_WARN:
        return f"first/second-half marginal drift chi2={worst:.3f}; data may be non-stationary"
    return None


def _each_law(ds, stack):
    """``(warning texts, error text or None)`` of counting ``stack`` law by
    law, from the oracle: each law's drift warning, up to the first law
    short of the minimum windows, whose count is the error."""
    texts, least = [], ingest.DEFAULT_MIN_WINDOWS
    for law in _oracle_laws(ds, stack):
        if law.meta["n_windows"] < least:
            return texts, f"only {law.meta['n_windows']} usable windows; need at least {least}"
        text = _drift_text(law)
        if text is not None:
            texts.append(text)
    return texts, None


@pytest.mark.parametrize("slots", ["contiguous", "gapped"])
def test_stack_counter_warns_for_the_same_laws_with_the_same_text(slots):
    ds = _drifting_dataset()
    if slots == "gapped":
        ds = _gapped(ds, 4)
    # x1 read from within one half does not drift (rows 1, 3, 4 and 5), y never
    # does; rows 2 and 3 read x1@0 over slices that end alike
    stack = LagStack((0, 1), [[0, 1], [0, 120], [2, 0], [150, 0], [0, 150], [1, 130]])
    got = _messages(lambda: EmpiricalLawProvider(ds).window_law_stack(stack))
    want = _each_law(ds, stack)
    assert got == want
    assert want[1] is None and 0 < len(want[0]) < len(stack.lags)
    assert all(text.startswith("first/second-half marginal drift chi2=") for text in want[0])


def test_stack_counter_fails_at_the_first_law_short_of_windows_after_its_warnings():
    ds = _drifting_dataset()
    # row 2 has 200 - 185 = 15 windows, below the 30-window minimum; row 3 has none
    stack = LagStack((0, 1), [[0, 1], [2, 0], [0, 185], [0, 250], [0, 3]])
    got = _messages(lambda: EmpiricalLawProvider(ds).window_law_stack(stack))
    want = _each_law(ds, stack)
    assert got == want
    assert len(want[0]) == 2 and want[1] == "only 15 usable windows; need at least 30"


def test_a_drifting_law_with_a_label_outside_the_given_space_warns_then_fails():
    # x1 drifts from 0 to 1; the given space lacks 1.  The drift is found
    # while counting, before the counts meet the space: the warning comes
    # first, then the error naming the label
    ds = _drifting_dataset()
    reqs = [("y", 0), ("x1", 0)]
    got = _messages(lambda: empirical_window_law(ds, reqs, {"x1": OutcomeSpace((0,))}))
    drift = _drift_text(window_law_by_rows(ds, reqs))
    assert drift is not None
    assert got == ([drift], "x1@0: labels 1 not in the given space")
