import hashlib
import inspect
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aof_lab import (
    EmpiricalLawProvider,
    ExactLawProvider,
    MixtureLawProvider,
    OutcomeSpace,
    ProcessModel,
    chi2_divergence,
    epsilon_coefficient,
    exact_window_law,
    make_hidden_nonmarkov,
    make_markov_observable,
    mix_toward_markov,
    sample_trajectory,
)
from aof_lab import processes
from aof_lab._util import CSV_CHUNK_ROWS, DEFAULT_MAX_CELLS, NORMALIZATION_ATOL, write_text_atomic
from aof_lab.errors import AofLabError, IncompatibleSpaceError
from aof_lab.laws import STACK_CELLS, LagStack, LawProvider, axis_spaces, canonical_requests, lag_stack
from aof_lab.processes import _stationary_distribution, exact_window_laws, trajectory_csv

from oracles import (dataset_csv_by_rows, enumeration_work, loglog_slope, trajectory_by_steps,
                     window_law_by_enumeration)


def _two_state(flip=0.3):
    T = np.array([[1 - flip, flip], [flip, 1 - flip]])
    eye = np.eye(2)
    space = OutcomeSpace((0, 1))
    return ProcessModel(T, [eye], [space], eye, space)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 7),
    period=st.integers(2, 7),
    log_eps=st.floats(-9.0, -2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stationary_distribution_accurate_on_near_periodic_chains(n, period, log_eps, seed):
    # a period-d chain (state i moves only to class i % d + 1) nudged by eps
    # toward a random chain: eigenvalues near the d-th roots of unity
    rng = np.random.default_rng(seed)
    d = min(period, n)
    cls = np.arange(n) % d
    periodic = rng.random((n, n)) * (cls[None, :] == (cls[:, None] + 1) % d)
    periodic /= periodic.sum(axis=1, keepdims=True)
    eps = 10.0**log_eps
    T = (1.0 - eps) * periodic + eps * rng.dirichlet(np.ones(n), size=n)
    pi = _stationary_distribution(T)
    assert pi.min() >= 0.0 and abs(pi.sum() - 1.0) <= NORMALIZATION_ATOL
    assert np.abs(pi @ T - pi).sum() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_window_law_stack_matches_per_request_laws(data):
    m = data.draw(st.integers(1, 3))
    # symbol counts of 2 and 3 mix read sizes and interleavings in one stack
    model = make_hidden_nonmarkov(
        data.draw(st.integers(0, 10_000)), n_states=3, n_sources=m,
        n_symbols=data.draw(st.lists(st.integers(2, 3), min_size=m, max_size=m)),
        n_targets=data.draw(st.integers(2, 3)),
        window=data.draw(st.integers(1, 3)), delay=data.draw(st.integers(0, 2)),
    )
    # one layout: a number of target lags and of lags per source (at most
    # three features); lags 0..4 overlap windows and repeat read patterns
    n_y = data.draw(st.integers(0, 2))
    counts = data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)
                       .filter(lambda c: sum(c) <= 3 and n_y + sum(c) >= 1))
    lags = lambda k: st.lists(st.integers(0, 4), min_size=k, max_size=k, unique=True)
    sets = []
    for _ in range(data.draw(st.integers(1, 6))):
        reqs = [("y", lag) for lag in data.draw(lags(n_y))]
        for l, k in enumerate(counts, start=1):
            reqs += [(f"x{l}", lag) for lag in data.draw(lags(k))]
        sets.append(reqs)
    # the oracle's work: 3 ** (occupied slots) hidden-state tuples times cells
    assume(all(enumeration_work(model, reqs) <= 3**7 * 2**11 for reqs in sets))
    _assert_stack_matches_oracle(model, sets)


def test_window_law_stack_spanning_several_chunks_matches_per_request_laws():
    # every set reads 7 three-symbol cells in one read shape, interleaved by lag
    model = make_hidden_nonmarkov(17, n_states=2, n_sources=3, n_symbols=3, n_targets=3, window=2)
    sets = [[("y", 0), ("x1", a), ("x2", b), ("x3", c)] for a in range(4) for b in range(4) for c in range(4)]
    assert len(sets) * 3**7 * model.n_states > STACK_CELLS
    _assert_stack_matches_oracle(model, sets)


def _assert_stack_matches_oracle(model, sets):
    stack = lag_stack(sets)
    probs = exact_window_laws(model, stack)
    assert probs.shape[0] == len(sets)
    spaces = axis_spaces(ExactLawProvider(model), stack.sources)
    for g, (reqs, stacked) in enumerate(zip(sets, probs)):
        expected = window_law_by_enumeration(model, canonical_requests(reqs))
        law = exact_window_law(model, reqs)
        assert stack.requests(g) == law.requests
        assert [s.labels for s in spaces] == [s.labels for _, s in law.law.variables]
        assert np.abs(stacked - expected).max() <= 1e-12
        assert np.abs(law.law.probs - expected).max() <= 1e-12


def test_window_law_stack_rejects_mixed_layouts():
    model = make_hidden_nonmarkov(1, n_sources=2)
    mixed = [[("y", 0), ("x1", 1)], [("y", 0), ("x2", 1)]]
    with pytest.raises(IncompatibleSpaceError):
        exact_window_laws(model, lag_stack(mixed))
    with pytest.raises(IncompatibleSpaceError):
        EmpiricalLawProvider(sample_trajectory(model, 500, 1)).window_law_stack(lag_stack(mixed))


def _three_providers(seed, m, window, delay, pseudo_count=0.0):
    """Exact, empirical and mixture providers over the same spaces."""
    shape = dict(n_states=3, n_sources=m, n_symbols=2, n_targets=2, window=window, delay=delay)
    model = make_hidden_nonmarkov(seed, **shape)
    exact = ExactLawProvider(model)
    return {
        "exact": exact,
        "empirical": EmpiricalLawProvider(sample_trajectory(model, 400, seed), pseudo_count=pseudo_count),
        "mixture": MixtureLawProvider(exact, ExactLawProvider(make_hidden_nonmarkov(seed + 1, **shape)), 0.3),
    }


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lag_stack_equals_each_rows_tuple_form_law(data):
    m = data.draw(st.integers(1, 2))
    providers = _three_providers(data.draw(st.integers(0, 10_000)), m, data.draw(st.integers(1, 2)),
                                 data.draw(st.integers(0, 1)), data.draw(st.sampled_from([0.0, 0.5])))
    # any axis order: the target and each source on up to two axes
    sources = data.draw(st.lists(st.integers(0, m), min_size=1, max_size=4)
                        .filter(lambda s: max(s.count(l) for l in s) <= 2))
    row = st.lists(st.integers(0, 4), min_size=len(sources), max_size=len(sources)).filter(
        lambda lags: len(set(zip(sources, lags))) == len(sources))
    stack = LagStack(sources, np.array(data.draw(st.lists(row, min_size=1, max_size=5)), dtype=np.int64))
    for kind, provider in providers.items():
        probs = provider.window_law_stack(stack)
        assert probs.shape == (len(stack.lags), *(len(s) for s in axis_spaces(provider, stack.sources)))
        for g in range(len(stack.lags)):
            law = provider.window_law(stack.requests(g))
            expected = law.law.probs.transpose([law.requests.index(r) for r in stack.requests(g)])
            if kind == "empirical":
                assert np.array_equal(probs[g], expected)
            else:
                assert np.abs(probs[g] - expected).max() <= 1e-12


@pytest.mark.parametrize("sources,lags,message", [
    ((0, 1), np.zeros((0, 2), dtype=np.int64), "at least one request set"),
    ((), np.zeros((1, 0), dtype=np.int64), "at least one variable"),
    ((0, 1), [[0, 1, 2]], "3 columns for 2 sources"),
    ((0, 1), [[0, 1], [0, -2]], "nonnegative, got -2 for 'x1'"),
    ((1, 0, 1), [[1, 0, 2], [2, 0, 2]], "request set 1 reads x1@2 twice"),
    ((0, 0), [[3, 3]], "reads y@3 twice"),
    ((0, 1), [[0.0, 1.5]], "integers in the int64 range"),
    ((0, 1), [[0, 2**63]], "integers in the int64 range"),
    ((0, 1), [[0, 2**70]], "integers in the int64 range"),
])
def test_lag_stack_rejects_malformed_lags(sources, lags, message):
    with pytest.raises(IncompatibleSpaceError, match=message):
        LagStack(sources, lags)



@pytest.mark.parametrize("req, message", [
    (("x1", -1), "lags must be nonnegative, got -1 for 'x1'"),
    (("z", 0), "unknown variable 'z'; expected 'y' or 'x<l>'"),
], ids=["negative-lag", "unknown-variable"])
def test_lag_stack_rejects_a_request_it_cannot_read(req, message):
    with pytest.raises(IncompatibleSpaceError) as err:
        lag_stack([[("y", 0), req]])
    assert str(err.value) == message

@pytest.mark.parametrize("lag", [1.5, True, float("nan"), 2**63], ids=["fraction", "bool", "nan", "over-int64"])
@pytest.mark.parametrize("call", ["exact", "empirical", "lag_stack"])
def test_a_lag_that_is_not_whole_is_refused_not_truncated(call, lag):
    req = [("y", 0), ("x1", lag)]
    with pytest.raises(IncompatibleSpaceError) as err:
        lag_stack([req]) if call == "lag_stack" else _three_providers(5, 1, 1, 0)[call].window_law(req)
    assert str(err.value) == f"lag of 'x1' must be a whole number in the int64 range, got {lag!r}"


def test_whole_float_and_numpy_lags_read_as_ints():
    stack = lag_stack([[("y", np.int32(0)), ("x1", 2.0)], [("y", 0), ("x1", np.uint64(3))]])
    assert stack.requests(0) == (("y", 0), ("x1", 2)) and stack.requests(1) == (("y", 0), ("x1", 3))
    assert all(type(lag) is int for _, lag in canonical_requests([("x1", np.float64(4.0)), ("y", np.int8(1))]))


@pytest.mark.parametrize("kind", ["exact", "empirical", "mixture"])
def test_window_law_stack_rejects_a_source_above_m(kind):
    provider = _three_providers(5, 2, 1, 0)[kind]
    with pytest.raises(IncompatibleSpaceError, match="got 'x3'"):
        provider.window_law_stack(LagStack((0, 3), [[0, 1]]))


def test_lag_stack_freezes_a_copy_of_the_callers_lags():
    lags = np.array([[0, 1], [0, 2]])
    stack = LagStack((0, 1), lags)
    lags[0, 1] = 7
    assert stack.lags.tolist() == [[0, 1], [0, 2]] and stack.lags.dtype == np.int64
    assert not stack.lags.flags.writeable
    assert stack.requests(1) == (("y", 0), ("x1", 2))


def test_process_model_freezes_a_copy_and_leaves_the_callers_arrays_writable():
    T = np.array([[0.7, 0.3], [0.4, 0.6]])
    E = np.eye(2)
    space = OutcomeSpace((0, 1))
    model = ProcessModel(T, [E], [space], E, space)
    law = exact_window_law(model, [("y", 0), ("x1", 1)]).law.probs
    T[0] = [0.1, 0.9]
    E[:] = 0.5
    assert model.transition.tolist() == [[0.7, 0.3], [0.4, 0.6]]
    assert model.emissions[0].tolist() == model.target_kernel.tolist() == np.eye(2).tolist()
    assert not (model.transition.flags.writeable or model.target_kernel.flags.writeable)
    assert np.array_equal(exact_window_law(model, [("y", 0), ("x1", 1)]).law.probs, law)



_T, _EYE = np.array([[0.7, 0.3], [0.4, 0.6]]), np.eye(2)
_TWO, _THREE = OutcomeSpace((0, 1)), OutcomeSpace((0, 1, 2))


@pytest.mark.parametrize("args, message", [
    ((_T, [_EYE, _EYE], [_TWO], _EYE, _TWO),
     "one emission kernel per source is required, got 2 kernels for 1 emission spaces"),
    ((_T, [_EYE], [_THREE], _EYE, _TWO), "emission kernel 0 has shape (2, 2), want (states, symbols) = (2, 3)"),
    ((_T, [_EYE], [_TWO], _EYE, _THREE), "target kernel has shape (2, 2), want (states, targets) = (2, 3)"),
], ids=["kernel-count", "emission-shape", "target-shape"])
def test_process_model_kernel_errors_give_what_they_got_and_wanted(args, message):
    with pytest.raises(IncompatibleSpaceError) as err:
        ProcessModel(*args)
    assert str(err.value) == message

def test_stationary_and_primitivity_checks():
    model = _two_state()
    assert np.allclose(model.stationary, [0.5, 0.5], atol=1e-12)
    periodic = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    space = OutcomeSpace((0, 1))
    with pytest.raises(AofLabError):
        ProcessModel(periodic, [eye], [space], eye, space)
    reducible = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(AofLabError):
        ProcessModel(reducible, [eye], [space], eye, space)


def test_stationary_law_is_computed_and_kept_by_with_window():
    model = make_hidden_nonmarkov(3, n_sources=2, delay=1)
    assert model.states == (0, 1, 2, 3)
    assert model.with_window(3).stationary.tobytes() == model.stationary.tobytes()
    with pytest.raises(TypeError):
        ProcessModel(model.transition, model.emissions, model.emission_spaces, model.target_kernel,
                     model.target_space, stationary=model.stationary)


# SHA-256 of json.dumps(model.to_json_dict(), sort_keys=True) and of the
# trajectory.csv text of sample_trajectory(model, 200, seed): every `gen`
# output follows from these draws, so a generator change must keep them
SEEDED = {
    ("markov", False, 0): ("be03fa1614000ea9f4907e09f47834661e073004ecdd2f5fd80626ceb0757b80",
                           "63f46ed305c96188e8e6bccc8c1d4f97e9a3234c6bf897bebd4aa1320f272ff7"),
    ("markov", False, 5): ("b19615f09f192f0cf0bdcd4932a95cb836dd5d7716470d4a04d84119ae9865ee",
                           "424450fb1d8ad9a4e5e2e2474999e3f98372eed2bb865493d312089c9665ed69"),
    ("markov", True, 0): ("f0979a2622636bfc8e691ddf21ab0591101427d659784ce4540bc3c98f7764b6",
                          "318fced9616f741ef334e711ef6248a8162ef0e5559c3f7364341d898a4cd1de"),
    ("markov", True, 5): ("55a341ce6fb02a556a38396f19083bc07be4a16e53f15855ca94b6f9c06c02b5",
                          "3bff8c0c6add5569f6d77a146538027aaf9bfdbdc42e8ff7cdbca64add93fd16"),
    ("hidden", False, 0): ("ef95dbb716398bcfb7b869bf73488a913ef5dbe155e6f0aedd1d56597cc63504",
                           "be362aad12f2f1a8d1390066cad89fb23c4811eca7e7a875adc91a9f7a0f546e"),
    ("hidden", False, 5): ("f7034098d66934a1adb195942007f70ba2acd97744a39182244cad167ec2f672",
                           "80d3e1df2941de20c632f8d4615c41e3a3eda503f4a572ea3ddc4ffa6d80f73a"),
    ("hidden", True, 0): ("4443ef3c3aec66e4156d32fbb8c8f575445319339e04f102ed2435a46840b09f",
                          "76a471c7fc2809a1869b50e30ddb0d816712d4ebc3b6a9b7bec1951101c5cc99"),
    ("hidden", True, 5): ("cea05f27620368f53bdcb9609a992371ed30e9108fd15eba594e0b4e25140f4a",
                          "40aebaa51e560cd924455776d6e6a773f1259f126e5ed6be1a56cfbb110b5219"),
}


@pytest.mark.parametrize("kind,wide,seed", SEEDED)
def test_seeded_generation_is_pinned(tmp_path, kind, wide, seed):
    make = make_markov_observable if kind == "markov" else make_hidden_nonmarkov
    model = make(seed, **({"n_sources": 2, "window": 2, "delay": 1} if wide else {}))
    sample_trajectory(model, 200, seed).to_csv(tmp_path / "trajectory.csv")
    text = (tmp_path / "trajectory.csv").read_bytes()
    digests = (hashlib.sha256(json.dumps(model.to_json_dict(), sort_keys=True).encode()).hexdigest(),
               hashlib.sha256(text).hexdigest())
    assert digests == SEEDED[kind, wide, seed]



@pytest.mark.parametrize("draw", ["model", "trajectory"])
def test_a_negative_seed_is_a_domain_error_naming_it(draw):
    make = {"model": lambda: make_hidden_nonmarkov(-1),
            "trajectory": lambda: sample_trajectory(make_hidden_nonmarkov(0), 50, -3)}[draw]
    with pytest.raises(AofLabError, match="seed must be a nonnegative integer, got -"):
        make()


def test_two_state_symmetric_transition_law():
    model = _two_state(flip=0.3)
    law = exact_window_law(model, [("x1", 0), ("x1", 1)])
    p_equal = sum(p for lab, p in law.law.cells() if lab[0] == lab[1])
    assert p_equal == pytest.approx(0.7, abs=1e-12)


def test_iid_states_make_lags_independent():
    pi = np.array([0.3, 0.7])
    T = np.tile(pi, (2, 1))
    eye = np.eye(2)
    space = OutcomeSpace((0, 1))
    model = ProcessModel(T, [eye], [space], eye, space)
    law = exact_window_law(model, [("y", 0), ("x1", 1), ("x1", 3)])
    probs = law.law.arrange(["y@0", "x1@1", "x1@3"]).probs
    prod = np.einsum(
        "a,b,c->abc",
        law.law.pmf("y@0").probs,
        law.law.pmf("x1@1").probs,
        law.law.pmf("x1@3").probs,
    )
    assert np.allclose(probs, prod, atol=1e-12)


def test_deterministic_fully_observed_single_slot():
    rng = np.random.default_rng(2)
    T = rng.dirichlet(np.ones(3), size=3) + 0.05
    T /= T.sum(axis=1, keepdims=True)
    emit = np.zeros((3, 2))
    emit[[0, 1, 2], [0, 1, 1]] = 1.0  # g(s)
    target = np.zeros((3, 2))
    target[[0, 1, 2], [1, 0, 1]] = 1.0  # h(s)
    spaces = OutcomeSpace((0, 1))
    model = ProcessModel(T, [emit], [spaces], target, spaces)
    law = exact_window_law(model, [("y", 0), ("x1", 0)])
    pi = model.stationary
    want = np.zeros((2, 2))
    for s in range(3):
        want[int(np.argmax(target[s])), int(np.argmax(emit[s]))] += pi[s]
    got = law.law.arrange(["y@0", "x1@0"]).probs
    assert np.allclose(got, want, atol=1e-12)


def test_shift_invariance_of_laws():
    model = make_hidden_nonmarkov(7, n_states=4, n_symbols=2, n_targets=2, noise=0.3)
    for shift in (1, 2, 5):
        a = exact_window_law(model, [("y", 0), ("x1", 2)])
        b = exact_window_law(model, [("y", shift), ("x1", 2 + shift)])
        assert np.allclose(a.law.probs, b.law.probs, atol=1e-12)


def test_marginal_consistency_of_window_laws():
    model = make_hidden_nonmarkov(8, n_states=4, n_symbols=2, n_targets=3, noise=0.25)
    big = exact_window_law(model, [("y", 0), ("x1", 1), ("x1", 2), ("x1", 4)])
    small = exact_window_law(model, [("y", 0), ("x1", 2)])
    got = big.law.arrange(["y@0", "x1@2"]).probs
    assert np.allclose(got, small.law.arrange(["y@0", "x1@2"]).probs, atol=1e-12)


def test_window_features_are_tuples_and_consistent():
    model = make_hidden_nonmarkov(9, n_states=3, n_symbols=2, n_targets=2, noise=0.3, window=2)
    law = exact_window_law(model, [("y", 0), ("x1", 1)])
    space = law.law.space("x1@1")
    assert space.labels == ((0, 0), (0, 1), (1, 0), (1, 1))
    # feature at lag 1 reads slots -1 and -2: marginal of first component
    # matches the window-1 law at lag 1
    flat = model.with_window(1)
    single = exact_window_law(flat, [("y", 0), ("x1", 1)])
    pair = law.law.arrange(["y@0", "x1@1"]).probs
    collapsed = np.zeros_like(single.law.arrange(["y@0", "x1@1"]).probs)
    for yi in range(pair.shape[0]):
        for fi, lab in enumerate(space.labels):
            collapsed[yi, lab[0]] += pair[yi, fi]
    assert np.allclose(collapsed, single.law.arrange(["y@0", "x1@1"]).probs, atol=1e-12)


def test_delay_shifts_feature_slots():
    model = make_hidden_nonmarkov(10, n_states=3, n_symbols=2, n_targets=2, noise=0.3)
    delayed = ProcessModel(
        model.transition,
        model.emissions,
        model.emission_spaces,
        model.target_kernel,
        model.target_space,
        window=1,
        delay=2,
    )
    a = exact_window_law(model, [("y", 0), ("x1", 3)])
    b = exact_window_law(delayed, [("y", 0), ("x1", 1)])
    assert np.allclose(a.law.probs, b.law.probs, atol=1e-14)


def test_wide_lag_matches_enumeration():
    model = _two_state()
    law = exact_window_law(model, [("y", 0), ("x1", 40)])
    expected = window_law_by_enumeration(model, [("y", 0), ("x1", 40)])
    assert np.abs(law.law.probs - expected).max() <= 1e-12


def test_oversized_gap_rejected_before_allocation():
    model = _two_state()
    tracemalloc.start()
    try:
        with pytest.raises(AofLabError, match=rf"gap {10**7} .*cap {DEFAULT_MAX_CELLS}"):
            exact_window_law(model, [("y", 0), ("x1", 10**7)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _refusal_and_peak(requests):
    """The error text of an oversized law on a window-11 model, and the
    traced peak of refusing it."""
    provider = ExactLawProvider(make_hidden_nonmarkov(3, window=11))
    tracemalloc.start()
    try:
        with pytest.raises(AofLabError) as err:
            provider.window_law(requests)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return str(err.value), peak


def test_a_feature_space_over_the_cell_cap_is_refused_before_its_labels_are_built():
    # 2**30 window tuples: built first, as they once were, they take gigabytes
    provider = ExactLawProvider(make_hidden_nonmarkov(3, window=30))
    tracemalloc.start()
    try:
        with pytest.raises(AofLabError) as err:
            epsilon_coefficient(provider, 1, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == (f"source x1 has 2 symbols and window 30: its 2**30 feature labels are over the cap "
                              f"of {DEFAULT_MAX_CELLS} cells")
    assert peak < 2**20


@pytest.mark.parametrize("window,refused", [(3, False), (4, True), (10**18, True)])
def test_a_feature_space_is_refused_exactly_above_the_cell_cap(monkeypatch, window, refused):
    # 2**3 labels are at a cap of 8, 2**4 above it; a huge window is refused
    # without its power being computed
    monkeypatch.setattr(processes, "DEFAULT_MAX_CELLS", 8)
    model = make_hidden_nonmarkov(3, n_sources=2, window=window)
    if refused:
        with pytest.raises(AofLabError, match=rf"^source x2 has 2 symbols and window {window}: .* cap of 8 cells$"):
            model.feature_space(2)
    else:
        assert len(model.feature_space(2)) == 8


def test_an_unrolled_law_over_the_cell_cap_is_refused():
    # x1 read twice 20 slots apart: no read merges, 2**11 x 2**11 x 2 cells x 4 states
    message, peak = _refusal_and_peak([("y", 0), ("x1", 0), ("x1", 20)])
    assert message == f"unrolled law would need {2**22 * 2 * 4} cells (cap {DEFAULT_MAX_CELLS})"
    assert peak < 2**20


def test_a_law_table_over_the_cell_cap_is_refused_before_it_is_allocated():
    # overlapping windows merge their reads, so only the law's own table,
    # 2 x 2**11 x 2**11 cells, is too large
    message, peak = _refusal_and_peak([("y", 0), ("x1", 0), ("x1", 1)])
    assert message == f"window law of [y@0, x1@0, x1@1] would need {2 * 2**11 * 2**11} cells (cap {DEFAULT_MAX_CELLS})"
    assert peak < 2**20


def _merging_stack():
    # window-2 reads at lags 0..3 apart: some merge, some do not, so the
    # stack holds several read shapes and laws with unreachable cells
    lags = [[a, 0, c] for a in range(3) for c in range(4) if c != a]
    return LagStack((1, 0, 1), lags)


def test_exact_laws_keep_their_bits_with_a_cold_or_a_warm_plan_cache():
    model = make_hidden_nonmarkov(23, n_states=3, n_sources=1, n_symbols=3, n_targets=2, window=2, delay=1)
    processes._read_plan.cache_clear()
    cold = exact_window_laws(model, _merging_stack())
    assert processes._read_plan.cache_info().hits == 0
    warm = exact_window_laws(model, _merging_stack())
    info = processes._read_plan.cache_info()
    assert info.hits == info.misses > 1
    assert cold.tobytes() == warm.tobytes()
    split, left, right = processes._read_plan((3, 2, 3))
    assert not (left.flags.writeable or right.flags.writeable)


def test_every_provider_takes_the_protocols_window_law_stack_arguments():
    # a parameter one provider takes and the others ignore is a second contract
    want = inspect.signature(LawProvider.window_law_stack)
    for provider in (ExactLawProvider, EmpiricalLawProvider, MixtureLawProvider):
        assert inspect.signature(provider.window_law_stack) == want, provider.__name__


# Bytes the traced peak of gen's write path may gain from 20,000 to 200,000
# rows: two int64 columns of one block (measured: 46 KB on the model below)
STREAM_PEAK_SLACK = 2 * CSV_CHUNK_ROWS * 8


def test_gen_write_path_memory_does_not_grow_with_length(tmp_path):
    model = make_hidden_nonmarkov(7, n_sources=2, window=3, delay=2)
    peaks = {}
    for length in (20_000, 200_000):
        tracemalloc.start()
        try:
            write_text_atomic(tmp_path / "trajectory.csv", trajectory_csv(model, length, 7))
            _, peaks[length] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[200_000] <= peaks[20_000] + STREAM_PEAK_SLACK
    warm = 2 + 3 - 1  # delay + window - 1 slots without a row
    assert len((tmp_path / "trajectory.csv").read_bytes().splitlines()) == 1 + 200_000 - warm


def test_markov_observable_invariants():
    for seed in range(3):
        model = make_markov_observable(seed, n_states=4, n_sources=2, n_targets=3)
        assert np.allclose(model.transition.sum(axis=1), 1.0, atol=1e-12)
        rep = epsilon_coefficient(ExactLawProvider(model), tau_max=2, mu_max=2)
        assert rep.epsilon <= 1e-9


def test_markov_observable_b1_feature_is_relabelled_state():
    model = make_markov_observable(5, n_states=3, n_sources=1, n_targets=2)
    law = exact_window_law(model, [("x1", 0)])
    assert np.allclose(np.sort(law.law.pmf("x1@0").probs), np.sort(model.stationary), atol=1e-12)


def test_hidden_noise_zero_injective_is_markov():
    model = make_hidden_nonmarkov(6, n_states=3, n_symbols=3, n_targets=2, noise=0.0)
    rep = epsilon_coefficient(ExactLawProvider(model), tau_max=2, mu_max=2)
    assert rep.epsilon <= 1e-9


def test_hidden_noise_positive_is_nonmarkov():
    model = make_hidden_nonmarkov(6, n_states=4, n_symbols=2, n_targets=2, noise=0.3)
    rep = epsilon_coefficient(ExactLawProvider(model), tau_max=2, mu_max=2)
    assert rep.epsilon > 1e-3


def test_hidden_noise_validation():
    with pytest.raises(AofLabError):
        make_hidden_nonmarkov(0, noise=1.5)
    with pytest.raises(AofLabError):
        make_hidden_nonmarkov(0, noise=-0.1)


def test_longer_windows_do_not_increase_epsilon():
    model = make_hidden_nonmarkov(12, n_states=4, n_symbols=2, n_targets=2, noise=0.3)
    eps = []
    for b in (1, 2, 3):
        prov = ExactLawProvider(model.with_window(b))
        eps.append(epsilon_coefficient(prov, tau_max=1, mu_max=2).epsilon)
    assert eps[1] <= eps[0] + 1e-9
    assert eps[2] <= eps[1] + 1e-9


def test_mixture_endpoints_and_compat():
    markov = make_markov_observable(1, n_states=3, n_sources=1, n_targets=2)
    hidden = make_hidden_nonmarkov(2, n_states=5, n_symbols=3, n_targets=2, noise=0.4)
    provider = mix_toward_markov(hidden, markov, 0.0)
    law0 = provider.window_law([("y", 0), ("x1", 1)])
    ref = ExactLawProvider(markov).window_law([("y", 0), ("x1", 1)])
    assert np.array_equal(law0.law.probs, ref.law.probs)
    incompatible = make_hidden_nonmarkov(3, n_states=4, n_symbols=2, n_targets=2, noise=0.2)
    with pytest.raises(IncompatibleSpaceError):
        mix_toward_markov(incompatible, markov, 0.5)
    with pytest.raises(IncompatibleSpaceError):
        mix_toward_markov(hidden, markov, 1.2)


def test_sample_trajectory_deterministic_and_consistent():
    model = make_hidden_nonmarkov(13, n_states=3, n_symbols=2, n_targets=2, noise=0.3)
    a = sample_trajectory(model, 300, seed=4)
    b = sample_trajectory(model, 300, seed=4)
    assert np.array_equal(a.t, b.t)
    assert all(x == y for x, y in zip(a.coded("y").labels(), b.coded("y").labels()))
    assert all(x == y for x, y in zip(a.coded("x1").labels(), b.coded("x1").labels()))
    c = sample_trajectory(model, 300, seed=5)
    assert any(x != y for x, y in zip(a.coded("x1").labels(), c.coded("x1").labels()))


@pytest.mark.parametrize("window,delay", [(1, 0), (2, 1), (3, 2)])
def test_sample_trajectory_equals_per_step_oracle(window, delay):
    # the chain, then every emission and target, draw from one generator in
    # a fixed order: equal columns mean equal states and equal later draws
    for seed in range(4):
        model = make_hidden_nonmarkov(seed, n_states=5, n_sources=2, n_symbols=3, n_targets=3,
                                      window=window, delay=delay, noise=0.3, concentration=0.5)
        got = sample_trajectory(model, 3_000, seed=seed + 100)
        want = trajectory_by_steps(model, 3_000, seed=seed + 100)
        assert np.array_equal(got.t, want.t)
        names = [f"x{l}" for l in range(1, got.m + 1)] + ["y"]
        for a, b in zip([got.coded(v).labels() for v in names], [want.coded(v).labels() for v in names]):
            assert list(a) == list(b)
            assert all(type(u) is type(v) for u, v in zip(a, b))


@given(hidden=st.booleans(), states=st.integers(2, 6), sources=st.integers(1, 3), symbols=st.integers(1, 4),
       targets=st.integers(1, 4), window=st.integers(1, 3), delay=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_sampled_trajectory_csv_is_the_per_step_oracle_csv(tmp_path_factory, hidden, states, sources, symbols,
                                                          targets, window, delay, seed, data):
    # the envelope of ``gen --length``, a one-key symbol table included, with
    # lengths from one row to past two write blocks
    shape = dict(n_states=states, n_sources=sources, n_targets=targets, window=window, delay=delay)
    model = (make_hidden_nonmarkov(seed, n_symbols=symbols, **shape) if hidden
             else make_markov_observable(seed, **shape))
    warm = window + delay - 1
    length = data.draw(st.one_of(st.integers(warm + 1, warm + 30), st.integers(warm + 1, 2 * CSV_CHUNK_ROWS + 30),
                                 st.integers(2 * CSV_CHUNK_ROWS - 30, 2 * CSV_CHUNK_ROWS + 30)))
    path = tmp_path_factory.mktemp("gen") / "trajectory.csv"
    sample_trajectory(model, length, seed).to_csv(path)
    assert path.read_bytes() == dataset_csv_by_rows(trajectory_by_steps(model, length, seed)).encode()


@pytest.mark.parametrize("n_symbols,window", [(1000, 7), (3, 40), (3, 41)])
def test_sample_trajectory_codes_wide_windows_and_many_symbols(n_symbols, window):
    # n_symbols**window is beyond int64 in every case: the window labels must
    # still come out exact
    model = make_hidden_nonmarkov(1, n_states=4, n_symbols=n_symbols, n_targets=2,
                                  window=window, delay=1, noise=0.5)
    got = sample_trajectory(model, 400, seed=5)
    want = trajectory_by_steps(model, 400, seed=5)
    assert (list(got.coded("x1").labels()) == list(want.coded("x1").labels())
            and list(got.coded("y").labels()) == list(want.coded("y").labels()))
    assert len(set(got.coded("x1").labels())) > 300
    assert all(type(v) is int for label in got.coded("x1").labels() for v in label)


def test_sample_frequencies_match_stationary_marginals():
    model = make_hidden_nonmarkov(14, n_states=3, n_symbols=2, n_targets=3, noise=0.4)
    n = 100_000
    ds = sample_trajectory(model, n, seed=6)
    law = exact_window_law(model, [("y", 0)])
    want = law.law.pmf("y@0").probs
    counts = np.array([sum(1 for v in ds.coded("y").labels() if v == k) for k in range(3)], dtype=float)
    freq = counts / counts.sum()
    # 3-sigma multinomial bounds per symbol
    sigma = np.sqrt(want * (1 - want) / n)
    assert np.all(np.abs(freq - want) <= 3.2 * sigma + 1e-9)


def test_model_json_roundtrip(tmp_path):
    model = make_hidden_nonmarkov(15, n_states=4, n_symbols=3, n_targets=2, noise=0.2, window=2, delay=1)
    path = tmp_path / "model.json"
    model.save(path)
    back = ProcessModel.load(path)
    assert back.window == 2 and back.delay == 1 and back.seed == 15
    assert np.allclose(back.transition, model.transition)
    law_a = exact_window_law(model, [("y", 0), ("x1", 1)])
    law_b = exact_window_law(back, [("y", 0), ("x1", 1)])
    assert np.allclose(law_a.law.probs, law_b.law.probs, atol=1e-15)
