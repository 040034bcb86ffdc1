import numpy as np
import pytest

from aof_lab import (
    AgeDistribution,
    EmpiricalLawProvider,
    ExactLawProvider,
    MixtureLawProvider,
    OutcomeSpace,
    ProcessModel,
    beta_between,
    compare_experiments,
    compare_testing_experiments,
    conditional_entropy,
    decompose,
    dynamic_joint,
    epsilon_coefficient,
    joint_training_loss,
    log_loss,
    loss_curve,
    make_hidden_nonmarkov,
    make_markov_observable,
    min_training_loss,
    mix_toward_markov,
    quadratic_loss,
    sample_trajectory,
    zero_one_loss,
)
from aof_lab import analysis
from aof_lab import testing_loss as eval_testing_loss
from aof_lab.analysis import cross_loss_sweep
from aof_lab.errors import AofLabError, IncompatibleSpaceError
from aof_lab.laws import DEFAULT_MAX_CELLS

from oracles import loglog_slope, per_cell_bayes_search

LOSSES = [log_loss(), quadratic_loss()]


def _hidden(seed, m=1, **kw):
    defaults = dict(n_states=4, n_sources=m, n_symbols=2, n_targets=2, noise=0.3)
    defaults.update(kw)
    return make_hidden_nonmarkov(seed, **defaults)


def test_min_training_loss_zero_when_target_determined():
    # y copies the current feature symbol
    rng = np.random.default_rng(0)
    T = rng.dirichlet(np.ones(3), size=3) + 0.1
    T /= T.sum(axis=1, keepdims=True)
    emit = np.zeros((3, 3))
    emit[[0, 1, 2], [0, 1, 2]] = 1.0
    space = OutcomeSpace((0, 1, 2))
    model = ProcessModel(T, [emit], [space], emit, space)
    prov = ExactLawProvider(model)
    for loss in LOSSES:
        assert min_training_loss(prov, (0,), loss) == pytest.approx(0.0, abs=1e-12)


def test_min_training_loss_constant_when_independent():
    # iid states: y independent of lagged features
    pi = np.array([0.4, 0.6])
    T = np.tile(pi, (2, 1))
    eye = np.eye(2)
    space = OutcomeSpace((0, 1))
    model = ProcessModel(T, [eye], [space], eye, space)
    prov = ExactLawProvider(model)
    from aof_lab import entropy

    for loss in LOSSES:
        base = entropy(prov.window_law([("y", 0)]).law.pmf("y@0"), loss)
        for d in (1, 2, 3):
            assert min_training_loss(prov, (d,), loss) == pytest.approx(base, abs=1e-12)


def test_min_training_loss_monotone_for_markov():
    model = make_markov_observable(3, n_states=3, n_sources=2, n_targets=2)
    prov = ExactLawProvider(model)
    for loss in LOSSES:
        assert min_training_loss(prov, (2, 2), loss) >= min_training_loss(prov, (1, 1), loss) - 1e-10


def test_min_training_loss_matches_per_cell_search():
    prov = ExactLawProvider(_hidden(4, m=2))
    law = prov.window_law([("y", 0), ("x1", 2), ("x2", 1)])
    for loss in LOSSES:
        got = min_training_loss(prov, (2, 1), loss)
        want = per_cell_bayes_search(law.law, "y@0", ["x1@2", "x2@1"], loss)
        assert got == pytest.approx(want, abs=1e-10)


def test_decompose_identity_and_path_independence_of_h():
    prov = ExactLawProvider(_hidden(7, m=2))
    for loss in LOSSES:
        reports = {}
        for path in ((0, 1), (1, 0)):
            rep = decompose(prov, (2, 1), loss, path)
            assert abs(rep.h - (rep.f1 - rep.f2)) <= 1e-9
            assert all(t.gained >= -1e-10 and t.lost >= -1e-10 for t in rep.terms)
            reports[path] = rep
        assert reports[(0, 1)].h == pytest.approx(reports[(1, 0)].h, abs=1e-12)


def test_decompose_zero_age_vector():
    prov = ExactLawProvider(_hidden(8, m=2))
    rep = decompose(prov, (0, 0), log_loss())
    assert rep.terms == ()
    assert rep.f2 == 0.0
    assert rep.f1 == rep.base == pytest.approx(rep.h, abs=1e-12)


def test_decompose_markov_f2_vanishes():
    model = make_markov_observable(9, n_states=3, n_sources=2, n_targets=3)
    prov = ExactLawProvider(model)
    for loss in LOSSES:
        for delta in ((3, 2), (1, 3)):
            rep = decompose(prov, delta, loss)
            assert rep.f2 <= 1e-10


def test_decompose_h_equals_min_training_loss_two_routes():
    prov = ExactLawProvider(_hidden(10, m=2))
    rep = decompose(prov, (2, 1), log_loss())
    assert rep.h == pytest.approx(min_training_loss(prov, (2, 1), log_loss()), abs=1e-10)


def test_decompose_monotone_along_first_path_coordinate():
    # walking the leading coordinate only adds nonnegative staircase terms
    prov = ExactLawProvider(_hidden(11, m=2))
    for loss in LOSSES:
        for path in ((0, 1), (1, 0)):
            lead = path[0]
            prev_f1 = prev_f2 = -1.0
            for d in range(4):
                delta = [1, 1]
                delta[lead] = d
                rep = decompose(prov, tuple(delta), loss, path)
                assert rep.f1 >= prev_f1 - 1e-10
                assert rep.f2 >= prev_f2 - 1e-10
                prev_f1, prev_f2 = rep.f1, rep.f2


def test_f1_is_path_dependent_for_nonmarkov_laws():
    # the two staircase orders provably share h = f1 - f2, but a hidden
    # non-Markov law splits it differently per path; this documents the
    # counterexample (seed 1, log loss, delta (2, 1)) rather than assuming
    # the orders agree
    prov = ExactLawProvider(_hidden(1, m=2, noise=0.35))
    a = decompose(prov, (2, 1), log_loss(), (0, 1))
    b = decompose(prov, (2, 1), log_loss(), (1, 0))
    assert a.h == pytest.approx(b.h, abs=1e-12)
    assert abs(a.f1 - b.f1) > 1e-4
    assert abs((a.f1 - b.f1) - (a.f2 - b.f2)) <= 1e-12


def test_decompose_validates_path():
    prov = ExactLawProvider(_hidden(12, m=2))
    with pytest.raises(IncompatibleSpaceError):
        decompose(prov, (1, 1), log_loss(), (0, 0))


@pytest.mark.parametrize("call,field,bad", [
    (lambda p: min_training_loss(p, (1.5, 0), log_loss()), "delta lags", "1.5"),
    (lambda p: min_training_loss(p, (True, 0), log_loss()), "delta lags", "True"),
    (lambda p: loss_curve(p, [(0.9, 0), (2.2, 0)], log_loss()), "grid point lags", "0.9"),
    (lambda p: loss_curve(p, [(0, 0), (2**63, 0)], log_loss()), "grid point lags", str(2**63)),
    (lambda p: decompose(p, (np.float64(1.5), 1), log_loss()), "delta lags", "1.5"),
    (lambda p: decompose(p, (2**63, 1), log_loss()), "delta lags", str(2**63)),
    (lambda p: decompose(p, (1, 1), log_loss(), (0.5, 1)), "path", "0.5"),
])
def test_age_vectors_refuse_components_that_are_not_whole(call, field, bad):
    # (1.5,) used to be read as age 1, and a grid of (0.9,), (2.2,) as (0,), (2,)
    with pytest.raises(AofLabError, match=rf"^{field} must be whole numbers in the int64 range, got {bad}$"):
        call(ExactLawProvider(_hidden(12, m=2)))


def test_decompose_refuses_a_staircase_over_the_cell_cap(monkeypatch):
    # (sum(delta) + 1) x m cells; the smallest refused sum is refused before
    # anything is built
    prov = ExactLawProvider(_hidden(12, m=2))
    smallest = DEFAULT_MAX_CELLS // 2
    with pytest.raises(AofLabError) as err:
        decompose(prov, (smallest - 1, 1), log_loss())
    assert str(err.value) == (f"age vector ({smallest - 1}, 1): its staircase of {smallest + 1} age vectors x 2 "
                              f"sources is over {DEFAULT_MAX_CELLS} cells")
    # under a cap of 12 cells, the largest accepted sum is 5
    monkeypatch.setattr(analysis, "DEFAULT_MAX_CELLS", 12)
    assert decompose(prov, (4, 1), log_loss()).delta == (4, 1)
    with pytest.raises(AofLabError, match=r"^age vector \(5, 1\): its staircase of 7 age vectors x 2 sources"):
        decompose(prov, (5, 1), log_loss())


def test_loss_curve_markov_has_no_drops():
    model = make_markov_observable(13, n_states=3, n_sources=1, n_targets=2)
    prov = ExactLawProvider(model)
    grid = [(d,) for d in range(6)]
    curve = loss_curve(prov, grid, log_loss())
    assert curve.nonmonotonicity_index <= 1e-9


def test_loss_curve_nonmonotone_seed_and_window_sweep():
    # shipped seed exhibiting drops at window 1 that fade as b grows
    model = make_hidden_nonmarkov(
        7, n_states=5, n_sources=1, n_symbols=2, n_targets=3, noise=0.15, concentration=0.25
    )
    grid = [(d,) for d in range(6)]
    idx = {}
    for b in (1, 2, 3):
        prov = ExactLawProvider(model.with_window(b))
        idx[b] = loss_curve(prov, grid, log_loss()).nonmonotonicity_index
    assert idx[1] > 0.005
    assert idx[1] >= idx[2] >= idx[3]


def test_loss_curve_rejects_duplicate_grid_points():
    prov = ExactLawProvider(_hidden(14))
    with pytest.raises(Exception):
        loss_curve(prov, [(1,), (1,)], log_loss())
    with pytest.raises(AofLabError, match="at least one age vector"):
        loss_curve(prov, [], log_loss())


def test_joint_training_identity_and_inequality():
    prov = ExactLawProvider(_hidden(15))
    ages = AgeDistribution.uniform([(0,), (1,), (2,)])
    for loss in LOSSES:
        with_age = joint_training_loss(prov, ages, loss, True)
        without = joint_training_loss(prov, ages, loss, False)
        weighted = sum(
            p * min_training_loss(prov, v, loss) for v, p in zip(ages.vectors, ages.probs)
        )
        assert with_age == pytest.approx(weighted, abs=1e-10)
        assert without >= with_age - 1e-10


def test_joint_training_point_mass_age():
    prov = ExactLawProvider(_hidden(16))
    ages = AgeDistribution.point_mass((2,))
    for loss in LOSSES:
        base = min_training_loss(prov, (2,), loss)
        assert joint_training_loss(prov, ages, loss, True) == pytest.approx(base, abs=1e-12)
        assert joint_training_loss(prov, ages, loss, False) == pytest.approx(base, abs=1e-12)


def test_joint_training_gap_seed():
    # shipped seed with a visible penalty for dropping the age feature
    prov = ExactLawProvider(
        make_hidden_nonmarkov(13, n_states=4, n_sources=1, n_symbols=2, n_targets=2,
                              noise=0.3, concentration=0.5)
    )
    ages = AgeDistribution.uniform([(0,), (1,), (2,), (3,)])
    gap = joint_training_loss(prov, ages, log_loss(), False) - joint_training_loss(
        prov, ages, log_loss(), True
    )
    assert gap > 0.01


def test_compare_experiments_equal_and_ordered():
    model = make_markov_observable(17, n_states=3, n_sources=1, n_targets=2)
    prov = ExactLawProvider(model)
    ages = AgeDistribution.uniform([(1,), (2,)])
    rep = compare_experiments(prov, ages, ages, log_loss(), tau_max=1, mu_max=1)
    assert rep.difference == 0.0
    assert rep.hypothesis_ok
    older = AgeDistribution.uniform([(2,), (3,)])
    rep2 = compare_experiments(prov, ages, older, log_loss(), tau_max=1, mu_max=1)
    assert rep2.hypothesis_ok
    assert rep2.loss_smaller <= rep2.loss_larger + 1e-9
    assert rep2.epsilon_report.epsilon <= 1e-9


def test_compare_experiments_reports_unmet_hypothesis():
    prov = ExactLawProvider(_hidden(18))
    a = AgeDistribution.point_mass((2,))
    b = AgeDistribution.point_mass((1,))
    rep = compare_experiments(prov, a, b, log_loss(), tau_max=1, mu_max=1)
    assert not rep.hypothesis_ok
    assert rep.ordering.witness is not None


def test_testing_loss_self_equals_training():
    prov = ExactLawProvider(_hidden(19))
    ages = AgeDistribution.uniform([(0,), (2,)])
    for loss in LOSSES:
        training = joint_training_loss(prov, ages, loss, True)
        assert abs(eval_testing_loss(prov, prov, ages, loss) - training) <= 1e-12


def test_testing_loss_bounded_below_by_test_entropy():
    train = ExactLawProvider(_hidden(20))
    test = ExactLawProvider(_hidden(21))
    ages = AgeDistribution.uniform([(0,), (1,)])
    t = eval_testing_loss(train, test, ages, log_loss())
    test_training = joint_training_loss(test, ages, log_loss(), True)
    assert t >= test_training - 1e-10


def test_testing_gap_scales_linearly_with_beta():
    train = ExactLawProvider(_hidden(31))
    other = ExactLawProvider(_hidden(77, noise=0.6))
    ages = AgeDistribution.uniform([(0,), (1,), (2,)])
    training = joint_training_loss(train, ages, log_loss(), True)
    betas, gaps = [], []
    for eta in [2.0**-k for k in range(1, 7)]:
        mix = MixtureLawProvider(base=train, other=other, eta=eta)
        betas.append(beta_between(dynamic_joint(train, ages), dynamic_joint(mix, ages)).beta)
        gaps.append(abs(eval_testing_loss(train, mix, ages, log_loss()) - training))
    assert loglog_slope(betas, gaps) >= 0.8
    mix0 = MixtureLawProvider(base=train, other=other, eta=0.0)
    assert abs(eval_testing_loss(train, mix0, ages, log_loss()) - training) <= 1e-12


def test_compare_testing_experiments_limit_case():
    model = make_markov_observable(22, n_states=3, n_sources=1, n_targets=2)
    prov = ExactLawProvider(model)
    a = AgeDistribution.uniform([(0,), (1,)])
    b = AgeDistribution.uniform([(1,), (2,)])
    rep = compare_testing_experiments(prov, prov, a, b, log_loss(), tau_max=1, mu_max=1)
    assert rep.ordering.holds
    assert rep.beta_smaller.beta == 0.0 and rep.beta_larger.beta == 0.0
    assert rep.epsilon_report.epsilon <= 1e-9
    assert rep.testing_smaller <= rep.testing_larger + 1e-9


def test_dynamic_joint_is_normalized_mixture():
    prov = ExactLawProvider(_hidden(23, m=2))
    ages = AgeDistribution.from_mapping({(0, 1): 0.25, (2, 0): 0.75})
    joint = dynamic_joint(prov, ages)
    assert joint.names == ("age", "x1", "x2", "y")
    assert joint.pmf("age").probs == pytest.approx([0.25, 0.75])
    # conditional on an age cell reproduces the constant-age law
    cond = joint.conditional({"age": (2, 0)})
    law = prov.window_law([("y", 0), ("x1", 2), ("x2", 0)])
    want = law.law.arrange(["x1@2", "x2@0", "y@0"]).probs
    assert np.allclose(cond.probs, want, atol=1e-12)


def test_decomposition_report_serialization(tmp_path):
    prov = ExactLawProvider(_hidden(24, m=2))
    rep = decompose(prov, (1, 1), log_loss())
    data = rep.to_json_dict()
    assert data["delta"] == [1, 1]
    assert len(data["terms"]) == 2
    rep.save(tmp_path / "d.json")
    curve = loss_curve(prov, [(0, 0), (0, 1), (1, 1)], log_loss())
    curve.to_csv(tmp_path / "c.csv")
    header = (tmp_path / "c.csv").read_text().splitlines()[0]
    assert header == "delta_1,delta_2,loss"


# |h - (f1 - f2)| allowed by float summation: the telescoping sum adds and
# subtracts each staircase entropy once, so the residual is a few ulps of
# the summed losses
DECOMPOSITION_IDENTITY_TOL = 1e-12

# models of the shapes `aof-lab gen` writes: (sources, window, delay)
GEN_SHAPES = [(1, 1, 0), (2, 1, 1), (2, 2, 0)]


def _gen_pair(shape, seed):
    m, window, delay = shape
    kw = dict(n_states=4, n_sources=m, n_symbols=2, n_targets=3, window=window, delay=delay)
    return (ExactLawProvider(make_hidden_nonmarkov(seed, **kw)),
            ExactLawProvider(make_hidden_nonmarkov(seed + 1, noise=0.5, **kw)))


def _age_law(m, top, seed):
    vectors = [v for v in np.ndindex(*(top + 1,) * m)]
    rng = np.random.default_rng(seed)
    return AgeDistribution(tuple(vectors), rng.dirichlet(np.ones(len(vectors))))


@pytest.mark.parametrize("shape", GEN_SHAPES)
@pytest.mark.parametrize("loss", LOSSES, ids=["log", "quad"])
def test_cross_loss_sweep_equals_per_eta_mixture_providers(shape, loss):
    train, test = _gen_pair(shape, 40)
    ages = _age_law(shape[0], 2, 41)
    etas = [0.5, 0.25, 0.0625, 0.0, 1.0]
    training, rows = cross_loss_sweep(train, test, ages, loss, etas)
    assert training == joint_training_loss(train, ages, loss, True)
    joint_train = dynamic_joint(train, ages)
    for eta, (beta, testing) in zip(etas, rows):
        mix = MixtureLawProvider(base=train, other=test, eta=eta)
        assert testing == eval_testing_loss(train, mix, ages, loss)
        assert beta == beta_between(joint_train, dynamic_joint(mix, ages)).beta


@pytest.mark.parametrize("shape", GEN_SHAPES)
def test_cross_loss_sweep_at_eta_one_is_the_direct_provider_result(shape):
    train, test = _gen_pair(shape, 50)
    ages = _age_law(shape[0], 3, 51)
    loss = quadratic_loss()
    training, [(beta, testing)] = cross_loss_sweep(train, test, ages, loss, [1.0])
    assert training == joint_training_loss(train, ages, loss, True)
    assert testing == eval_testing_loss(train, test, ages, loss)
    assert beta == beta_between(dynamic_joint(train, ages), dynamic_joint(test, ages)).beta


def test_cross_loss_sweep_validates_weights_and_providers():
    train, test = _gen_pair((1, 1, 0), 60)
    ages = _age_law(1, 1, 61)
    with pytest.raises(IncompatibleSpaceError, match="eta"):
        cross_loss_sweep(train, test, ages, log_loss(), [0.5, 1.5])
    wide, _ = _gen_pair((2, 1, 0), 62)
    with pytest.raises(IncompatibleSpaceError, match="source count"):
        cross_loss_sweep(train, wide, ages, log_loss(), [1.0])
    with pytest.raises(IncompatibleSpaceError, match="disagree on sources: age vectors of length 1, 2 sources"):
        cross_loss_sweep(wide, wide, ages, log_loss(), [1.0])


@pytest.mark.parametrize("shape", GEN_SHAPES)
def test_compare_testing_experiments_equals_its_parts(shape):
    train, test = _gen_pair(shape, 70)
    a, b = _age_law(shape[0], 1, 71), _age_law(shape[0], 2, 72)
    loss = quadratic_loss()
    rep = compare_testing_experiments(train, test, a, b, loss, tau_max=1, mu_max=1)
    assert rep.testing_smaller == eval_testing_loss(train, test, a, loss)
    assert rep.testing_larger == eval_testing_loss(train, test, b, loss)
    assert rep.beta_smaller == beta_between(dynamic_joint(train, a), dynamic_joint(test, a))
    assert rep.beta_larger == beta_between(dynamic_joint(train, b), dynamic_joint(test, b))
    assert rep.difference == rep.testing_smaller - rep.testing_larger
    assert rep.violation == max(0.0, rep.difference)
    assert np.array_equal(rep.epsilon_report.grid, epsilon_coefficient(train, 1, 1).grid)


def _entropy_from_window_law(prov, pairs, loss):
    law = prov.window_law([("y", 0)] + [(f"x{l}", lag) for l, lag in pairs]).law
    return conditional_entropy(law, "y@0", [n for n in law.names if n != "y@0"], loss)


def _empirical_provider():
    model = make_hidden_nonmarkov(80, n_states=4, n_sources=2, n_symbols=2, n_targets=2, noise=0.3)
    return EmpiricalLawProvider(sample_trajectory(model, 4000, seed=81), pseudo_count=0.5)


@pytest.mark.parametrize("source", ["exact-w1", "exact-w2-d1", "empirical"])
@pytest.mark.parametrize("loss", [log_loss(), quadratic_loss(), zero_one_loss()], ids=["log", "quad", "01"])
def test_decompose_terms_match_per_key_window_law_entropies(source, loss):
    if source == "empirical":
        prov = _empirical_provider()
    else:
        window, delay = (1, 0) if source == "exact-w1" else (2, 1)
        prov = ExactLawProvider(_hidden(82, m=2, window=window, delay=delay))
    for delta, path in [((2, 3), (0, 1)), ((3, 1), (1, 0)), ((0, 2), (0, 1)), ((0, 0), (1, 0))]:
        rep = decompose(prov, delta, loss, path)
        assert len(rep.terms) == sum(delta)
        for term in rep.terms:
            newer, older = (term.source, term.lag), (term.source, term.lag + 1)
            both = _entropy_from_window_law(prov, term.context + (newer, older), loss)
            with_newer = _entropy_from_window_law(prov, term.context + (newer,), loss)
            with_older = _entropy_from_window_law(prov, term.context + (older,), loss)
            assert abs(term.gained - (with_older - both)) <= 1e-12
            assert abs(term.lost - (with_newer - both)) <= 1e-12
        assert abs(rep.base - _entropy_from_window_law(prov, ((1, 0), (2, 0)), loss)) <= 1e-12
        assert abs(rep.h - _entropy_from_window_law(prov, ((1, delta[0]), (2, delta[1])), loss)) <= 1e-12
        assert abs(rep.h - (rep.f1 - rep.f2)) <= DECOMPOSITION_IDENTITY_TOL


def test_decomposition_identity_residual_within_named_tolerance():
    worst = 0.0
    for seed, m in [(90, 1), (91, 2), (92, 3)]:
        prov = ExactLawProvider(_hidden(seed, m=m, noise=0.35))
        for loss in (log_loss(), quadratic_loss(), zero_one_loss()):
            for delta in [(3,) * m, tuple(range(1, m + 1)), (0,) * m]:
                for path in (tuple(range(m)), tuple(reversed(range(m)))):
                    rep = decompose(prov, delta, loss, path)
                    worst = max(worst, abs(rep.h - (rep.f1 - rep.f2)))
    assert worst <= DECOMPOSITION_IDENTITY_TOL
