import numpy as np
import pytest

from aof_lab import (
    EmpiricalLawProvider,
    ExactLawProvider,
    JointPmf,
    OutcomeSpace,
    Pmf,
    beta_between,
    chi2_conditional_mi,
    chi2_divergence,
    conditional_entropy,
    epsilon_coefficient,
    log_loss,
    make_hidden_nonmarkov,
    make_markov_observable,
    mix_joints,
    mix_toward_markov,
    quadratic_loss,
    sample_trajectory,
)
from aof_lab.divergence import _chi2_cmi_stack, epsilon_sweep
from aof_lab.errors import IncompatibleSpaceError, PositivityError, ReferenceNotInteriorError
from aof_lab.processes import exact_window_law

from oracles import chi2_cmi_direct, chi2_mc, epsilon_direct, loglog_slope, random_joint, random_pmf


def test_chi2_zero_iff_equal():
    rng = np.random.default_rng(0)
    space = OutcomeSpace(tuple(range(4)))
    p = random_pmf(rng, space, floor=0.01)
    assert chi2_divergence(p, p) == 0.0
    q = random_pmf(rng, space, floor=0.01)
    assert chi2_divergence(p, q) > 1e-12


def test_chi2_known_value():
    p = Pmf.from_mapping({0: 0.5, 1: 0.5})
    q = Pmf.from_mapping({0: 0.25, 1: 0.75})
    assert chi2_divergence(p, q) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_chi2_monte_carlo_oracle():
    rng = np.random.default_rng(1)
    space = OutcomeSpace(tuple(range(5)))
    p = random_pmf(rng, space, floor=0.05)
    q = random_pmf(rng, space, floor=0.05)
    exact = chi2_divergence(p, q)
    est = chi2_mc(p, q, n=1_000_000, seed=2)
    # 4-sigma band from the (p/q - 1)^2 population variance
    samples = (p.probs / q.probs - 1.0) ** 2
    var = float(q.probs @ (samples - exact) ** 2)
    assert abs(est - exact) <= 4.0 * np.sqrt(var / 1_000_000)


def test_chi2_reference_not_interior():
    space = OutcomeSpace((0, 1))
    p = Pmf.uniform(space)
    q = Pmf.point_mass(space, 0)
    with pytest.raises(ReferenceNotInteriorError) as exc:
        chi2_divergence(p, q)
    assert exc.value.cells == [1]
    # both zero on the same cell is fine: cell outside the union of supports
    pz = Pmf.point_mass(space, 0)
    assert chi2_divergence(pz, q) == 0.0


def test_chi2_requires_matching_shapes():
    p = Pmf.uniform(OutcomeSpace((0, 1)))
    q = Pmf.uniform(OutcomeSpace((0, 1, 2)))
    with pytest.raises(IncompatibleSpaceError):
        chi2_divergence(p, q)


def _triple(rng, floor=0.02):
    vs = [(n, OutcomeSpace((0, 1))) for n in ("x", "y", "z")]
    return random_joint(rng, vs, floor=floor)


def test_cmi_matches_direct_expansion():
    rng = np.random.default_rng(3)
    for _ in range(10):
        j = _triple(rng)
        got = chi2_conditional_mi(j, "y", ["z"], ["x"])
        assert got == pytest.approx(chi2_cmi_direct(j, "y", ["z"], ["x"]), abs=1e-12)
        assert got >= 0.0


def test_cmi_zero_for_product_conditionals():
    rng = np.random.default_rng(4)
    nx, ny, nz = 3, 2, 2
    px = rng.random(nx) + 0.1
    px /= px.sum()
    py = rng.random((nx, ny)) + 0.1
    py /= py.sum(axis=1, keepdims=True)
    pz = rng.random((nx, nz)) + 0.1
    pz /= pz.sum(axis=1, keepdims=True)
    probs = np.einsum("x,xy,xz->xyz", px, py, pz)
    vs = (("x", OutcomeSpace(tuple(range(nx)))), ("y", OutcomeSpace(tuple(range(ny)))),
          ("z", OutcomeSpace(tuple(range(nz)))))
    j = JointPmf(vs, probs)
    assert chi2_conditional_mi(j, "y", ["z"], ["x"]) == pytest.approx(0.0, abs=1e-12)


def test_cmi_zero_for_perfect_copies():
    # y = z = x: Markov through x despite fully degenerate conditionals
    n = 3
    probs = np.zeros((n, n, n))
    for i in range(n):
        probs[i, i, i] = 1.0 / n
    vs = tuple((name, OutcomeSpace(tuple(range(n)))) for name in ("x", "y", "z"))
    j = JointPmf(vs, probs)
    assert chi2_conditional_mi(j, "y", ["z"], ["x"]) == pytest.approx(0.0, abs=1e-14)


def test_data_processing_for_marginals():
    rng = np.random.default_rng(5)
    vs = [("x", OutcomeSpace(tuple(range(3)))), ("y", OutcomeSpace(tuple(range(2))))]
    for _ in range(20):
        a = random_joint(rng, vs, floor=0.02)
        b = random_joint(rng, vs, floor=0.02)
        full = chi2_divergence(a, b)
        marg = chi2_divergence(a.pmf("x"), b.pmf("x"))
        assert marg <= full + 1e-12


def test_markov_observable_has_zero_epsilon():
    for seed in (0, 1):
        model = make_markov_observable(seed, n_states=3, n_sources=1, n_targets=2)
        rep = epsilon_coefficient(ExactLawProvider(model), tau_max=3, mu_max=3)
        assert rep.epsilon <= 1e-9


def test_hidden_nonmarkov_has_positive_epsilon():
    model = make_hidden_nonmarkov(7, n_states=4, n_symbols=2, n_targets=2, noise=0.3)
    rep = epsilon_coefficient(ExactLawProvider(model), tau_max=2, mu_max=2)
    assert rep.epsilon > 1e-3
    taus = {g[0] for g in rep.grid}
    assert len(rep.grid) == 3 * 2  # tau in 0..2, mu in 1..2 for m=1
    assert rep.argmax_tau[0] <= 2 and 1 <= rep.argmax_mu[0] <= 2


def test_epsilon_monotone_in_caps():
    model = make_hidden_nonmarkov(9, n_states=4, n_symbols=2, n_targets=2, noise=0.4)
    prov = ExactLawProvider(model)
    values = [epsilon_coefficient(prov, t, m).epsilon for t, m in ((1, 1), (2, 2), (3, 3))]
    assert values[0] <= values[1] + 1e-15 <= values[2] + 2e-15


def test_epsilon_linear_in_mixture_weight():
    markov = make_markov_observable(42, n_states=3, n_sources=1, n_targets=3)
    hidden = make_hidden_nonmarkov(43, n_states=5, n_symbols=3, n_targets=3, noise=0.4)
    etas = [2.0**-k for k in range(5, 11)]
    eps = [
        epsilon_coefficient(mix_toward_markov(hidden, markov, eta), 2, 2).epsilon for eta in etas
    ]
    slope = loglog_slope(etas, eps)
    assert 0.9 <= slope <= 1.1
    # endpoints
    assert epsilon_coefficient(mix_toward_markov(hidden, markov, 0.0), 2, 2).epsilon <= 1e-9
    raw = epsilon_coefficient(ExactLawProvider(hidden), 2, 2).epsilon
    assert epsilon_coefficient(mix_toward_markov(hidden, markov, 1.0), 2, 2).epsilon == pytest.approx(
        raw, abs=1e-12
    )


def test_epsilon_dpi_slope_for_generalized_cmi():
    # relaxed data-processing: generalized conditional MI scales like eps^2
    markov = make_markov_observable(42, n_states=3, n_sources=1, n_targets=3)
    rng = np.random.default_rng(77)
    n = markov.n_states
    mild = None
    from aof_lab import ProcessModel

    T = 0.7 * markov.transition + 0.3 * rng.dirichlet(np.ones(n), size=n)
    ems = [0.75 * e + 0.25 * rng.dirichlet(np.ones(e.shape[1]), size=n) for e in markov.emissions]
    ty = 0.7 * markov.target_kernel + 0.3 * rng.dirichlet(
        np.ones(markov.target_kernel.shape[1]), size=n
    )
    mild = ProcessModel(T, ems, markov.emission_spaces, ty, markov.target_space)
    etas = [2.0**-k for k in range(1, 7)]
    eps, i_log, i_quad = [], [], []
    for eta in etas:
        mix = mix_toward_markov(mild, markov, eta)
        eps.append(epsilon_coefficient(mix, 2, 2).epsilon)
        best = {"log": 0.0, "quad": 0.0}
        for tau in range(3):
            for mu in range(1, 3):
                law = mix.window_law([("y", 0), ("x1", tau), ("x1", tau + mu)])
                x = [f"x1@{tau}"]
                z = [f"x1@{tau + mu}"]
                for name, loss in (("log", log_loss()), ("quad", quadratic_loss())):
                    v = conditional_entropy(law.law, "y@0", x, loss) - conditional_entropy(
                        law.law, "y@0", x + z, loss
                    )
                    best[name] = max(best[name], v)
        i_log.append(best["log"])
        i_quad.append(best["quad"])
    assert 1.8 <= loglog_slope(eps, i_log) <= 2.2
    assert 1.8 <= loglog_slope(eps, i_quad) <= 2.2


def test_beta_between_and_mixture_scaling():
    rng = np.random.default_rng(8)
    vs = [("x", OutcomeSpace(tuple(range(3)))), ("y", OutcomeSpace(tuple(range(2))))]
    train = random_joint(rng, vs, floor=0.05)
    other = random_joint(rng, vs, floor=0.05)
    assert beta_between(train, train).beta == 0.0
    base = beta_between(train, other).beta
    for eta in (0.5, 0.25, 0.125):
        test = mix_joints([(1 - eta, train), (eta, other)])
        rep = beta_between(train, test)
        assert rep.beta == pytest.approx(eta * base, rel=1e-9)
        assert rep.divergence == pytest.approx(rep.beta**2, rel=1e-12)


def test_epsilon_report_json_fields():
    model = make_hidden_nonmarkov(5, n_states=3, n_symbols=2, n_targets=2, noise=0.2)
    rep = epsilon_coefficient(ExactLawProvider(model), 1, 1)
    data = rep.to_json_dict()
    assert set(data) == {"epsilon", "tau_max", "mu_max", "argmax_tau", "argmax_mu"}


def _assert_matches_oracle(provider, law_at, caps):
    rep = epsilon_coefficient(provider, caps, caps)
    eps, tau, mu, values = epsilon_direct(law_at, provider.m, caps, caps)
    assert abs(rep.epsilon - eps) <= 1e-12
    assert (rep.argmax_tau, rep.argmax_mu) == (tau, mu)
    assert np.abs(np.array([v for _, _, v in rep.grid]) - values).max() <= 1e-12


@pytest.mark.parametrize(
    "shape, caps",
    [
        (dict(n_sources=1, window=2, delay=1), 3),
        (dict(n_sources=1, window=3, delay=0), 4),
        (dict(n_sources=2, n_symbols=(2, 3), n_targets=3), 2),
        (dict(n_sources=3, window=2), 1),
    ],
)
def test_epsilon_matches_per_law_oracle_on_exact_laws(shape, caps):
    model = make_hidden_nonmarkov(11, n_states=4, noise=0.2, concentration=0.5, **shape)
    _assert_matches_oracle(ExactLawProvider(model), lambda r: exact_window_law(model, r).law, caps)


def test_epsilon_matches_per_law_oracle_on_mixture_and_empirical_laws():
    markov = make_markov_observable(12, n_states=3, n_sources=2, n_targets=2)
    hidden = make_hidden_nonmarkov(13, n_states=4, n_sources=2, n_symbols=3, n_targets=2, noise=0.3)
    mix = mix_toward_markov(hidden, markov, 0.3)
    _assert_matches_oracle(mix, lambda r: mix.window_law(r).law, 2)
    data = EmpiricalLawProvider(sample_trajectory(make_hidden_nonmarkov(14, window=2), 4000, 14),
                                pseudo_count=0.5)
    _assert_matches_oracle(data, lambda r: data.window_law(r).law, 2)


def test_chi2_cmi_positivity_error_names_conditioning_cells():
    x_spaces = [OutcomeSpace(("a", "b")), OutcomeSpace((0, 1, 2))]
    cubes = np.full((2, 6, 2, 2), 1.0 / 48)
    # signed mass cancels a target marginal, zeroing the reference under it
    cubes[0, 1, 0] = [0.1, -0.1]
    cubes[1, 5, 1] = [-0.1, 0.1]
    with pytest.raises(PositivityError) as exc:
        _chi2_cmi_stack(cubes, x_spaces)
    assert exc.value.cells == [("a", 1), ("b", 2)]


def test_chi2_cmi_stack_mixes_degenerate_and_positive_cubes():
    rng = np.random.default_rng(5)
    spaces = {"x": OutcomeSpace((0, 1, 2)), "y": OutcomeSpace((0, 1)), "z": OutcomeSpace((0, 1, 2))}
    positive = rng.dirichlet(np.ones(18)).reshape(3, 2, 3)
    degenerate = rng.dirichlet(np.ones(18)).reshape(3, 2, 3)
    # deterministic conditionals zero part of the product reference
    degenerate[1, 0] = 0.0
    degenerate[2, :, 1:] = 0.0
    degenerate /= degenerate.sum()
    cubes = np.stack([positive, degenerate])
    values = _chi2_cmi_stack(cubes, [spaces["x"]])
    for cube, value in zip(cubes, values):
        joint = JointPmf(tuple(spaces.items()), cube)
        assert abs(value - chi2_cmi_direct(joint, "y", ["z"], ["x"])) <= 1e-15
        # scored alone, each cube gives the same value bit for bit
        assert _chi2_cmi_stack(cube[None], [spaces["x"]])[0] == value
    assert values[1] > 0.0


@pytest.mark.parametrize("shape", [dict(n_states=3, n_sources=1), dict(n_states=2, n_sources=2, window=2)])
def test_epsilon_argmax_on_markov_model_ignores_float_noise(shape):
    model = make_markov_observable(41, n_targets=2, **shape)
    rep = epsilon_coefficient(ExactLawProvider(model), 2, 2)
    m = shape["n_sources"]
    assert rep.epsilon <= 1e-12
    assert (rep.argmax_tau, rep.argmax_mu) == ((0,) * m, (0,) * (m - 1) + (1,))


@pytest.mark.parametrize("m, window, delay", [(1, 1, 0), (2, 1, 1), (2, 2, 0)])
def test_epsilon_sweep_reports_equal_mixture_provider_runs(m, window, delay):
    # the `epsilon --sweep` pair: a hidden model and an observable Markov reference
    model = make_hidden_nonmarkov(33, n_states=4, n_sources=m, n_symbols=2, n_targets=3,
                                  window=window, delay=delay)
    ref = make_markov_observable(34, n_states=2, n_sources=m, n_targets=3, window=window, delay=delay)
    etas = [0.5, 0.25, 0.125, 0.0, 1.0]
    reports = epsilon_sweep(ExactLawProvider(ref), ExactLawProvider(model), etas, 2, 2)
    assert len(reports) == len(etas)
    for eta, rep in zip(etas, reports):
        want = epsilon_coefficient(mix_toward_markov(model, ref, eta), 2, 2)
        assert rep.grid == want.grid
        assert (rep.epsilon, rep.argmax_tau, rep.argmax_mu) == (want.epsilon, want.argmax_tau, want.argmax_mu)
        assert (rep.tau_max, rep.mu_max) == (2, 2)


def test_epsilon_sweep_validates_weights_and_providers():
    model = make_hidden_nonmarkov(35, n_states=4, n_symbols=2, n_targets=3)
    ref = ExactLawProvider(make_markov_observable(36, n_states=2, n_targets=3))
    with pytest.raises(IncompatibleSpaceError, match="eta"):
        epsilon_sweep(ref, ExactLawProvider(model), [0.5, -0.1], 1, 1)
    other = ExactLawProvider(make_hidden_nonmarkov(37, n_states=4, n_symbols=3, n_targets=3))
    with pytest.raises(IncompatibleSpaceError, match="feature spaces"):
        epsilon_sweep(ref, other, [0.5], 1, 1)
    assert epsilon_sweep(ref, ExactLawProvider(model), [], 1, 1) == []
