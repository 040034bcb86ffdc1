import itertools
import tracemalloc

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
from aof_lab import divergence
from aof_lab.divergence import _chi2_cmi_stack, epsilon_sweep
from aof_lab.errors import IncompatibleSpaceError, PositivityError, ReferenceNotInteriorError
from aof_lab.laws import STACK_CELLS
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
    assert np.abs(rep.grid - values).max() <= 1e-12


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
    given = cubes.copy()
    with pytest.raises(PositivityError) as exc:
        _chi2_cmi_stack(cubes, x_spaces)
    assert exc.value.cells == [("a", 1), ("b", 2)]
    assert str(exc.value) == (
        "positivity violated: triple mass on a zero product-reference cell at [('a', 1), ('b', 2)]"
    )
    # the kernel scores in place, but only once the stack has passed the check
    assert cubes.tobytes() == given.tobytes()


def test_chi2_cmi_positivity_error_is_the_same_across_blocks(monkeypatch):
    # violations in the first and last of three cubes, the clean cube between
    x_spaces = [OutcomeSpace(("a", "b")), OutcomeSpace((0, 1, 2))]
    cubes = np.full((3, 6, 2, 2), 1.0 / 48)
    cubes[0, 1, 0] = [0.1, -0.1]
    cubes[2, 5, 1] = [-0.1, 0.1]
    with pytest.raises(PositivityError) as whole:
        _chi2_cmi_stack(cubes.copy(), x_spaces)
    # one cube per block: every block is checked, so the error names the union
    monkeypatch.setattr(divergence, "_BLOCK_CELLS", 1)
    with pytest.raises(PositivityError) as split:
        _chi2_cmi_stack(cubes.copy(), x_spaces)
    assert split.value.cells == whole.value.cells == [("a", 1), ("b", 2)]
    assert str(split.value) == str(whole.value)


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
    # the kernel consumes the stack it scores, so every call gets a copy
    values = _chi2_cmi_stack(cubes.copy(), [spaces["x"]])
    for cube, value in zip(cubes, values):
        joint = JointPmf(tuple(spaces.items()), cube)
        assert abs(value - chi2_cmi_direct(joint, "y", ["z"], ["x"])) <= 1e-15
        # scored alone, each cube gives the same value bit for bit
        assert _chi2_cmi_stack(cube[None].copy(), [spaces["x"]])[0] == value
    assert values[1] > 0.0


def _chi2_by_strided_sum(cubes):
    """The kernel's arithmetic on positive cubes, with ``pz`` from one
    ``sum(axis=2)`` over the strided y axis."""
    w = cubes.sum(axis=(2, 3))
    ref = cubes.sum(axis=3)[:, :, :, None] * cubes.sum(axis=2)[:, :, None, :]
    ref /= w[:, :, None, None]
    terms = cubes - ref
    terms *= terms
    terms /= ref
    return terms.sum(axis=(1, 2, 3))


@pytest.mark.parametrize("n_y", range(2, 10))
def test_chi2_cmi_stack_keeps_the_bits_of_the_strided_sum(n_y):
    rng = np.random.default_rng(n_y)
    x_spaces = [OutcomeSpace((0, 1, 2))]
    for n_z in range(1, 71):
        cubes = rng.dirichlet(np.ones(3 * n_y * n_z), size=4).reshape(4, 3, n_y, n_z)
        want = _chi2_by_strided_sum(cubes)
        assert _chi2_cmi_stack(cubes.copy(), x_spaces).tobytes() == want.tobytes(), n_z


@pytest.mark.parametrize("order", [("x", "y", "z"), ("z", "x", "y")],
                         ids=["already-arranged", "rearranged"])
def test_chi2_conditional_mi_leaves_the_joint_unchanged(order):
    # with the axes already in [given, target, future] order, arrange hands
    # back the joint's own array, which the in-place kernel must not score
    rng = np.random.default_rng(6)
    spaces = {"x": OutcomeSpace((0, 1, 2)), "y": OutcomeSpace((0, 1)), "z": OutcomeSpace((0, 1))}
    joint = random_joint(rng, [(n, spaces[n]) for n in order], floor=0.02)
    before = joint.probs.tobytes()
    first = chi2_conditional_mi(joint, "y", ["z"], ["x"])
    assert joint.probs.tobytes() == before
    assert chi2_conditional_mi(joint, "y", ["z"], ["x"]) == first
    assert first == pytest.approx(chi2_cmi_direct(joint, "y", ["z"], ["x"]), abs=1e-12)


def test_epsilon_grid_walk_holds_at_most_two_stacks():
    # 702 laws of up to 8,192 cells, walked in chunks of at most STACK_CELLS
    # cells: only one chunk's laws are live at a time, and they are scored in
    # place a block at a time, so besides them only block-sized temporaries
    # and the builder's tables are live
    model = make_hidden_nonmarkov(7, n_states=4, n_sources=3, n_symbols=2, n_targets=2, window=2)
    laws = ExactLawProvider(model)
    tracemalloc.start()
    try:
        epsilon_coefficient(laws, 2, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * STACK_CELLS * 8


@pytest.mark.parametrize("block_cells", [1, 100])
@pytest.mark.parametrize("m, caps", [(1, 3), (2, 2), (3, 1)])
def test_epsilon_grid_keeps_its_bits_whatever_the_chi2_block(monkeypatch, m, caps, block_cells):
    # one law per block (1 cell), or a few small laws with a ragged last block
    model = make_hidden_nonmarkov(19, n_states=4, n_sources=m, n_symbols=2, n_targets=2, window=2)
    ref = make_markov_observable(20, n_states=2, n_sources=m, n_targets=2, window=2)
    etas = [0.5, 0.0]

    def run():
        return [epsilon_coefficient(ExactLawProvider(model), caps, caps),
                *epsilon_sweep(ExactLawProvider(ref), ExactLawProvider(model), etas, caps, caps)]

    want = run()
    monkeypatch.setattr(divergence, "_BLOCK_CELLS", block_cells)
    for rep, default in zip(run(), want, strict=True):
        assert rep.grid.tobytes() == default.grid.tobytes()
        assert rep.epsilon == default.epsilon
        assert (rep.argmax_tau, rep.argmax_mu) == (default.argmax_tau, default.argmax_mu)


def test_epsilon_grid_walk_memory_barely_grows_with_the_grid():
    # caps 4 give 125 x 124 = 15,500 grid points, caps 6 give 343 x 342 =
    # 117,306: each chunk's lags come from its own point indices, so only
    # the grid's float64 values grow with it, not lag tables or Python tuples
    model = make_hidden_nonmarkov(7, n_states=4, n_sources=3, n_symbols=2, n_targets=2)
    laws = ExactLawProvider(model)
    peaks = {}
    for caps in (4, 6):
        tracemalloc.start()
        try:
            rep = epsilon_coefficient(laws, caps, caps)
            _, peaks[caps] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rep.grid) == ((caps + 1) ** 3) * ((caps + 1) ** 3 - 1)
    assert peaks[6] <= 1.5 * peaks[4]


def test_epsilon_grid_is_a_read_only_flat_array_in_lexicographic_order():
    model = make_hidden_nonmarkov(11, n_states=4, n_sources=2, n_symbols=2, n_targets=2)
    rep = epsilon_coefficient(ExactLawProvider(model), 2, 1)
    taus = list(itertools.product(range(3), repeat=2))
    mus = [mu for mu in itertools.product(range(2), repeat=2) if any(mu)]
    assert rep.grid.dtype == np.float64 and rep.grid.shape == (len(taus) * len(mus),)
    assert not rep.grid.flags.writeable
    at = rep.grid.tolist().index(max(rep.grid.tolist()))
    assert (rep.argmax_tau, rep.argmax_mu) == (taus[at // len(mus)], mus[at % len(mus)])


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
        assert np.array_equal(rep.grid, want.grid)
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
