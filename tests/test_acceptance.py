"""Acceptance suite: one test per shipped claim, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines and measured values.
"""

import itertools
import time

import numpy as np
import pytest

from aof_lab import (
    AgeDistribution,
    DeliveryTrace,
    ExactLawProvider,
    MixtureLawProvider,
    OutcomeSpace,
    Pmf,
    ProcessModel,
    age_process,
    beta_between,
    conditional_entropy,
    decompose,
    dynamic_joint,
    entropy,
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
    stochastic_order_multivariate,
    zero_one_loss,
)
from aof_lab import testing_loss as eval_testing_loss
from aof_lab import empirical_window_law
from aof_lab.aoi import SENTINEL

from oracles import (
    loglog_slope,
    per_cell_bayes_search,
    random_pmf,
    shannon_mi_direct,
    stochastic_order_upper_sets,
)

LOSSES = {"log": log_loss(), "quad": quadratic_loss()}
ETAS = [2.0**-k for k in range(1, 7)]


def _report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS - {text}")


def test_01_decomposition_identity():
    t0 = time.time()
    worst = 0.0
    grid = list(itertools.product(range(4), repeat=2))
    for seed in range(50):
        model = make_hidden_nonmarkov(
            seed, n_states=3, n_sources=2, n_symbols=2, n_targets=2, noise=0.35
        )
        prov = ExactLawProvider(model)
        for loss in LOSSES.values():
            for path in ((0, 1), (1, 0)):
                for delta in grid:
                    rep = decompose(prov, delta, loss, path)
                    gap = abs(rep.h - (rep.f1 - rep.f2))
                    worst = max(worst, gap)
                    assert gap <= 1e-9
    dt = time.time() - t0
    assert dt <= 120.0
    _report(1, f"decomposition identity on 50 models x 16 ages x 2 losses x 2 paths; "
               f"max |h-(f1-f2)| = {worst:.2e}, {dt:.1f}s")


def test_02_markov_limit():
    worst_f2 = -np.inf
    worst_drop = 0.0
    for seed in range(20):
        m = 1 if seed < 10 else 2
        model = make_markov_observable(seed, n_states=3, n_sources=m, n_targets=2)
        prov = ExactLawProvider(model)
        grid = list(itertools.product(range(4), repeat=m))
        for loss in LOSSES.values():
            for delta in grid:
                rep = decompose(prov, delta, loss)
                worst_f2 = max(worst_f2, rep.f2)
                assert rep.f2 <= 1e-10
            curve = loss_curve(prov, grid, loss)
            value_of = dict(zip(curve.grid, curve.values))
            for vec, val in value_of.items():
                for c in range(m):
                    upper = vec[:c] + (vec[c] + 1,) + vec[c + 1 :]
                    if upper in value_of:
                        drop = val - value_of[upper]
                        worst_drop = max(worst_drop, drop)
                        assert drop <= 1e-9
    _report(2, f"Markov limit on 20 observable models: max f2 = {worst_f2:.2e}, "
               f"max curve drop = {worst_drop:.2e}")


def _mild_partner(markov, seed):
    rng = np.random.default_rng(seed)
    n = markov.n_states
    T = 0.7 * markov.transition + 0.3 * rng.dirichlet(np.ones(n), size=n)
    ems = [0.75 * e + 0.25 * rng.dirichlet(np.ones(e.shape[1]), size=n) for e in markov.emissions]
    ty = 0.7 * markov.target_kernel + 0.3 * rng.dirichlet(
        np.ones(markov.target_kernel.shape[1]), size=n
    )
    return ProcessModel(T, ems, markov.emission_spaces, ty, markov.target_space)


def test_03_epsilon_dpi_scaling():
    markov = make_markov_observable(42, n_states=3, n_sources=1, n_targets=3)
    mild = _mild_partner(markov, 77)
    eps, i_log, i_quad = [], [], []
    for eta in ETAS:
        mix = mix_toward_markov(mild, markov, eta)
        eps.append(epsilon_coefficient(mix, 2, 2).epsilon)
        best = {"log": 0.0, "quad": 0.0}
        for tau in range(3):
            for mu in range(1, 3):
                law = mix.window_law([("y", 0), ("x1", tau), ("x1", tau + mu)])
                x = [f"x1@{tau}"]
                z = [f"x1@{tau + mu}"]
                for name, loss in LOSSES.items():
                    v = conditional_entropy(law.law, "y@0", x, loss) - conditional_entropy(
                        law.law, "y@0", x + z, loss
                    )
                    best[name] = max(best[name], v)
        i_log.append(best["log"])
        i_quad.append(best["quad"])
    slope_log = loglog_slope(eps, i_log)
    slope_quad = loglog_slope(eps, i_quad)
    assert 1.8 <= slope_log <= 2.2
    assert 1.8 <= slope_quad <= 2.2
    _report(3, f"relaxed data-processing scaling: slope(log) = {slope_log:.3f}, "
               f"slope(quad) = {slope_quad:.3f} vs measured epsilon")


def _random_age_dist(rng, m, max_component=3):
    size = int(rng.integers(1, 4))
    vecs = set()
    while len(vecs) < size:
        vecs.add(tuple(int(v) for v in rng.integers(0, max_component + 1, size=m)))
    vecs = tuple(sorted(vecs))
    probs = rng.random(len(vecs)) + 0.1
    return AgeDistribution(vecs, probs / probs.sum())


def test_04_joint_training_identity_and_gap():
    rng = np.random.default_rng(2024)
    for trial in range(30):
        m = 1 if trial % 2 == 0 else 2
        model = make_hidden_nonmarkov(
            1000 + trial, n_states=3, n_sources=m, n_symbols=2, n_targets=2, noise=0.3
        )
        prov = ExactLawProvider(model)
        ages = _random_age_dist(rng, m)
        for loss in LOSSES.values():
            with_age = joint_training_loss(prov, ages, loss, True)
            without = joint_training_loss(prov, ages, loss, False)
            weighted = sum(
                p * min_training_loss(prov, v, loss) for v, p in zip(ages.vectors, ages.probs)
            )
            assert abs(with_age - weighted) <= 1e-10
            assert without >= with_age - 1e-10
    # shipped seed with a visible age-feature gap
    gap_prov = ExactLawProvider(
        make_hidden_nonmarkov(13, n_states=4, n_sources=1, n_symbols=2, n_targets=2,
                              noise=0.3, concentration=0.5)
    )
    gap_ages = AgeDistribution.uniform([(0,), (1,), (2,), (3,)])
    gap = joint_training_loss(gap_prov, gap_ages, log_loss(), False) - joint_training_loss(
        gap_prov, gap_ages, log_loss(), True
    )
    assert gap > 0.01
    _report(4, f"pooled-age identity and inequality on 30 instances; "
               f"age-feature gap at shipped seed = {gap:.4f}")


def _coupled_ordered_pair(rng, m):
    size = int(rng.integers(1, 4))
    base = [tuple(int(v) for v in rng.integers(0, 3, size=m)) for _ in range(size)]
    upper = [tuple(int(v + rng.integers(0, 3)) for v in vec) for vec in base]
    probs = rng.random(size) + 0.1
    probs /= probs.sum()
    low, high = {}, {}
    for vec, uvec, pr in zip(base, upper, probs):
        low[vec] = low.get(vec, 0.0) + pr
        high[uvec] = high.get(uvec, 0.0) + pr
    return AgeDistribution.from_mapping(low), AgeDistribution.from_mapping(high)


def test_05_ordered_ages_markov_and_violation_scaling():
    rng = np.random.default_rng(55)
    worst = -np.inf
    for trial in range(30):
        m = 1 if trial % 2 == 0 else 2
        model = make_markov_observable(3000 + trial, n_states=3, n_sources=m, n_targets=2)
        prov = ExactLawProvider(model)
        ages_c, ages_d = _coupled_ordered_pair(rng, m)
        assert stochastic_order_multivariate(ages_c, ages_d).holds
        loss_c = joint_training_loss(prov, ages_c, log_loss(), True)
        loss_d = joint_training_loss(prov, ages_d, log_loss(), True)
        worst = max(worst, loss_c - loss_d)
        assert loss_c <= loss_d + 1e-9
    # shipped mixture instance: violations shrink like epsilon^2
    strong = make_hidden_nonmarkov(507, n_states=5, n_sources=1, n_symbols=2, n_targets=3,
                                   noise=0.15, concentration=0.25)
    markov = make_markov_observable(907, n_states=2, n_sources=1, n_targets=3)
    ages_c = AgeDistribution.point_mass((1,))
    ages_d = AgeDistribution.point_mass((2,))
    points = []
    for eta in ETAS:
        mix = mix_toward_markov(strong, markov, eta)
        lc = joint_training_loss(mix, ages_c, log_loss(), True)
        ld = joint_training_loss(mix, ages_d, log_loss(), True)
        eps = epsilon_coefficient(mix, 2, 2).epsilon
        points.append((eps, max(0.0, lc - ld)))
    nonzero = [(e, v) for e, v in points if v > 1e-15]
    assert len(nonzero) >= 2
    slope = loglog_slope([e for e, _ in nonzero], [v for _, v in nonzero])
    assert slope >= 1.7
    _report(5, f"ordered-age comparison: max violation at epsilon=0 is {worst:.2e} "
               f"over 30 instances; sweep violations fit slope {slope:.2f} "
               f"on {len(nonzero)} nonzero points")


def test_06_testing_gap_scales_with_beta():
    train = ExactLawProvider(
        make_hidden_nonmarkov(31, n_states=4, n_sources=1, n_symbols=2, n_targets=2, noise=0.3)
    )
    other = ExactLawProvider(
        make_hidden_nonmarkov(77, n_states=4, n_sources=1, n_symbols=2, n_targets=2, noise=0.6)
    )
    ages = AgeDistribution.uniform([(0,), (1,), (2,)])
    training = joint_training_loss(train, ages, log_loss(), True)
    betas, gaps = [], []
    for eta in ETAS:
        mix = MixtureLawProvider(base=train, other=other, eta=eta)
        betas.append(beta_between(dynamic_joint(train, ages), dynamic_joint(mix, ages)).beta)
        gaps.append(abs(eval_testing_loss(train, mix, ages, log_loss()) - training))
    slope = loglog_slope(betas, gaps)
    assert slope >= 0.8
    mix0 = MixtureLawProvider(base=train, other=other, eta=0.0)
    eq_gap = abs(eval_testing_loss(train, mix0, ages, log_loss()) - training)
    assert eq_gap <= 1e-12
    _report(6, f"testing-vs-training gap fits slope {slope:.3f} against beta; "
               f"gap at beta=0 is {eq_gap:.1e}")


def test_07_order_checker_agrees_with_enumeration():
    rng = np.random.default_rng(7000)
    disagreements = 0
    for trial in range(200):
        m = int(rng.integers(1, 4))
        if trial % 2 == 0:
            pool = list(itertools.product(range(4), repeat=m))
            size_p = int(rng.integers(1, min(6, len(pool) + 1)))
            size_q = int(rng.integers(1, min(11 - size_p, len(pool) + 1)))
            vecs_p = [pool[i] for i in rng.choice(len(pool), size=size_p, replace=False)]
            vecs_q = [pool[i] for i in rng.choice(len(pool), size=size_q, replace=False)]
            pp = rng.random(size_p) + 0.05
            qq = rng.random(size_q) + 0.05
            p = AgeDistribution(tuple(sorted(vecs_p)), pp / pp.sum())
            q = AgeDistribution(tuple(sorted(vecs_q)), qq / qq.sum())
        else:
            p, q = _coupled_ordered_pair(rng, m)
        got = stochastic_order_multivariate(p, q).holds
        want = stochastic_order_upper_sets(p, q)
        if got != want:
            disagreements += 1
    assert disagreements == 0
    _report(7, "coupling-feasibility verdict matched upper-set enumeration on "
               "200 random pairs (0 disagreements)")


def test_08_aoi_sawtooth_and_unit_increments():
    trace = DeliveryTrace((((0, 1), (3, 5)),))
    ages = age_process(trace, 7)
    assert ages.ages[0].tolist() == [SENTINEL, 1, 2, 3, 4, 2, 3]
    rng = np.random.default_rng(808)
    for _ in range(200):
        horizon = 25
        gens = np.sort(rng.integers(0, horizon, size=6))
        delays = rng.integers(0, 5, size=6)
        trace = DeliveryTrace(
            (tuple((int(g), int(g + d)) for g, d in zip(gens, delays)),)
        )
        ap = age_process(trace, horizon)
        deliveries = {d for _, d in trace.events[0]}
        for t in range(1, horizon):
            prev, cur = ap.ages[0, t - 1], ap.ages[0, t]
            if cur != SENTINEL and prev != SENTINEL and t not in deliveries:
                assert cur == prev + 1
    _report(8, "sawtooth trace reproduced exactly; unit-increment invariant held "
               "on 200 random traces")


def test_09_nonmonotone_curve_monotonizes_with_window():
    t0 = time.time()
    model = make_hidden_nonmarkov(
        7, n_states=5, n_sources=1, n_symbols=2, n_targets=3, noise=0.15, concentration=0.25
    )
    grid = [(d,) for d in range(6)]
    index = {}
    for b in (1, 2, 3):
        prov = ExactLawProvider(model.with_window(b))
        index[b] = loss_curve(prov, grid, log_loss()).nonmonotonicity_index
    dt = time.time() - t0
    assert index[1] > 0.005
    assert index[1] >= index[2] >= index[3]
    assert index[3] <= 0.2 * index[1]
    assert dt <= 300.0
    _report(9, f"loss curve drops fade with window length: index "
               f"b1={index[1]:.4f}, b2={index[2]:.4f}, b3={index[3]:.4f} ({dt:.1f}s)")


def test_10_empirical_laws_converge():
    model = make_hidden_nonmarkov(
        21, n_states=4, n_sources=2, n_symbols=2, n_targets=2, noise=0.4, concentration=3.0
    )
    prov = ExactLawProvider(model)
    exact = prov.window_law([("y", 0), ("x1", 1), ("x2", 1)]).law
    spaces = {"x1": model.feature_space(1), "x2": model.feature_space(2), "y": model.target_space}
    from aof_lab import chi2_divergence

    divergences = []
    n_windows = {}
    for length in (1_000, 10_000, 100_000):
        ds = sample_trajectory(model, length, seed=5)
        emp = empirical_window_law(ds, [("y", 0), ("x1", 1), ("x2", 1)], spaces=spaces)
        divergences.append(chi2_divergence(emp.law, exact))
        n_windows[length] = emp.meta["n_windows"]
    cells = exact.probs.size
    bound = (cells - 1 + 3 * np.sqrt(2 * (cells - 1))) / n_windows[100_000]
    assert divergences[2] <= bound
    assert divergences[0] > divergences[1] > divergences[2]
    _report(10, f"empirical window laws converge: chi2 = "
                f"{divergences[0]:.1e} > {divergences[1]:.1e} > {divergences[2]:.1e} "
                f"(3-sigma bound {bound:.1e})")


def test_11_closed_form_cross_checks():
    rng = np.random.default_rng(1111)
    for _ in range(100):
        size = int(rng.integers(2, 7))
        space = OutcomeSpace(tuple(range(size)))
        p = random_pmf(rng, space, floor=0.01)
        shannon = -float(np.sum(p.probs * np.log(p.probs)))
        assert abs(entropy(p, log_loss()) - shannon) <= 1e-10
        levels = np.asarray(space.labels, dtype=float)
        mu = float(p.probs @ levels)
        var = float(p.probs @ (levels - mu) ** 2)
        assert abs(entropy(p, quadratic_loss()) - var) <= 1e-10
    # per-cell exhaustive search agrees on instances up to 64 feature cells
    from oracles import random_joint

    checked = 0
    for shape in ((4, 4, 2), (8, 8, 3), (64, 2), (4, 4, 4, 3)):
        names = [f"x{i + 1}" for i in range(len(shape) - 1)] + ["y"]
        variables = [(n, OutcomeSpace(tuple(range(k)))) for n, k in zip(names, shape)]
        joint = random_joint(rng, variables)
        x_cells = int(np.prod(shape[:-1]))
        assert x_cells <= 64
        given = names[:-1]
        for loss in (log_loss(), quadratic_loss(), zero_one_loss()):
            got = conditional_entropy(joint, "y", given, loss)
            extra = [Pmf.uniform(joint.space("y"))] if loss.kind == "logarithmic" else [0.0, 1.0]
            want = per_cell_bayes_search(joint, "y", given, loss, extra_actions=extra)
            assert abs(got - want) <= 1e-10
            checked += 1
    _report(11, f"closed forms match Shannon/variance identities on 100 draws; "
                f"per-cell search agreed on {checked} joint instances")
