import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aof_lab import (
    AgeDistribution,
    AgeProcess,
    DeliveryTrace,
    Pmf,
    age_process,
    empirical_age_distribution,
    sample_path_dominates,
    stochastic_order_multivariate,
    stochastic_order_univariate,
)
from aof_lab import aoi
from aof_lab.aoi import SENTINEL
from aof_lab.errors import AofLabError, IncompatibleSpaceError, WarmupError
from aof_lab.laws import DEFAULT_MAX_CELLS

from oracles import (
    max_transport_by_single_paths,
    max_upper_set_violation,
    stochastic_order_upper_sets,
    trace_fault_by_events,
)


def test_sawtooth_trace():
    trace = DeliveryTrace((((0, 1), (3, 5)),))
    ap = age_process(trace, 7)
    assert ap.ages[0].tolist() == [SENTINEL, 1, 2, 3, 4, 2, 3]


def test_instant_delivery_is_always_fresh():
    trace = DeliveryTrace((tuple((i, i) for i in range(6)),))
    ap = age_process(trace, 6)
    assert ap.ages[0].tolist() == [0] * 6


def test_single_event_grows_by_one():
    trace = DeliveryTrace((((0, 0),),))
    assert age_process(trace, 4).ages[0].tolist() == [0, 1, 2, 3]


def test_trace_invariants_enforced():
    with pytest.raises(AofLabError):
        DeliveryTrace((((3, 2),),))  # delivery before generation
    with pytest.raises(AofLabError):
        DeliveryTrace((((3, 4), (1, 5)),))  # generations out of order



def test_delivery_traces_compare_and_hash_by_their_events():
    a = DeliveryTrace((((0, 1), (3, 5)), ((2, 2),)))
    b = DeliveryTrace((((0, 1), (3, 5)), ((2, 2),)))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != DeliveryTrace((((0, 1), (3, 5)),))  # fewer sources
    assert a != DeliveryTrace((((0, 1), (3, 6)), ((2, 2),)))
    assert a != a.events and a.__eq__(a.events) is NotImplemented

@given(st.lists(st.lists(st.tuples(st.integers(-3, 6), st.integers(-3, 6)), max_size=5), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_trace_checks_name_the_first_faulty_event(events):
    want = trace_fault_by_events(events)
    if want is not None:
        with pytest.raises(AofLabError) as err:
            DeliveryTrace(events)
        assert str(err.value) == want
    else:
        trace = DeliveryTrace(events)
        assert trace.events == tuple(tuple(src) for src in events)
        assert all(type(v) is int for src in trace.events for pair in src for v in pair)


@pytest.mark.parametrize("source_id", [9223372036854775807, 10**9])
def test_trace_source_id_beyond_the_cell_cap_names_the_line(tmp_path, source_id):
    path = tmp_path / "trace.csv"
    path.write_text(f"source_id,G,D\n1,0,1\n{source_id},2,3\n")
    with pytest.raises(AofLabError) as err:
        DeliveryTrace.from_csv(path)
    assert str(err.value) == (f"{path}, line 3, column 'source_id': "
                              f"{source_id} sources x 4 slots is over {DEFAULT_MAX_CELLS} age cells")


def test_trace_source_cap_counts_the_slots_through_the_last_delivery(tmp_path):
    slots = DEFAULT_MAX_CELLS // 2
    path = tmp_path / "trace.csv"
    path.write_text(f"source_id,G,D\n2,0,{slots - 1}\n")
    assert DeliveryTrace.from_csv(path).m == 2
    path.write_text(f"source_id,G,D\n1,0,1\n3,0,{slots - 1}\n")
    with pytest.raises(AofLabError, match=f"line 3, column 'source_id': 3 sources x {slots} slots is over"):
        DeliveryTrace.from_csv(path)


@pytest.mark.parametrize("ages,bad", [
    ([[0.5, 1.9]], "0.5"),
    (np.array([[0.0, 1.5]]), "1.5"),
    ([[0, True]], "True"),
    ([[0, 2**63]], str(2**63)),
    (np.array([[0, 2**63]], dtype=np.uint64), str(2**63)),
    ([[0, float("inf")]], "inf"),
])
def test_age_process_refuses_ages_that_are_not_whole(ages, bad):
    # [[0.5, 1.9]] used to be held as [[0, 1]]
    with pytest.raises(AofLabError, match=rf"^ages must be whole numbers in the int64 range, got {bad}$"):
        AgeProcess(ages)
    assert AgeProcess([[0.0, 1.0]]).ages.tolist() == [[0, 1]]


@pytest.mark.parametrize("events,source,bad", [
    ([[(0.5, 1)]], 1, "0.5"),
    ([[(0, 1)], [(1, 2.5)]], 2, "2.5"),
    ([np.array([[0.0, 1.25]])], 1, "1.25"),
    ([[(0, True)]], 1, "True"),
    ([[(0, 2**63)]], 1, str(2**63)),
    ([[(float("nan"), 1)]], 1, "nan"),
])
def test_delivery_trace_refuses_pairs_that_are_not_whole(events, source, bad):
    field = f"source {source} pairs"
    with pytest.raises(AofLabError, match=rf"^{field} must be whole numbers in the int64 range, got {bad}$"):
        DeliveryTrace(events)
    assert DeliveryTrace([[(0.0, 1.0)]]) == DeliveryTrace([[(0, 1)]])


def test_age_process_rejects_a_horizon_beyond_the_cell_cap():
    trace = DeliveryTrace((((0, 1),), ((2, 2),)))
    horizon = DEFAULT_MAX_CELLS // 2 + 1
    with pytest.raises(AofLabError) as err:
        age_process(trace, horizon)
    assert str(err.value) == f"2 sources x horizon {horizon} is over {DEFAULT_MAX_CELLS} age cells"


def test_age_csv_write_peaks_below_eight_times_its_bytes(tmp_path):
    # a 30k-slot, 2-source path: each block of rows is assembled as one byte
    # matrix, so besides the text only block-sized arrays are live
    rng = np.random.default_rng(3)
    events = []
    for rate in (0.2, 0.25):
        g = np.cumsum(rng.geometric(rate, size=8000)) - 1
        g = g[g < 30_000]
        events.append(np.stack([g, g + rng.integers(0, 9, size=len(g))], axis=1))
    ages = age_process(DeliveryTrace(events), 30_000)
    path = tmp_path / "ages.csv"
    tracemalloc.start()
    try:
        ages.to_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * path.stat().st_size


def _random_trace(rng, n_events, horizon):
    gens = np.sort(rng.integers(0, horizon, size=n_events))
    delays = rng.integers(0, 4, size=n_events)
    return tuple((int(g), int(g + d)) for g, d in zip(gens, delays))


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_unit_increment_between_deliveries(seed):
    rng = np.random.default_rng(seed)
    horizon = 20
    trace = DeliveryTrace((_random_trace(rng, 5, horizon), _random_trace(rng, 3, horizon)))
    ap = age_process(trace, horizon)
    deliveries = [{d for _, d in src} for src in trace.events]
    for l in range(ap.m):
        for t in range(1, horizon):
            prev, cur = ap.ages[l, t - 1], ap.ages[l, t]
            if cur == SENTINEL:
                assert prev == SENTINEL
            elif t not in deliveries[l]:
                if prev != SENTINEL:
                    assert cur == prev + 1
            else:
                assert cur <= (prev + 1 if prev != SENTINEL else cur)


def test_empirical_age_distribution_counts():
    trace = DeliveryTrace((((0, 1), (3, 5)),))
    ap = age_process(trace, 7)
    with pytest.raises(WarmupError):
        empirical_age_distribution(ap)
    dist = empirical_age_distribution(ap, start=1)
    # slot census of [1,2,3,4,2,3]
    assert dist.vectors == ((1,), (2,), (3,), (4,))
    assert np.allclose(dist.probs, [1 / 6, 2 / 6, 2 / 6, 1 / 6])


def test_constant_and_alternating_age_distributions():
    ages = AgeProcess(np.array([[1, 1, 1], [2, 2, 2]]))
    d = empirical_age_distribution(ages)
    assert d.vectors == ((1, 2),) and d.probs[0] == 1.0
    alt = AgeProcess(np.array([[1, 2, 1, 2], [1, 2, 1, 2]]))
    d2 = empirical_age_distribution(alt)
    assert d2.vectors == ((1, 1), (2, 2))
    assert np.allclose(d2.probs, [0.5, 0.5])


def test_sample_path_dominance():
    a = AgeProcess(np.array([[1, 2, 3]]))
    b = AgeProcess(np.array([[1, 2, 3]]))
    assert sample_path_dominates(a, b)
    c = AgeProcess(np.array([[2, 3, 4]]))
    assert sample_path_dominates(a, c)
    assert not sample_path_dominates(c, a)
    crossing = AgeProcess(np.array([[0, 5, 0]]))
    assert not sample_path_dominates(a, crossing)
    assert not sample_path_dominates(crossing, a)
    with pytest.raises(IncompatibleSpaceError):
        sample_path_dominates(a, AgeProcess(np.array([[1, 2]])))


def test_univariate_order():
    one = Pmf.from_mapping({1: 1.0})
    two = Pmf.from_mapping({2: 1.0})
    assert stochastic_order_univariate(one, two)
    assert not stochastic_order_univariate(two, one)
    u01 = Pmf.from_mapping({0: 0.5, 1: 0.5})
    u12 = Pmf.from_mapping({1: 0.5, 2: 0.5})
    assert stochastic_order_univariate(u01, u12)
    spread = Pmf.from_mapping({0: 0.5, 3: 0.5})
    assert not stochastic_order_univariate(spread, two)  # tail at 2: 0.5 > 0


def test_multivariate_point_masses():
    assert stochastic_order_multivariate(
        AgeDistribution.point_mass((1, 1)), AgeDistribution.point_mass((2, 3))
    ).holds
    verdict = stochastic_order_multivariate(
        AgeDistribution.point_mass((1, 3)), AgeDistribution.point_mass((2, 2))
    )
    assert not verdict.holds
    w = verdict.witness
    assert w is not None
    assert w.p_mass > w.q_mass
    assert w.contains((1, 3)) and not w.contains((2, 2))


def _random_age_dist(rng, m, size):
    vecs = set()
    while len(vecs) < size:
        vecs.add(tuple(int(v) for v in rng.integers(0, 5, size=m)))
    vecs = tuple(sorted(vecs))
    probs = rng.random(len(vecs)) + 0.05
    return AgeDistribution(vecs, probs / probs.sum())


def _coupled_ordered_pair(rng, m, size):
    base = [tuple(int(v) for v in rng.integers(0, 4, size=m)) for _ in range(size)]
    upper = [tuple(int(v + rng.integers(0, 3)) for v in vec) for vec in base]
    probs = rng.random(size) + 0.05
    probs /= probs.sum()
    low, high = {}, {}
    for vec, uvec, pr in zip(base, upper, probs):
        low[vec] = low.get(vec, 0.0) + pr
        high[uvec] = high.get(uvec, 0.0) + pr
    return AgeDistribution.from_mapping(low), AgeDistribution.from_mapping(high)


def test_flow_verdict_agrees_with_upper_set_enumeration():
    rng = np.random.default_rng(100)
    checked = agree = 0
    for trial in range(120):
        m = int(rng.integers(1, 4))
        if trial % 2 == 0:
            p = _random_age_dist(rng, m, int(rng.integers(1, 5)))
            q = _random_age_dist(rng, m, int(rng.integers(1, 5)))
        else:
            p, q = _coupled_ordered_pair(rng, m, int(rng.integers(1, 4)))
        want = stochastic_order_upper_sets(p, q)
        got = stochastic_order_multivariate(p, q)
        assert got.holds == want
        if not got.holds:
            w = got.witness
            assert w.p_mass > w.q_mass + 1e-12
        checked += 1
        agree += got.holds == want
    assert checked == agree == 120


def _permuted(dist, order):
    return AgeDistribution(tuple(dist.vectors[i] for i in order), dist.probs[order])


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_flow_witness_is_the_maximum_violation(seed, m, size):
    rng = np.random.default_rng(seed)
    pool = sorted({tuple(int(v) for v in rng.integers(0, 4, size=m)) for _ in range(size)})
    side = rng.integers(0, 3, size=len(pool))  # 0: p only, 1: q only, 2: both
    in_p, in_q = side != 1, side != 0
    in_p[0] = in_q[-1] = True
    dists = []
    for mask in (in_p, in_q):
        probs = rng.random(int(mask.sum())) + 0.05
        dists.append(AgeDistribution(tuple(v for v, keep in zip(pool, mask) if keep), probs / probs.sum()))
    p, q = dists
    got = stochastic_order_multivariate(p, q)
    assert got.holds == stochastic_order_upper_sets(p, q)
    if not got.holds:
        w = got.witness
        assert set(w.generators) <= set(p.vectors)
        assert w.p_mass == pytest.approx(sum(pr for v, pr in zip(p.vectors, p.probs) if w.contains(v)), abs=1e-15)
        assert w.q_mass == pytest.approx(sum(qr for v, qr in zip(q.vectors, q.probs) if w.contains(v)), abs=1e-15)
        assert abs((w.p_mass - w.q_mass) - max_upper_set_violation(p, q)) <= 1e-12
    again = stochastic_order_multivariate(
        _permuted(p, rng.permutation(len(p.vectors))), _permuted(q, rng.permutation(len(q.vectors)))
    )
    assert again == got


def _bench_shaped_support(rng, n=200, box=40):
    flat = rng.choice(box * box, size=n, replace=False)
    return tuple(map(tuple, np.stack(np.unravel_index(flat, (box, box)), axis=1).tolist()))


def test_witness_is_identical_under_support_permutation():
    fixed = np.random.default_rng(20210301)
    pts, pts_a, pts_b = (_bench_shaped_support(fixed) for _ in range(3))
    rng = np.random.default_rng(7)
    alpha = np.full(200, 20.0)
    probs = rng.dirichlet(alpha)
    hold_a = AgeDistribution(pts, probs)
    hold_b = AgeDistribution(tuple((x + 1, y + 2) for x, y in pts), probs)
    fail_a = AgeDistribution(pts_a, rng.dirichlet(alpha))
    fail_b = AgeDistribution(pts_b, rng.dirichlet(alpha))
    assert stochastic_order_multivariate(hold_a, hold_b).holds
    verdict = stochastic_order_multivariate(fail_a, fail_b)
    assert not verdict.holds
    w = verdict.witness
    # no one-coordinate upper set {v_c > x} violates more than the witness
    for c in range(2):
        for x in range(40):
            pm = sum(pr for v, pr in zip(fail_a.vectors, fail_a.probs) if v[c] > x)
            qm = sum(qr for v, qr in zip(fail_b.vectors, fail_b.probs) if v[c] > x)
            assert pm - qm <= w.p_mass - w.q_mass + 1e-12
    for _ in range(3):
        again = stochastic_order_multivariate(
            _permuted(fail_a, rng.permutation(200)), _permuted(fail_b, rng.permutation(200))
        )
        assert again == verdict


def test_order_check_rejects_supports_beyond_the_cell_cap():
    side = math.isqrt(DEFAULT_MAX_CELLS)
    assert side * side == DEFAULT_MAX_CELLS
    low = AgeDistribution.uniform((v,) for v in range(side))
    assert stochastic_order_multivariate(low, AgeDistribution.uniform((v + 1,) for v in range(side))).holds
    with pytest.raises(AofLabError) as err:
        stochastic_order_multivariate(low, AgeDistribution.uniform((v,) for v in range(side + 1)))
    assert str(err.value) == f"{side} x {side + 1} support points is over {DEFAULT_MAX_CELLS} transport cells"


@st.composite
def _transport_problems(draw):
    """Supply and demand masses over 1-3-D supports of up to 300 points and
    their dominance matrix: shift-coupled (holding), independent (mostly
    failing), identical, or single-point pairs, some points with no mass."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, kind = draw(st.integers(1, 3)), draw(st.sampled_from(["independent", "shift", "same", "single"]))
    n_p, n_q = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    if kind == "single":
        n_p, n_q = (1, n_q) if draw(st.booleans()) else (n_p, 1)
    box = int(np.ceil((2 * max(n_p, n_q)) ** (1 / m))) + 1

    def support(n):
        return np.stack(np.unravel_index(rng.choice(box**m, size=n, replace=False), (box,) * m), axis=1)

    def masses(n):
        raw = rng.dirichlet(np.full(n, 5.0)) * (rng.random(n) >= draw(st.sampled_from([0.0, 0.3])))
        raw[rng.integers(n)] += 1.0 / n
        return raw / raw.sum()

    vp, supply = support(n_p), masses(n_p)
    if kind == "shift":
        moved = {}
        for vec, mass in zip(map(tuple, (vp + rng.integers(0, 3, size=vp.shape)).tolist()), supply):
            moved[vec] = moved.get(vec, 0.0) + mass
        vq, demand = np.array(list(moved)), np.array(list(moved.values()))
    elif kind == "same":
        vq, demand = vp, supply
    else:
        vq, demand = support(n_q), masses(n_q)
    return supply, demand, aoi._dominance(vp, vq)


@given(_transport_problems())
@settings(max_examples=120, deadline=None)
def test_warm_started_transport_equals_single_path_augmentation(problem):
    supply, demand, allowed = problem
    total, reached = aoi._max_transport(supply, demand, allowed)
    want_total, want_reached = max_transport_by_single_paths(supply, demand, allowed)
    assert abs(total - want_total) <= 1e-12
    np.testing.assert_array_equal(reached, want_reached)


def test_warm_started_verdict_equals_single_path_verdict_on_a_large_failing_pair(monkeypatch):
    fixed = np.random.default_rng(20210301)
    rng = np.random.default_rng(13)
    fail_a, fail_b = (AgeDistribution(_bench_shaped_support(fixed, n=500), rng.dirichlet(np.full(500, 20.0)))
                      for _ in range(2))
    verdict = stochastic_order_multivariate(fail_a, fail_b)
    assert not verdict.holds
    monkeypatch.setattr(aoi, "_max_transport", max_transport_by_single_paths)
    assert stochastic_order_multivariate(fail_a, fail_b) == verdict


def test_pathwise_coupling_implies_stochastic_order():
    rng = np.random.default_rng(7)
    for seed in range(10):
        r = np.random.default_rng(seed)
        base = np.abs(np.cumsum(r.integers(-1, 2, size=(2, 15)), axis=1) % 5)
        a = AgeProcess(base)
        b = AgeProcess(base + r.integers(0, 3, size=base.shape))
        assert sample_path_dominates(a, b)
        da = empirical_age_distribution(a)
        db = empirical_age_distribution(b)
        assert stochastic_order_multivariate(da, db).holds


def test_ordering_reflexive_and_transitive():
    rng = np.random.default_rng(8)
    dists = [_random_age_dist(rng, 2, 3) for _ in range(6)]
    for d in dists:
        assert stochastic_order_multivariate(d, d).holds
    for a in dists:
        for b in dists:
            for c in dists:
                ab = stochastic_order_multivariate(a, b).holds
                bc = stochastic_order_multivariate(b, c).holds
                if ab and bc:
                    assert stochastic_order_multivariate(a, c).holds


def test_age_process_csv_roundtrip(tmp_path):
    trace = DeliveryTrace((((0, 1), (3, 5)), ((0, 0),)))
    ap = age_process(trace, 7)
    path = tmp_path / "ages.csv"
    ap.to_csv(path)
    back = AgeProcess.from_csv(path)
    assert np.array_equal(back.ages, ap.ages)
    text = path.read_text().splitlines()
    assert text[0] == "t,age_1,age_2"
    assert text[1] == "0,,0"  # sentinel rendered as empty cell


@pytest.mark.parametrize("text,needles", [
    ("t,age_1\n0,1,2\n", ["line 2", "3 cells, want 2"]),  # ragged row
    ("t,age_1,age_2\n0,1,\n1,2\n", ["line 3", "2 cells, want 3"]),
    ("t,age_1\n0,1\n1,x\n", ["line 3", "'age_1'", "'x'"]),  # non-integer age
    ("t,age_1\n0,1\n1,1.5\n", ["line 3", "'age_1'", "'1.5'"]),
    ("t,age_1\n0,1\n2,1\n", ["line 3", "'t'", "not slot 1"]),  # t is not the row's slot
    ("t,age_1\n0,1\nz,1\n", ["line 3", "'t'", "'z'"]),
    ("", ["line 1", "header"]),  # empty file
    ("t\n0\n", ["line 1", "header"]),  # no age column
    ("t,age_2\n0,1\n", ["line 1", "header"]),
    ("t,age_1\n", ["no data rows"]),
])
def test_age_process_csv_rejects_malformed_input(tmp_path, text, needles):
    path = tmp_path / "ages.csv"
    path.write_text(text)
    with pytest.raises(AofLabError) as err:
        AgeProcess.from_csv(path)
    for needle in [str(path), *needles]:
        assert needle in str(err.value)


def test_trace_csv_roundtrip(tmp_path):
    trace = DeliveryTrace((((0, 1), (3, 5)), ((2, 2),)))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert DeliveryTrace.from_csv(path).events == trace.events


def test_trace_source_ids_are_one_based_indices(tmp_path):
    trace = DeliveryTrace(((), ((0, 1), (2, 3))))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert path.read_text().splitlines()[1:] == ["2,0,1", "2,2,3"]
    back = DeliveryTrace.from_csv(path)
    assert back.m == 2 and back.events == trace.events
    assert age_process(back, 4).ages[0].tolist() == [SENTINEL] * 4  # the empty source never delivers


@pytest.mark.parametrize("cell", ["0", "-3"])
def test_trace_source_id_below_one_names_the_line(tmp_path, cell):
    path = tmp_path / "trace.csv"
    path.write_text(f"source_id,G,D\n1,0,1\n{cell},2,3\n")
    with pytest.raises(AofLabError) as err:
        DeliveryTrace.from_csv(path)
    assert str(err.value) == f"{path}, line 3, column 'source_id': {cell} is below 1"


@pytest.mark.parametrize("vectors,probs,message", [
    (((0,), (1,)), [float("nan"), 1.0], "finite"),
    (((0,), (1,)), [float("inf"), 0.0], "finite"),
    (((0.9,), (1.5,)), [0.5, 0.5], "integers, got 0.9"),
    (((0, 1), (1, float("nan"))), [0.5, 0.5], "integers, got nan"),
    (((0,), ("1",)), [0.5, 0.5], "integers, got '1'"),
    (((True, 0), (0, 1)), [0.5, 0.5], "integers, got True"),
])
def test_age_distribution_rejects_non_finite_probs_and_fractional_ages(vectors, probs, message):
    with pytest.raises(AofLabError, match=message):
        AgeDistribution(vectors, probs)


@pytest.mark.parametrize("vectors,message", [
    (((0, 1), (1, 2, 3), (4,)), "age vectors have inconsistent dimension: (1, 2, 3) has 3 components, (0, 1) has 2"),
    (((0, 1), (1, -2), (-1, 0)), "age components must be nonnegative, got (1, -2)"),
    (((0, 1), (2, 2), (0, 1), (2, 2)), "age vectors must be distinct, got (0, 1) twice"),
    (((),), "age vectors need at least one component, got ()"),
], ids=["dimension", "negative", "repeated", "zero-dimensional"])
def test_age_distribution_errors_name_the_first_offending_vector(vectors, message):
    with pytest.raises(AofLabError) as err:
        AgeDistribution(vectors, np.full(len(vectors), 1 / len(vectors)))
    assert str(err.value) == message



def test_age_distribution_probs_of_the_wrong_length_give_both_shapes():
    with pytest.raises(AofLabError) as err:
        AgeDistribution(((0,), (1,)), [1.0])
    assert str(err.value) == "probs must have shape (2,), one per age vector, got (1,)"


@pytest.mark.parametrize("shape", [(2, 0), (3,), (1, 2, 3)])
def test_age_process_of_the_wrong_shape_gives_the_shape(shape):
    with pytest.raises(AofLabError) as err:
        AgeProcess(np.zeros(shape, dtype=np.int64))
    assert str(err.value) == f"ages must be a (sources, horizon) array with horizon >= 1, got shape {shape}"

def test_age_distribution_keeps_whole_float_and_numpy_components():
    dist = AgeDistribution(((np.int64(1), 2.0), (0, 3)), [0.25, 0.75])
    assert dist.vectors == ((1, 2), (0, 3))
    assert all(type(v) is int for vec in dist.vectors for v in vec)


def test_ages_below_the_sentinel_are_rejected(tmp_path):
    assert AgeProcess(np.array([[SENTINEL, 0, 4]])).has_sentinel()
    with pytest.raises(AofLabError, match="nonnegative"):
        AgeProcess(np.array([[SENTINEL - 1, 0, 4]]))
    path = tmp_path / "ages.csv"
    for cell in ("-1", "-5"):  # only an empty cell is the sentinel
        path.write_text(f"t,age_1,age_2\n0,,1\n1,2,{cell}\n")
        with pytest.raises(AofLabError) as err:
            AgeProcess.from_csv(path)
        assert str(err.value) == f"{path}, line 3, column 'age_2': {cell!r} is not a nonnegative integer or empty"


@st.composite
def _traces(draw):
    """Traces whose last source delivers (the CSV holds no row for a source
    past the largest id); earlier sources may be empty, and deliveries may
    come out of generation order."""
    m = draw(st.integers(1, 3))
    sources = []
    for l in range(m):
        n = draw(st.integers(1 if l == m - 1 else 0, 5))
        gens = sorted(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)))
        sources.append(tuple((g, g + draw(st.integers(0, 6))) for g in gens))
    return DeliveryTrace(tuple(sources))


@given(trace=_traces(), horizon=st.integers(1, 20))
@example(trace=DeliveryTrace(((), ((3, 7), (4, 5)))), horizon=9)
@settings(max_examples=80, deadline=None)
def test_trace_and_age_csvs_round_trip(tmp_path_factory, trace, horizon):
    root = tmp_path_factory.mktemp("csv")
    trace.to_csv(root / "trace.csv")
    assert DeliveryTrace.from_csv(root / "trace.csv").events == trace.events
    ages = age_process(trace, horizon)
    ages.to_csv(root / "ages.csv")
    assert np.array_equal(AgeProcess.from_csv(root / "ages.csv").ages, ages.ages)


def test_age_distribution_json_roundtrip(tmp_path):
    d = AgeDistribution.uniform([(0, 1), (2, 2)])
    path = tmp_path / "ages.json"
    d.save(path)
    back = AgeDistribution.load(path)
    assert back.vectors == d.vectors
    assert np.allclose(back.probs, d.probs)


def test_univariate_ordering_reflexive_and_transitive():
    rng = np.random.default_rng(9)
    from aof_lab import OutcomeSpace

    space = OutcomeSpace(tuple(range(5)))
    pmfs = []
    for _ in range(5):
        raw = rng.random(5) + 0.02
        pmfs.append(Pmf(space, raw / raw.sum()))
    for p in pmfs:
        assert stochastic_order_univariate(p, p)
    for a in pmfs:
        for b in pmfs:
            for c in pmfs:
                if stochastic_order_univariate(a, b) and stochastic_order_univariate(b, c):
                    assert stochastic_order_univariate(a, c)


def test_constructors_freeze_a_copy_and_leave_the_callers_arrays_writable():
    ages = np.array([[1, 2, 3], [0, 1, 2]], dtype=np.int64)
    probs = np.array([0.25, 0.75])
    process = AgeProcess(ages)
    dist = AgeDistribution(((0, 1), (1, 0)), probs)
    ages[0, 0] = 9
    probs[0] = 0.5
    assert process.ages.tolist() == [[1, 2, 3], [0, 1, 2]]
    assert dist.probs.tolist() == [0.25, 0.75]
    assert not process.ages.flags.writeable and not dist.probs.flags.writeable
