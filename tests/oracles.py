"""Independent brute-force oracles used to pin expected values in tests.

Everything here is deliberately written as plain loops over cells, separate
from the vectorized production code paths.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math

import numpy as np

from aof_lab import AgeDistribution, Dataset, JointPmf, OutcomeSpace, Pmf, WindowLaw, bayes_action, expected_loss
from aof_lab.aoi import RESIDUAL_ATOL
from aof_lab.laws import canonical_requests, variable_name


def enumerate_decision_rules(joint: JointPmf, target: str, given, loss) -> float:
    """Minimize expected loss over decision functions by full enumeration.

    The action space must be finite (finite-table or zero-one losses).  This
    checks the interchange of sum and min that justifies per-cell training.
    """
    given = [n for n in joint.names if n in set(given)]
    sub = joint.arrange([*given, target])
    y_space = joint.space(target)
    rows = sub.probs.reshape(-1, len(y_space))
    if loss.kind == "zero-one":
        actions = list(y_space.labels)

        def cell_loss(row, a):
            return row.sum() - row[y_space.index(a)]

    else:
        actions = list(loss.actions)
        table = loss.aligned_table(y_space)

        def cell_loss(row, a):
            return float(row @ table[:, actions.index(a)])

    best = math.inf
    for rule in itertools.product(actions, repeat=rows.shape[0]):
        total = sum(cell_loss(rows[i], a) for i, a in enumerate(rule))
        best = min(best, total)
    return best


def per_cell_bayes_search(joint: JointPmf, target: str, given, loss, extra_actions=()) -> float:
    """Per-cell exhaustive search over a finite candidate action set.

    Candidates are the closed-form optimum of every conditioning cell plus
    any decoys supplied; the weighted per-cell minima sum to the minimum
    training loss whenever the true optimum is in the candidate set.
    """
    given = [n for n in joint.names if n in set(given)]
    y_space = joint.space(target)
    sub = joint.arrange([*given, target])
    rows = sub.probs.reshape(-1, len(y_space))
    candidates = list(extra_actions)
    for row in rows:
        w = row.sum()
        if w <= 0:
            continue
        cond = Pmf(y_space, row / w)
        candidates.append(bayes_action(cond, loss).action)
    total = 0.0
    for row in rows:
        w = row.sum()
        if w <= 0:
            continue
        cond = Pmf(y_space, row / w)
        best = math.inf
        for action in candidates:
            try:
                best = min(best, expected_loss(cond, action, loss))
            except Exception:
                continue
        total += w * best
    return total


def shannon_mi_direct(joint: JointPmf, target: str, features) -> float:
    """Mutual information via the direct sum p log(p / (p_x p_y)), in nats."""
    features = [n for n in joint.names if n in set(features)]
    pxy = joint.arrange([*features, target])
    y_space = joint.space(target)
    rows = pxy.probs.reshape(-1, len(y_space))
    px = rows.sum(axis=1)
    py = rows.sum(axis=0)
    total = 0.0
    for i in range(rows.shape[0]):
        for j in range(rows.shape[1]):
            p = rows[i, j]
            if p > 0:
                total += p * math.log(p / (px[i] * py[j]))
    return total


def expected_conditional_variance(joint: JointPmf, target: str, given) -> float:
    """E[Var(Y | X)] by looping over conditioning cells."""
    given = [n for n in joint.names if n in set(given)]
    y_space = joint.space(target)
    levels = np.asarray(y_space.labels, dtype=float)
    sub = joint.arrange([*given, target])
    rows = sub.probs.reshape(-1, len(y_space))
    total = 0.0
    for row in rows:
        w = row.sum()
        if w <= 0:
            continue
        q = row / w
        mu = float(q @ levels)
        total += w * float(q @ (levels - mu) ** 2)
    return total


def chi2_mc(p: Pmf, q: Pmf, n: int, seed: int) -> float:
    """Importance-sampled chi-squared divergence: E_q[(p/q - 1)^2]."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(q.space), size=n, p=q.probs)
    ratio = p.probs[idx] / q.probs[idx]
    return float(((ratio - 1.0) ** 2).mean())


def chi2_cmi_direct(joint: JointPmf, target: str, future, given) -> float:
    """Literal triple sum of (P - P(y|x)P(z|x)P(x))^2 / reference."""
    future = [n for n in joint.names if n in set(future)]
    given = [n for n in joint.names if n in set(given)]
    sub = joint.arrange([*given, target, *future])
    ny = len(joint.space(target))
    nz = int(np.prod([len(joint.space(n)) for n in future]))
    cube = sub.probs.reshape(-1, ny, nz)
    total = 0.0
    for x in range(cube.shape[0]):
        w = cube[x].sum()
        if w <= 0:
            continue
        for y in range(ny):
            py = cube[x, y, :].sum() / w
            for z in range(nz):
                pz = cube[x, :, z].sum() / w
                ref = py * pz * w
                if ref > 0:
                    total += (cube[x, y, z] - ref) ** 2 / ref
    return total


def epsilon_direct(law_at, m: int, tau_max: int, mu_max: int):
    """Markov-deviation grid search one law at a time.

    ``law_at(requests)`` returns the joint law of one grid point; each value
    is the literal triple sum of ``chi2_cmi_direct``.  Returns (epsilon,
    argmax_tau, argmax_mu, grid values in lexicographic (tau, mu) order);
    ties go to the first maximum.
    """
    best, best_pair, values = -1.0, None, []
    for tau in itertools.product(range(tau_max + 1), repeat=m):
        for mu in itertools.product(range(mu_max + 1), repeat=m):
            if not any(mu):
                continue
            requests, given, future = [("y", 0)], [], []
            for l in range(m):
                requests += [(f"x{l + 1}", tau[l]), (f"x{l + 1}", tau[l] + mu[l])]
                given.append(f"x{l + 1}@{tau[l]}")
                if mu[l]:
                    future.append(f"x{l + 1}@{tau[l] + mu[l]}")
            value = chi2_cmi_direct(law_at(requests), "y@0", future, given)
            values.append(value)
            if value > best:
                best, best_pair = value, (tau, mu)
    return math.sqrt(max(best, 0.0)), best_pair[0], best_pair[1], values


def _window_reads(model, requests):
    """Per request, the (variable, slot) emissions it reads, newest first:
    lag k reads slot -k, a feature the window ending at slot -(k + delay)."""
    return [
        [("y", -lag)] if var == "y" else [(var, -(lag + model.delay) - j) for j in range(model.window)]
        for var, lag in requests
    ]


def occupied_slots(model, requests) -> int:
    return len({slot for reads in _window_reads(model, requests) for _, slot in reads})


def enumeration_work(model, requests) -> int:
    """Hidden-state tuples times emission cells that
    ``window_law_by_enumeration`` visits for ``requests``."""
    reads = {r for t in _window_reads(model, requests) for r in t}
    sizes = [len(model.target_space if var == "y" else model.emission_spaces[int(var[1:]) - 1]) for var, _ in reads]
    return model.n_states ** occupied_slots(model, requests) * math.prod(sizes)


def window_law_by_enumeration(model, requests) -> np.ndarray:
    """Exact window law of distinct ``requests``, axes in their order, by
    summing over the hidden states at the occupied slots.

    A state tuple s_0..s_n at the sorted slots weighs
    pi(s_0) * prod matrix_power(T, gap_i)[s_i, s_i+1].  Given the tuple the
    emissions read are independent, so it adds the outer product of their
    emission rows, scattered into variable cells: a b-slot feature window is
    read newest first, so its read j is digit b - 1 - j.
    """
    taps = _window_reads(model, requests)
    reads = sorted({r for t in taps for r in t}, key=lambda r: (r[1], r[0]))
    slots = sorted({slot for _, slot in reads})

    def kernel(var):
        return model.target_kernel if var == "y" else model.emissions[int(var[1:]) - 1]

    sizes = [kernel(var).shape[1] for var, _ in reads]
    outcome = np.indices(sizes).reshape(len(reads), -1)
    cells = tuple(
        sum(outcome[reads.index(r)] * sizes[reads.index(r)] ** (len(t) - 1 - j) for j, r in enumerate(t))
        for t in taps
    )
    law = np.zeros(tuple(kernel(t[0][0]).shape[1] ** len(t) for t in taps))
    powers = [np.linalg.matrix_power(model.transition, b - a) for a, b in zip(slots, slots[1:])]
    for states in itertools.product(range(model.n_states), repeat=len(slots)):
        weight = model.stationary[states[0]]
        for power, a, b in zip(powers, states, states[1:]):
            weight *= power[a, b]
        state_at = dict(zip(slots, states))
        rows = [kernel(var)[state_at[slot]] for var, slot in reads]
        np.add.at(law, cells, weight * functools.reduce(np.multiply.outer, rows).ravel())
    return law


def _observed_space_by_set(values) -> OutcomeSpace:
    return OutcomeSpace(tuple(sorted(set(values), key=lambda v: (str(type(v)), repr(v)))))


def _drift_by_labels(values) -> float:
    half = len(values) // 2
    first, second = values[:half], values[half:]
    labels = sorted(set(values), key=repr)
    n1 = np.array([1.0 + sum(1 for v in first if v == lab) for lab in labels])
    n2 = np.array([1.0 + sum(1 for v in second if v == lab) for lab in labels])
    p1, p2 = n1 / n1.sum(), n2 / n2.sum()
    return float(((p1 - p2) ** 2 / p2).sum())


def window_law_by_rows(dataset, requests, spaces=None) -> WindowLaw:
    """Empirical window law one row at a time: look each lagged slot up in
    a dict, collect the label tuple of every usable window, and add one to
    its cell; the drift statistic counts every label by rescanning."""
    reqs = canonical_requests(requests)
    row_of = {int(t): i for i, t in enumerate(dataset.t)}
    columns = [dataset.coded(var).labels() for var, _ in reqs]
    windows = []
    for t in dataset.t:
        rows = [row_of.get(int(t) - lag) for _, lag in reqs]
        if all(j is not None for j in rows):
            windows.append(tuple(col[j] for col, j in zip(columns, rows)))
    variables = []
    for k, (var, lag) in enumerate(reqs):
        name = variable_name(var, lag)
        if spaces and var in spaces:
            space = spaces[var]
        elif spaces and name in spaces:
            space = spaces[name]
        else:
            space = _observed_space_by_set([w[k] for w in windows])
        variables.append((name, space))
    counts = np.zeros(tuple(len(s) for _, s in variables))
    for w in windows:
        counts[tuple(space.index(v) for (_, space), v in zip(variables, w))] += 1.0
    drift = {variable_name(var, lag): _drift_by_labels([w[k] for w in windows]) for k, (var, lag) in enumerate(reqs)}
    return WindowLaw(
        law=JointPmf(tuple(variables), counts / counts.sum()),
        requests=reqs,
        meta={"source": "empirical", "n_windows": len(windows), "stationarity_chi2": drift},
    )


def dynamic_age_law_by_rows(dataset, spaces=None):
    """The (age, x1..xm, y) joint by grouping row indices on their age tuple
    in a dict and adding one per row; no minimum group size."""
    groups = {}
    for i in range(len(dataset)):
        groups.setdefault(tuple(int(dataset.ages[l][i]) for l in range(dataset.m)), []).append(i)
    names = [f"x{l}" for l in range(1, dataset.m + 1)] + ["y"]
    columns = [dataset.coded(name).labels() for name in names]
    # a name the mapping leaves out, or every name without one, gets the
    # labels its column holds
    spaces = {**{name: _observed_space_by_set(col) for name, col in zip(names, columns)}, **(spaces or {})}
    vectors = sorted(groups)
    variables = (("age", OutcomeSpace(tuple(vectors))), *((name, spaces[name]) for name in names))
    counts = np.zeros(tuple(len(s) for _, s in variables))
    for a, vec in enumerate(vectors):
        for i in groups[vec]:
            counts[(a, *(spaces[n].index(col[i]) for n, col in zip(names, columns)))] += 1.0
    probs = np.array([len(groups[v]) / len(dataset) for v in vectors])
    return AgeDistribution(tuple(vectors), probs), JointPmf(variables, counts / len(dataset))


def trajectory_by_steps(model, length: int, seed: int) -> Dataset:
    """Sampled trajectory with one ``np.searchsorted`` per chain step and
    per-row feature tuples, drawing the same random numbers in the same
    order as ``sample_trajectory``."""
    warm = model.delay + model.window - 1
    rng = np.random.default_rng(seed)
    cum_t = np.cumsum(model.transition, axis=1)
    states = np.empty(length, dtype=np.int64)
    states[0] = rng.choice(model.n_states, p=model.stationary)
    u = rng.random(length)
    for t in range(1, length):
        states[t] = int(np.searchsorted(cum_t[states[t - 1]], u[t], side="right"))

    def draw(kernel):
        cum = np.cumsum(kernel, axis=1)[states]
        r = rng.random(length)
        return (r[:, None] > cum).sum(axis=1)

    emitted = [draw(e) for e in model.emissions]
    targets = draw(model.target_kernel)
    t_values = np.arange(warm, length, dtype=np.int64)
    xs = []
    for sym in emitted:
        if model.window == 1:
            xs.append([int(sym[t - model.delay]) for t in t_values])
        else:
            xs.append([tuple(int(sym[t - model.delay - j]) for j in range(model.window)) for t in t_values])
    ages = [np.zeros(len(t_values), dtype=np.int64) for _ in range(model.m)]
    return Dataset(t=t_values, xs=tuple(xs), ages=tuple(ages), y=[int(v) for v in targets[warm:]])


def _cell_text(value) -> str:
    if isinstance(value, tuple):
        return "(" + "|".join(_cell_text(v) for v in value) + ")"
    return str(value)


def csv_by_rows(header, rows) -> str:
    """A header and rows written one row at a time by ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def dataset_csv_by_rows(dataset) -> str:
    """The dataset CSV rendered one cell at a time with ``csv.writer``."""
    header = (["t"] + [f"x_{l}" for l in range(1, dataset.m + 1)]
              + [f"age_{l}" for l in range(1, dataset.m + 1)] + ["y"])
    xs = [dataset.coded(f"x{l}").labels() for l in range(1, dataset.m + 1)]
    y = dataset.coded("y").labels()
    return csv_by_rows(header, ([int(dataset.t[i])] + [_cell_text(col[i]) for col in xs]
                                + [int(a[i]) for a in dataset.ages] + [_cell_text(y[i])]
                                for i in range(len(dataset))))


def read_csv_by_rows(path, expect, labels=(), blank=()):
    """What ``read_csv`` hands its build, or the text of the ``AofLabError``
    it raises, from one ``csv.reader`` pass that checks one row, and in it
    one cell, at a time.  A label column is its distinct texts in order of
    first appearance plus a list of codes; any other column is a list of
    ints, an empty cell under a ``blank`` prefix being -1."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            wanted = expect(header)
            if header != wanted:
                return f"{path}, line 1: header {header}; want {wanted}"
            rows = [(reader.line_num, row) for row in reader]
    except (csv.Error, UnicodeDecodeError) as exc:
        return f"{path}: not a readable CSV: {exc}"
    columns = {name: [] for name in wanted}
    for line, row in rows:
        if len(row) < len(wanted):
            return f"{path}, line {line}: {len(row)} cells, want {len(wanted)}; column {wanted[len(row)]!r} is missing"
        if len(row) > len(wanted):
            return f"{path}, line {line}: {len(row)} cells, want {len(wanted)}; cells after column {wanted[-1]!r}"
        for name, cell in zip(wanted, row):
            if name.startswith(labels):
                columns[name].append(cell)
                continue
            at = f"{path}, line {line}, column {name!r}: {cell!r}"
            if name.startswith(blank) and cell == "":
                columns[name].append(-1)
                continue
            try:
                value = int(cell)
            except ValueError:
                value = None
            if value is None or (name.startswith(blank) and value < 0):
                return f"{at} is not {'a nonnegative integer or empty' if name.startswith(blank) else 'an integer'}"
            if not -2**63 <= value < 2**63:
                return f"{at} is outside the int64 range"
            columns[name].append(value)
    if not rows:
        return f"{path}: no data rows"
    out = {}
    for name, cells in columns.items():
        if name.startswith(labels):
            texts = list(dict.fromkeys(cells))
            out[name] = (texts, [texts.index(cell) for cell in cells])
        else:
            out[name] = cells
    return out


def trace_fault_by_events(events):
    """The message ``DeliveryTrace`` gives for the first faulty event, found
    one event at a time, or None."""
    for l, src in enumerate(events, start=1):
        for k, (g, d) in enumerate(src):
            if g > d:
                return f"source {l}: generation {g} after delivery {d}"
            if k and g < src[k - 1][0]:
                return f"source {l}: generation slots must be nondecreasing"
    return None


def upclosed_subsets(points):
    """All up-closed subsets of a finite set of integer vectors."""
    points = list(points)
    subsets = []
    for mask in range(1 << len(points)):
        chosen = [points[i] for i in range(len(points)) if mask >> i & 1]
        ok = True
        for c in chosen:
            for other in points:
                if all(o >= ci for o, ci in zip(other, c)) and other not in chosen:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            subsets.append(chosen)
    return subsets


def stochastic_order_upper_sets(p, q, atol=1e-9) -> bool:
    """Multivariate stochastic order by exhaustive upper-set comparison."""
    support = sorted(set(p.vectors) | set(q.vectors))
    mass_p = dict(zip(p.vectors, p.probs))
    mass_q = dict(zip(q.vectors, q.probs))
    for subset in upclosed_subsets(support):
        in_set = set(subset)
        pm = sum(mass_p.get(v, 0.0) for v in in_set)
        qm = sum(mass_q.get(v, 0.0) for v in in_set)
        if pm > qm + atol:
            return False
    return True


def max_upper_set_violation(p, q) -> float:
    """Largest p(U) - q(U) over up-closed subsets U of the joint support,
    the empty set included, by exhaustive enumeration."""
    support = sorted(set(p.vectors) | set(q.vectors))
    mass_p = dict(zip(p.vectors, p.probs))
    mass_q = dict(zip(q.vectors, q.probs))
    return max(
        sum(mass_p.get(v, 0.0) for v in subset) - sum(mass_q.get(v, 0.0) for v in subset)
        for subset in upclosed_subsets(support)
    )


def max_transport_by_single_paths(supply, demand, allowed):
    """``aoi._max_transport`` from a zero flow: shortest augmenting paths
    (Edmonds & Karp 1972), one full breadth-first search per path.  Returns
    the flow value and the mask of supply points the final residual graph
    still reaches."""
    supply, demand = supply.astype(float), demand.astype(float)
    flow, total = np.zeros(allowed.shape), 0.0
    while True:
        seen_p, seen_q = supply > RESIDUAL_ATOL, np.zeros(len(demand), dtype=bool)
        via_q, via_p = np.full(len(supply), -1), np.full(len(demand), -1)
        frontier, end = np.flatnonzero(seen_p), -1
        while frontier.size:
            step = allowed[frontier] & ~seen_q
            reached = np.flatnonzero(step.any(axis=0))
            if not reached.size:
                break
            via_p[reached] = frontier[step[:, reached].argmax(axis=0)]
            seen_q[reached] = True
            sinks = reached[demand[reached] > RESIDUAL_ATOL]
            if sinks.size:
                end = sinks[0]
                break
            back = (flow[:, reached] > RESIDUAL_ATOL).T & ~seen_p
            frontier = np.flatnonzero(back.any(axis=0))
            via_q[frontier] = reached[back[:, frontier].argmax(axis=0)]
            seen_p[frontier] = True
        if end < 0:
            return total, seen_p
        # the path alternates ps[k] -> qs[k] forward and qs[k + 1] -> ps[k] back
        qs, ps = [end], [via_p[end]]
        while via_q[ps[-1]] >= 0:
            qs.append(via_q[ps[-1]])
            ps.append(via_p[qs[-1]])
        delta = min(supply[ps[-1]], demand[end], *flow[ps[:-1], qs[1:]])
        flow[ps, qs] += delta
        flow[ps[:-1], qs[1:]] -= delta
        supply[ps[-1]] -= delta
        demand[end] -= delta
        total += delta


def loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


def random_pmf(rng, space, floor=0.0) -> Pmf:
    raw = rng.random(len(space)) + floor
    return Pmf(space, raw / raw.sum())


def random_joint(rng, variables, floor=0.0) -> JointPmf:
    shape = tuple(len(s) for _, s in variables)
    raw = rng.random(shape) + floor
    return JointPmf(tuple(variables), raw / raw.sum())
