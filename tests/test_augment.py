import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import full_grid_sweep

from sprinkle import (
    Graph,
    SeedSpec,
    augment_bernoulli,
    augment_uniform,
    complete_graph,
    contains_kr,
    cycle_graph,
    gnm,
    is_k_connected,
    non_edges,
    path_graph,
)
from sprinkle.harness import SweepConfig, run_sweep
from sprinkle.harness import sweep as sweep_mod


def test_uniform_zero_on_complete():
    k4 = complete_graph(4)
    res = augment_uniform(k4, 0, SeedSpec(3))
    assert res.graph == k4 and res.added == () and res.base.edge_count == 6


def test_uniform_all_non_edges_forced():
    g = Graph(3, [])
    res = augment_uniform(g, 3, SeedSpec(9))
    assert res.graph == complete_graph(3)
    assert sorted(res.added) == [(0, 1), (0, 2), (1, 2)]


def test_uniform_single_choice_always_taken():
    g = path_graph(3)
    for s in range(200):
        res = augment_uniform(g, 1, SeedSpec(s))
        assert res.added == ((0, 2),)


def test_uniform_rejects_oversize_m():
    g = path_graph(3)
    with pytest.raises(ValueError, match="maximum m=1"):
        augment_uniform(g, 2, SeedSpec(0))


def test_uniform_completion_invariant():
    g = gnm(8, 10, SeedSpec(2))
    res = augment_uniform(g, len(non_edges(g)), SeedSpec(5))
    assert res.graph == complete_graph(8)


def test_uniform_result_invariants():
    g = gnm(10, 20, SeedSpec(1))
    res = augment_uniform(g, 7, SeedSpec(2))
    base = set(g.edges())
    assert len(set(res.added)) == len(res.added) == 7
    assert not (set(res.added) & base)
    assert res.graph.edge_count == res.base.edge_count + 7


def test_uniform_determinism_and_seed_sensitivity():
    g = gnm(12, 20, SeedSpec(0))
    a = augment_uniform(g, 9, SeedSpec(4))
    b = augment_uniform(g, 9, SeedSpec(4))
    c = augment_uniform(g, 9, SeedSpec(5))
    assert a.added == b.added
    assert a.added != c.added


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 14), st.integers(0, 2**32), st.data())
def test_augmentation_is_nested_in_m_and_p(n, seed, data):
    # run_sweep decides a whole trial from one bisection, which is sound
    # only while one seed's added edges grow with m (as a prefix) and
    # with p (as a subset)
    g = gnm(n, data.draw(st.integers(0, n * (n - 1) // 2)), SeedSpec(seed))
    pool = len(non_edges(g))
    big = data.draw(st.integers(0, pool))
    small = data.draw(st.integers(0, big))
    full = augment_uniform(g, big, SeedSpec(seed, 1)).added
    assert augment_uniform(g, small, SeedSpec(seed, 1)).added == full[:small]
    q = data.draw(st.floats(0, 1))
    p = data.draw(st.floats(0, q))
    more = augment_bernoulli(g, q, SeedSpec(seed, 1)).added
    fewer = augment_bernoulli(g, p, SeedSpec(seed, 1)).added
    kept = set(fewer)
    assert list(fewer) == [e for e in more if e in kept]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 14), st.integers(0, 2**32), st.floats(0, 1), st.data())
def test_both_models_read_one_label_draw(n, seed, p, data):
    # the pool pair at position i has the label U[i]; the Bernoulli model
    # keeps the pairs with U[i] < p, the plain per-pair draw, and the
    # uniform model the m smallest, both listed in (label, position)
    # order with their labels alongside
    g = gnm(n, data.draw(st.integers(0, n * (n - 1) // 2)), SeedSpec(seed))
    pool = non_edges(g)
    s = SeedSpec(seed, 2)
    u = s.generator().random(len(pool))
    order = sorted(range(len(pool)), key=lambda i: (u[i], i))
    bern = augment_bernoulli(g, p, s)
    assert list(bern.added) == [pool[i] for i in order if u[i] < p]
    assert np.array_equal(bern.labels, np.sort(u[u < p]))
    m = data.draw(st.integers(0, len(pool)))
    uni = augment_uniform(g, m, s)
    assert list(uni.added) == [pool[i] for i in order[:m]]
    assert np.array_equal(uni.labels, u[order[:m]])
    assert uni.graph == g.with_edges(uni.added)


class RepeatedLabels:
    """Seed stand-in whose draw repeats labels: a tie has probability
    about N^2 / 2^53 under a real seed, so tie-breaking needs one.  As a
    sweep's master seed, every trial and stream derived from it reads
    the same draw."""

    def __init__(self, labels):
        self.labels = np.array(labels)

    def derive(self, *path):
        return self

    def stream(self, stream_id):
        return self

    def generator(self):
        return self

    def random(self, size):
        assert size == len(self.labels)
        return self.labels


def test_tied_labels_are_ordered_by_position():
    g = Graph(10, [])
    pool = non_edges(g)
    labels = [(7 * i % 5) / 8 for i in range(len(pool))]
    order = sorted(range(len(pool)), key=lambda i: (labels[i], i))
    seed = RepeatedLabels(labels)
    for m in (0, 1, 9, 10, 30, len(pool)):
        assert list(augment_uniform(g, m, seed).added) == [pool[i] for i in order[:m]]
    below = [pool[i] for i in order if labels[i] < 0.3]
    assert list(augment_bernoulli(g, 0.3, seed).added) == below


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 9), st.data())
def test_prefix_is_the_stable_order_after_any_earlier_cuts(n, data):
    # labels from four values, so most cuts fall inside a tie group, and
    # prefix(k) read after any sequence of earlier prefix calls
    g = Graph(n, [])
    size = n * (n - 1) // 2
    labels = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]),
                                min_size=size, max_size=size))
    order = sorted(range(size), key=lambda i: (labels[i], i))
    m = data.draw(st.integers(0, size))
    aug = augment_uniform(g, m, RepeatedLabels(labels))
    for k in data.draw(st.lists(st.integers(0, m), max_size=6)):
        assert aug.prefix(k).tolist() == order[:k]
    assert aug.prefix(m).tolist() == order[:m]


@pytest.mark.parametrize("model, grid", [
    ("uniform", (0, 4, 7, 11, 13, 16, 22, 31, 40, 45)),
    ("bernoulli", (0.0, 0.1, 0.25, 0.3, 0.5, 0.6)),
])
@pytest.mark.parametrize("prop", [
    ("connected", {}), ("diameter_le", {"t": 2}), ("contains_kr", {"r": 4}),
])
def test_sweep_probes_order_tied_labels_by_position(model, grid, prop):
    # a probe's cut inside a tie group must take the tied pairs of the
    # lowest positions, as a stable sort of the whole draw does, however
    # far the bisection has ordered the draw before it
    g = Graph(10, [])
    pool = non_edges(g)
    labels = [(7 * i % 5) / 8 for i in range(len(pool))]  # 9 pairs per label
    ranked = [pool[i] for i in sorted(range(len(pool)), key=lambda i: (labels[i], i))]
    cfg = SweepConfig(
        generator={"name": "empty", "params": {"n": 10}}, model=model, grid=grid,
        trials=3, property={"name": prop[0], "params": prop[1]},
        master_seed=RepeatedLabels(labels))
    draws, probes = [], []

    def recording_augment(fn):
        def recorded(h, value, seed):
            draws.append(fn(h, value, seed))
            return draws[-1]
        return recorded

    check, direction = sweep_mod.PROPERTIES[prop[0]]

    def recording_check(h, params):
        probes.append(h)
        return check(h, params)

    with pytest.MonkeyPatch.context() as mp:
        for augment in ("augment_uniform", "augment_bernoulli"):
            mp.setattr(sweep_mod, augment, recording_augment(getattr(sweep_mod, augment)))
        mp.setitem(sweep_mod.PROPERTIES, prop[0], (recording_check, direction))
        res = run_sweep(cfg)
    ks = [h.edge_count for h in probes]
    for aug in draws:  # read only now, after the probes have ordered the draw
        assert list(aug.added) == ranked[:len(aug.added)]
    for h, k in zip(probes, ks):
        assert h == g.with_edges(ranked[:k])
    if model == "uniform":
        cut = sorted(labels)
        assert any(cut[k - 1] == cut[k] for k in ks if 0 < k < len(pool))
    assert [(pt.successes, pt.infeasible) for pt in res.points] == full_grid_sweep(cfg)


def test_uniform_choice_is_uniform_chi_squared():
    # path on 4 vertices has non-edges (0,2), (0,3), (1,3); over many
    # seeds the single pick must be uniform across the 3 choices
    # (chi-squared, df=2, 0.001 level -> critical value 13.816)
    g = path_graph(4)
    pool = non_edges(g)
    assert len(pool) == 3
    counts = Counter()
    trials = 40000
    master = SeedSpec(123)
    for i in range(trials):
        res = augment_uniform(g, 1, master.derive(i))
        counts[res.added[0]] += 1
    expected = trials / len(pool)
    chi2 = sum((counts[e] - expected) ** 2 / expected for e in pool)
    assert chi2 < 13.816, dict(counts)


def test_uniform_pair_is_uniform_chi_squared():
    # the 5-cycle has 5 non-edges, so 10 possible pairs; over many seeds
    # the m = 2 draw must be uniform across them (chi-squared, df=9,
    # 0.001 level -> critical value 27.877)
    g = cycle_graph(5)
    pool = non_edges(g)
    assert len(pool) == 5
    counts = Counter()
    trials = 20000
    master = SeedSpec(321)
    for i in range(trials):
        counts[frozenset(augment_uniform(g, 2, master.derive(i)).added)] += 1
    pairs = [frozenset(c) for c in combinations(pool, 2)]
    assert set(counts) <= set(pairs)
    expected = trials / len(pairs)
    chi2 = sum((counts[c] - expected) ** 2 / expected for c in pairs)
    assert chi2 < 27.877, dict(counts)


def test_bernoulli_extremes():
    g = gnm(9, 12, SeedSpec(0))
    assert augment_bernoulli(g, 0.0, SeedSpec(1)).graph == g
    assert augment_bernoulli(g, 1.0, SeedSpec(1)).graph == complete_graph(9)
    with pytest.raises(ValueError):
        augment_bernoulli(g, 1.5, SeedSpec(1))
    with pytest.raises(ValueError):
        augment_bernoulli(g, -0.1, SeedSpec(1))


def test_bernoulli_mean_concentration():
    # empty graph on 50 vertices, p = 0.1: |R| ~ Binomial(1225, 0.1);
    # the mean over 2000 seeds must land within 3 sigma of 122.5 where
    # sigma = sqrt(1225 * 0.09 / 2000)
    g = Graph(50, [])
    master = SeedSpec(77)
    trials = 2000
    total = sum(
        len(augment_bernoulli(g, 0.1, master.derive(i)).added) for i in range(trials)
    )
    mean = total / trials
    sigma = math.sqrt(1225 * 0.1 * 0.9 / trials)
    assert abs(mean - 122.5) <= 3 * sigma


def test_monotone_coupling_distributional():
    # For H' a subgraph of H, augmenting both with the same m must give
    # P[property | H'] <= P[property | H] + 2 * CI width, for the
    # monotone properties "contains K_4" and "4-connected".
    master = SeedSpec(55)
    h = gnm(20, 70, master.derive(9999))
    hp = Graph(20, h.edges()[:50])
    trials = 2000
    k4 = [0, 0]
    conn = [0, 0]
    for i in range(trials):
        ts = master.derive(1, i)
        ah = augment_uniform(h, 14, ts.stream(1))
        ap = augment_uniform(hp, 14, ts.stream(1))
        k4[0] += bool(contains_kr(ap.graph, 4))
        k4[1] += bool(contains_kr(ah.graph, 4))
        conn[0] += bool(is_k_connected(ap.graph, 4))
        conn[1] += bool(is_k_connected(ah.graph, 4))
    ci_width = 1.96 * math.sqrt(0.25 / trials)
    assert k4[0] / trials <= k4[1] / trials + 2 * ci_width
    assert conn[0] / trials <= conn[1] / trials + 2 * ci_width
