import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sprinkle import (
    Graph,
    SeedSpec,
    blocked_gnp,
    clique_number,
    complete_graph,
    complete_multipartite,
    diameter,
    disjoint_cliques,
    gnm,
    induced_subgraph,
    is_connected,
    is_k_connected,
    mader_tightness_graph,
    min_degree,
    nearly_equal_parts,
    non_edges,
    two_cliques,
    vertex_connectivity,
)
from sprinkle.core import density_param


def test_nearly_equal_parts_examples():
    assert nearly_equal_parts(10, 3) == [4, 3, 3]
    assert nearly_equal_parts(9, 3) == [3, 3, 3]
    assert nearly_equal_parts(5, 5) == [1, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        nearly_equal_parts(5, 0)


def test_complete_multipartite_examples():
    k22 = complete_multipartite([2, 2])
    assert k22.edge_count == 4
    assert not k22.has_edge(0, 1) and not k22.has_edge(2, 3)
    assert complete_multipartite([1, 1, 1]) == complete_graph(3)
    g = complete_multipartite([3, 3, 3])
    assert g.n == 9 and g.edge_count == 27 and clique_number(g) == 3
    with pytest.raises(ValueError):
        complete_multipartite([])
    for bad in ([2.5, 2], [2, True], [3, "2"], [0, 2]):
        with pytest.raises(ValueError, match="positive integers"):
            complete_multipartite(bad)


def test_balanced_multipartite_clique_number():
    for n, r0 in [(10, 3), (12, 4), (7, 2), (20, 5)]:
        g = complete_multipartite(nearly_equal_parts(n, r0))
        assert clique_number(g) == r0


def test_disjoint_cliques_examples():
    g = disjoint_cliques(6, 3)
    assert min_degree(g) == 2 and g.edge_count == 6
    assert disjoint_cliques(6, 6) == complete_graph(6)
    g7 = disjoint_cliques(7, 3)
    assert sorted(g7.degree(v) for v in range(7)).count(3) == 4
    assert min_degree(g7) == 2
    with pytest.raises(ValueError):
        disjoint_cliques(5, 6)


def test_disjoint_cliques_connectivity_invariants():
    g = disjoint_cliques(12, 4)
    assert vertex_connectivity(g) == 0
    for lo in (0, 4, 8):
        comp = induced_subgraph(g, range(lo, lo + 4))
        assert vertex_connectivity(comp) == 3


def test_two_cliques_examples():
    g4 = two_cliques(4)
    assert g4.edge_count == 2
    assert two_cliques(6).edge_count == 6
    g5 = two_cliques(5)
    assert sorted(len(c) for c in (range(2), range(2, 5))) == [2, 3]
    assert g5.edge_count == 1 + 3
    with pytest.raises(ValueError):
        two_cliques(1)


def test_two_cliques_diameter_structure():
    g = two_cliques(10)
    assert diameter(g) == math.inf
    for part in (range(5), range(5, 10)):
        assert diameter(induced_subgraph(g, part)) == 1


def test_blocked_gnp_rejects_p_above_one():
    with pytest.raises(ValueError, match="exceeds 1"):
        blocked_gnp(4, Fraction(49, 100), SeedSpec(0))


def test_blocked_gnp_determinism():
    a = blocked_gnp(100, Fraction(1, 5), SeedSpec(7))
    b = blocked_gnp(100, Fraction(1, 5), SeedSpec(7))
    assert a == b
    c = blocked_gnp(100, Fraction(1, 5), SeedSpec(8))
    assert a != c


def test_blocked_gnp_structure_and_density():
    n = 100
    g = blocked_gnp(n, Fraction(1, 5), SeedSpec(7))
    assert min_degree(g) >= 20
    half = n // 2
    # no cross edges
    assert all(not g.has_edge(u, v) for u in range(half) for v in range(half, n))
    # within +-0.15 of p = 0.4 + 100^(-1/3); binomial sd of the block
    # density is ~0.014, so 0.15 is a >10-sigma envelope
    p = 0.4 + n ** (-1 / 3)
    for lo, hi in ((0, half), (half, n)):
        block = induced_subgraph(g, range(lo, hi))
        dens = block.edge_count / (block.n * (block.n - 1) / 2)
        assert abs(dens - p) < 0.15


def test_gnm_examples():
    assert gnm(5, 10, SeedSpec(1)) == complete_graph(5)
    assert gnm(5, 0, SeedSpec(1)).edge_count == 0
    with pytest.raises(ValueError):
        gnm(5, 11, SeedSpec(1))
    assert gnm(30, 50, SeedSpec(4)) == gnm(30, 50, SeedSpec(4))
    assert gnm(30, 50, SeedSpec(4)).edge_count == 50


def test_gnm_connectivity_matches_independent_reference():
    # empirical P(connected) vs a stdlib-random reference simulation
    import random

    from oracles import brute_is_connected

    def emp_pkg(n, m, trials, master):
        hits = 0
        for i in range(trials):
            hits += is_connected(gnm(n, m, SeedSpec(master).derive(i)))
        return hits / trials

    def emp_ref(n, m, trials, seed):
        rng = random.Random(seed)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        hits = 0
        for _ in range(trials):
            hits += brute_is_connected(Graph(n, rng.sample(pairs, m)))
        return hits / trials

    # n-1 edges: a uniform 29-edge graph on 30 vertices is essentially
    # never a spanning tree
    assert emp_pkg(30, 29, 500, 101) == 0.0
    assert emp_ref(30, 29, 500, 202) == 0.0
    # an informative point: both estimates agree within 3 combined sigma
    a, b = emp_pkg(30, 60, 500, 101), emp_ref(30, 60, 500, 202)
    sigma = math.sqrt(2 * 0.25 / 500)
    assert abs(a - b) <= 3 * sigma


def test_mader_tightness_small_arithmetic():
    # n=12, k=3: cliques of size 4 fill everything, I empty
    g = mader_tightness_graph(12, 3, SeedSpec(5))
    assert g.n == 12
    assert all(g.has_edge(u, v) for u, v in itertools.combinations(range(4), 2))
    assert min_degree(g) == 3


def test_mader_tightness_single_clique():
    k = 4
    g = mader_tightness_graph(k + 1, k, SeedSpec(0))
    assert g == complete_graph(k + 1)


def _tightness_instance(n, k, seed):
    g = mader_tightness_graph(n, k, SeedSpec(seed))
    want = -((-(n * n - k * k)) // (n * (k + 1)))
    t = min(want, n // (k + 1))
    cliques = [set(range(c * (k + 1), (c + 1) * (k + 1))) for c in range(t)]
    independent = set(range(t * (k + 1), n))
    return g, cliques, independent


@pytest.mark.parametrize("n,k,seed", [(13, 5, 3), (14, 3, 3)])
def test_mader_tightness_exhaustive_witness(n, k, seed):
    # every subgraph meeting >= 2 cliques through I has connectivity at
    # most |I inside it|; exhaustive over all vertex subsets
    g, cliques, independent = _tightness_instance(n, k, seed)
    assert independent, "instance chosen to have a nonempty independent set"
    for size in range(2, n + 1):
        for sub in itertools.combinations(range(n), size):
            inside = set(sub) & independent
            if not inside:
                continue
            if sum(1 for c in cliques if set(sub) & c) < 2:
                continue
            sg = induced_subgraph(g, sub)
            assert not is_k_connected(sg, len(inside) + 1).holds


def test_mader_tightness_independent_degree():
    g, cliques, independent = _tightness_instance(14, 3, 3)
    per_clique = -((-3 * 3) // 14)  # ceil(k^2/n) = 1
    for w in independent:
        assert g.degree(w) == per_clique * len(cliques)
        # independent set spans no edges
        assert not any(g.has_edge(w, x) for x in independent if x != w)


def test_mader_tightness_determinism():
    assert mader_tightness_graph(30, 5, SeedSpec(1)) == mader_tightness_graph(
        30, 5, SeedSpec(1)
    )


def test_generator_outputs_pass_graph_invariants():
    gs = [
        complete_multipartite([3, 2, 1]),
        disjoint_cliques(11, 4),
        two_cliques(9),
        blocked_gnp(40, Fraction(1, 5), SeedSpec(3)),
        gnm(15, 30, SeedSpec(3)),
        mader_tightness_graph(14, 3, SeedSpec(3)),
    ]
    for g in gs:
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count
        assert len(non_edges(g)) + g.edge_count == g.n * (g.n - 1) // 2


def _block_edges(sizes, across):
    """The block graph's edge list, pair by pair."""
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    return [(u, v) for u, v in itertools.combinations(range(len(block)), 2)
            if (block[u] != block[v]) == across]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=7), st.integers(2, 40), st.data())
def test_block_generators_match_edge_list_builds(sizes, n, data):
    c = data.draw(st.integers(1, n))
    cliques = [c] * (n // c)  # leftovers go round-robin to the first cliques
    for i in range(n % c):
        cliques[i % len(cliques)] += 1
    cases = [
        (complete_multipartite(sizes), Graph(sum(sizes), _block_edges(sizes, True))),
        (complete_graph(n), Graph(n, _block_edges([1] * n, True))),
        (two_cliques(n), Graph(n, _block_edges([n // 2, n - n // 2], False))),
        (disjoint_cliques(n, c), Graph(n, _block_edges(cliques, False))),
    ]
    for g, want in cases:
        assert g == want and g.edge_count == want.edge_count
        for v in range(g.n):
            mask = g.adjacency_mask(v)
            assert not mask >> v & 1
            assert all(g.adjacency_mask(u) >> v & 1 for u in g.neighbors(v))


def _blocked_gnp_edge_list(n, d, seed, max_attempts=100):
    """blocked_gnp built pair by pair through the edge-list constructor,
    with the number of draws it took: (graph, attempts)."""
    d = density_param(d)
    p = 2 * float(d) + n ** (-1 / 3)
    if p > 1:
        raise ValueError("p exceeds 1")
    threshold = -((-d.numerator * n) // d.denominator)
    half = n // 2
    for attempt in range(max_attempts):
        rng = seed.derive(attempt).generator()
        edges = []
        for lo, hi in ((0, half), (half, n)):
            pairs = [(u, v) for u in range(lo, hi) for v in range(u + 1, hi)]
            keep = rng.random(len(pairs)) < p
            edges.extend(pair for pair, k in zip(pairs, keep) if k)
        g = Graph(n, edges)
        if min_degree(g) >= threshold:
            return g, attempt + 1
    raise RuntimeError("no draw reached the minimum degree")


def _outcome(build, *args):
    try:
        return build(*args)
    except (ValueError, RuntimeError) as e:
        return type(e)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 151), st.sampled_from(["0", "0.05", "0.1", "0.15", "0.2", "0.25"]),
       st.integers(0, 2**32), st.integers(1, 4))
def test_blocked_gnp_matches_edge_list_build(n, d, s, max_attempts):
    got = _outcome(blocked_gnp, n, d, SeedSpec(s), max_attempts)
    want = _outcome(_blocked_gnp_edge_list, n, d, SeedSpec(s), max_attempts)
    if isinstance(want, tuple):
        assert isinstance(got, Graph) and got == want[0]
        assert got.edge_count == want[0].edge_count
    else:
        assert got is want


def test_blocked_gnp_redraws_match_edge_list_build():
    # at n=20, d=1/5 some first draws miss the minimum degree 4 and are redrawn
    seen = set()
    for s in range(40):
        want, attempts = _blocked_gnp_edge_list(20, "0.2", SeedSpec(s))
        assert blocked_gnp(20, "0.2", SeedSpec(s)) == want
        seen.add(attempts)
    assert max(seen) > 1
