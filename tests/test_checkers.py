"""Checker unit tests: named examples plus oracle spot checks.

The heavyweight oracle-equivalence runs (exhaustive n=5, 500 random
graphs, density subsets) live in test_acceptance.py; here each checker
gets its stated examples, witness re-validation, and smaller randomized
agreement checks.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bfs_components,
    bfs_diameter_at_most,
    brute_chromatic_number,
    brute_clique_number,
    brute_contains_kr,
    brute_count_kr,
    brute_max_density,
    brute_vertex_connectivity,
    random_graph,
    single_root_clique,
    split_flow_is_k_connected,
    split_flow_reach,
)
from sprinkle import (
    Graph,
    SeedSpec,
    augment_uniform,
    blocked_gnp,
    chromatic_number,
    clique_number,
    complete_graph,
    complete_multipartite,
    connected_components,
    contains_kr,
    count_kr,
    cycle_graph,
    diameter,
    diameter_at_most,
    disjoint_cliques,
    gnm,
    induced_subgraph,
    is_connected,
    is_k_connected,
    max_clique,
    max_subgraph_density,
    minimum_coloring,
    non_edges,
    path_graph,
    two_cliques,
    vertex_connectivity,
)
import sprinkle.checkers.connectivity as connectivity_mod
from sprinkle.checkers.connectivity import _components, _disjoint_paths
from sprinkle.checkers.distance import _screened_sources
from sprinkle.core import _bits, vertex_mask


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def _assert_clique(g, vertices):
    assert all(g.has_edge(u, v) for u, v in itertools.combinations(vertices, 2))


@st.composite
def gnp_graphs(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    p = draw(st.floats(0.05, 0.95))
    return random_graph(random.Random(draw(st.integers(0, 2**32))), n, p)


@st.composite
def cliques_plus_edges(draw, max_n=40):
    # the thm6 shape: disjoint cliques joined by a few random edges
    n = draw(st.integers(2, max_n))
    h = disjoint_cliques(n, draw(st.integers(1, max(1, n // 2))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    extra = [tuple(rng.sample(range(n), 2)) for _ in range(draw(st.integers(0, 2 * n)))]
    return h.with_edges(extra)


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------

def test_clique_number_examples():
    assert clique_number(complete_graph(6)) == 6
    assert clique_number(complete_multipartite([3, 3, 3])) == 3
    assert clique_number(petersen()) == 2 == brute_clique_number(petersen())


def test_max_clique_witness_is_clique():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        w = max_clique(g)
        _assert_clique(g, w)
        assert len(w) == brute_clique_number(g)


def test_contains_kr_examples():
    assert not contains_kr(cycle_graph(5), 3).holds
    v = contains_kr(complete_multipartite([2, 2, 2]), 3)
    assert v.holds
    _assert_clique(complete_multipartite([2, 2, 2]), v.witness)


def test_contains_kr_bipartite_plus_partfree_edges():
    # K_{10,10} plus cross-part-only additions keeps cliques at
    # r0 * (ceil(r/r0) - 1) = 4 < 5 as long as neither part holds a triangle
    g = complete_multipartite([10, 10])
    extra = [(0, 1), (2, 3), (10, 11), (12, 13)]  # within-part matchings, no triangles
    g2 = g.with_edges(extra)
    assert contains_kr(g2, 4).holds
    assert not contains_kr(g2, 5).holds
    assert clique_number(g2) == 4


def test_contains_kr_agrees_with_brute():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        for r in range(1, 6):
            assert contains_kr(g, r).holds == brute_contains_kr(g, r)


def _join(a, b):
    """The join of a and b: b's vertices follow a's, and every pair
    across the two is an edge."""
    cross = [(u, a.n + v) for u in range(a.n) for v in range(b.n)]
    inner = [(a.n + u, a.n + v) for u, v in b.edges()]
    return Graph(a.n + b.n, list(a.edges()) + inner + cross)


def _assert_kr_witness(g, w, r):
    assert w == tuple(sorted(w)) and len(set(w)) == r
    _assert_clique(g, w)


def test_kr_witness_has_r_vertices_when_co_components_overshoot():
    # the complement is disconnected and the co-components' clique
    # numbers sum past r, so the witness must stop at r vertices
    def triangles(starts):
        return [(a + i, a + j) for a in starts for i, j in ((0, 1), (0, 2), (1, 2))]

    rng = random.Random(17)
    graphs = [
        complete_multipartite([3, 3, 3]).with_edges(triangles((0, 3, 6))),
        complete_multipartite([4, 4, 4]).with_edges(triangles((0, 4, 8))),
    ] + [_join(complete_graph(1), random_graph(rng, rng.randint(1, 12), rng.random()))
         for _ in range(30)]
    for g in graphs:
        omega = brute_clique_number(g)
        for r in range(1, omega + 1):
            _assert_kr_witness(g, contains_kr(g, r).witness, r)
        assert not contains_kr(g, omega + 1).holds
        _assert_kr_witness(g, max_clique(g), omega)


@st.composite
def multipartite_plus_edges(draw):
    # the thm2 shape: a complete multipartite base plus random in-part edges
    h = complete_multipartite(draw(st.lists(st.integers(1, 5), min_size=1, max_size=5)))
    q = draw(st.floats(0, 0.8))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return h.with_edges([e for e in non_edges(h) if rng.random() < q])


@st.composite
def joined_to_gnp(draw):
    return _join(complete_graph(draw(st.integers(1, 2))), draw(gnp_graphs(max_n=12)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    gnp_graphs(max_n=14),
    multipartite_plus_edges(),
    joined_to_gnp(),
    st.sampled_from([Graph(0, []), Graph(1, [])]),
))
def test_clique_search_matches_single_root_oracle(g):
    for r in range(1, g.n + 2):
        v = contains_kr(g, r)
        assert v.holds == (len(single_root_clique(g, r - 1, r)) == r), r
        if v.holds:
            _assert_kr_witness(g, v.witness, r)
    omega = len(single_root_clique(g, 0, g.n))
    if g.n:
        assert clique_number(g) == omega
        _assert_kr_witness(g, max_clique(g), omega)
    colors = minimum_coloring(g)
    assert all(colors[u] != colors[v] for u, v in g.edges())
    chi = chromatic_number(g)
    assert chi >= omega
    if g.n <= 9:
        assert chi == brute_chromatic_number(g)


def test_count_kr_examples():
    assert count_kr(complete_graph(5), 3) == 10
    assert count_kr(cycle_graph(5), 3) == 0
    assert count_kr(complete_multipartite([2, 2, 2]), 3) == 8


def test_count_kr_agrees_with_brute():
    rng = random.Random(13)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        for r in range(1, 5):
            assert count_kr(g, r) == brute_count_kr(g, r)


# ---------------------------------------------------------------------------
# diameter
# ---------------------------------------------------------------------------

def test_diameter_examples():
    assert diameter(complete_graph(2)) == 1
    assert diameter(complete_graph(7)) == 1
    assert diameter(two_cliques(10)) == math.inf
    assert diameter(cycle_graph(6)) == 3
    assert diameter(Graph(1, [])) == 0


def test_diameter_matches_apsp_oracle():
    # 300 random graphs up to n=64, against scipy shortest paths
    import numpy as np
    from scipy.sparse.csgraph import shortest_path

    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(2, 64)
        g = random_graph(rng, n, rng.uniform(0.02, 0.6))
        mat = np.zeros((n, n), dtype=bool)
        for u, v in g.edges():
            mat[u, v] = mat[v, u] = True
        dist = shortest_path(mat, method="D", unweighted=True)
        want = dist.max()
        want = math.inf if math.isinf(want) else int(want)
        assert diameter(g) == want


def test_diameter_at_most_consistent_with_diameter():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        d = diameter(g)
        for t in range(0, 6):
            assert diameter_at_most(g, t).holds == (d <= t)


def test_diameter_at_most_witness_pair():
    g = two_cliques(8)
    v = diameter_at_most(g, 3)
    assert not v.holds
    a, b = v.witness
    assert (a < 4) != (b < 4)  # antipodal pair straddles the cliques


@st.composite
def diameter_cases(draw):
    """Graphs from the families the sweeps check, each plus up to 2n
    random edges: G(n, p), two cliques, blocked G(n, p), disjoint
    cliques (disconnected without the extra edges) and complete
    multipartite graphs, down to n = 1.  The first three also come at
    sizes on and around the 64-bit word boundaries, up to three words."""
    kind = draw(st.sampled_from(
        ["gnp", "two_cliques", "blocked_gnp", "disjoint_cliques", "multipartite"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    wide = st.sampled_from([63, 64, 65, 128, 129, 150])
    if kind == "gnp":
        g = random_graph(rng, draw(st.integers(1, 24) | wide), draw(st.floats(0, 1)))
    elif kind == "two_cliques":
        g = two_cliques(draw(st.integers(2, 30) | wide))
    elif kind == "blocked_gnp":
        n = draw(st.integers(16, 40) | wide)
        g = blocked_gnp(n, Fraction(1, 10), SeedSpec(rng.randrange(2**32)))
    elif kind == "disjoint_cliques":
        n = draw(st.integers(1, 30))
        g = disjoint_cliques(n, draw(st.integers(1, n)))
    else:
        g = complete_multipartite(draw(st.lists(st.integers(1, 6), min_size=1, max_size=6)))
    pool = non_edges(g)
    extra = draw(st.integers(0, 2 * g.n))
    return g.with_edges(rng.sample(pool, min(extra, len(pool))))


@settings(max_examples=300, deadline=None)
@given(diameter_cases())
def test_diameter_at_most_matches_per_source_bfs(g):
    d = diameter(g)
    for t in range(7):
        v = diameter_at_most(g, t)
        want = bfs_diameter_at_most(g, t)
        assert (v.holds, v.witness, v.reason) == want, t
        assert want[0] == (d <= t), t


def test_diameter_at_most_witness_in_top_word():
    # vertex 0 joins 1..128 and a path runs 128-129-...-149, so the
    # degree screen keeps 0 first and its BFS probe passes at t = 22;
    # the levels must then find 1, whose 22-ball misses only 149, a bit
    # of the third 64-bit word
    g = Graph(150, [(0, v) for v in range(1, 129)] + [(v, v + 1) for v in range(128, 149)])
    assert diameter(g) == 23
    assert diameter_at_most(g, 22).witness == (1, 149)
    for t in range(20, 25):
        v = diameter_at_most(g, t)
        assert (v.holds, v.witness, v.reason) == bfs_diameter_at_most(g, t), t


def test_diameter_at_most_small_t_and_one_vertex():
    one = Graph(1, [])
    for t in range(4):
        assert diameter_at_most(one, t).holds
    assert diameter_at_most(complete_graph(5), 0).witness == (0, 1)
    assert diameter_at_most(complete_graph(5), 1).holds
    k4_minus = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert diameter_at_most(k4_minus, 1).witness == (2, 3)
    with pytest.raises(ValueError):
        diameter_at_most(one, -1)


def test_degree_screen_boundaries():
    # P4: ends 0 and 3 are at distance 3 with degree sum 2 = n - 2, the
    # largest sum a pair at distance > 2 can have, so both stay sources
    p4 = path_graph(4)
    masks = [p4.adjacency_mask(v) for v in range(4)]
    closed = [m | 1 << v for v, m in enumerate(masks)]
    assert list(_screened_sources(masks, closed)) == [0, 3]
    assert diameter_at_most(p4, 2).witness == (0, 3)
    assert diameter_at_most(p4, 3).holds
    # 0 and 1 are non-adjacent with degree sum 4 = n - 1, which forces
    # the common neighbour 3; no pair is left for the screen to keep
    g = Graph(5, [(0, 2), (0, 3), (1, 3), (1, 4), (2, 3), (3, 4)])
    masks = [g.adjacency_mask(v) for v in range(5)]
    closed = [m | 1 << v for v, m in enumerate(masks)]
    assert list(_screened_sources(masks, closed)) == []
    assert diameter(g) == 2 and diameter_at_most(g, 2).holds


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

def test_is_k_connected_examples():
    k5 = complete_graph(5)
    assert is_k_connected(k5, 4).holds
    assert not is_k_connected(k5, 5).holds
    c6 = cycle_graph(6)
    assert is_k_connected(c6, 2).holds
    v = is_k_connected(c6, 3)
    assert not v.holds and len(v.witness) == 2


def test_is_k_connected_derived_example():
    # four disjoint K_3s on 12 vertices joined by one edge per clique
    # pair: still not 2-connected; verified against brute-force kappa
    h = disjoint_cliques(12, 4)
    bridges = [(0, 4), (0, 8), (4, 8)]
    g = h.with_edges(bridges)
    v = is_k_connected(g, 2)
    assert not v.holds
    assert brute_vertex_connectivity(g) < 2
    _assert_separator(g, v.witness)


def _assert_separator(g, sep):
    assert isinstance(sep, frozenset)
    alive = [v for v in range(g.n) if v not in sep]
    if not alive:
        return
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w not in sep and w not in seen:
                seen.add(w)
                stack.append(w)
    assert len(seen) < len(alive), "witness does not separate"


def test_is_k_connected_exhaustive_n5():
    # every labeled graph on 5 vertices, every threshold, against the
    # separator-enumeration oracle
    from oracles import graph_from_int

    for code in range(1 << 10):
        g = graph_from_int(5, code)
        kappa = brute_vertex_connectivity(g)
        for k in range(0, 6):
            want = True if k == 0 else (g.n > k and kappa >= k)
            assert is_k_connected(g, k).holds == want


def test_is_k_connected_witnesses_on_random_graphs():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.uniform(0.2, 0.9))
        kappa = brute_vertex_connectivity(g)
        for k in range(0, n + 1):
            v = is_k_connected(g, k)
            want = (g.n >= 1) if k == 0 else (n > k and kappa >= k)
            assert v.holds == want, (g.edges(), k, kappa)
            if not v.holds and isinstance(v.witness, frozenset) and n > k:
                assert len(v.witness) < k
                _assert_separator(g, v.witness)


def test_vertex_connectivity_examples():
    assert vertex_connectivity(complete_graph(7)) == 6
    assert vertex_connectivity(two_cliques(8)) == 0
    assert vertex_connectivity(petersen()) == 3 == brute_vertex_connectivity(petersen())
    with pytest.raises(ValueError):
        vertex_connectivity(Graph(1, []))


def test_k0_and_disconnected_conventions():
    g = two_cliques(6)
    assert is_k_connected(g, 0).holds
    v = is_k_connected(g, 1)
    assert not v.holds and v.witness == frozenset()


@st.composite
def relabelled_cliques_plus_edges(draw, max_n=40):
    # cliques plus up to 3n random edges, vertices shuffled so that the
    # k-set {0, ..., k-1} spans several cliques
    n = draw(st.integers(2, max_n))
    h = disjoint_cliques(n, draw(st.integers(1, max(1, n // 2))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    extra = [tuple(rng.sample(range(n), 2)) for _ in range(draw(st.integers(0, 3 * n)))]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in h.with_edges(extra).edges()])


@settings(max_examples=300, deadline=None)
@given(st.one_of(gnp_graphs(), cliques_plus_edges(), relabelled_cliques_plus_edges()))
def test_is_k_connected_matches_split_flow_oracle(g):
    # same verdict, reason and separator as Dinic on the built split
    # network; the oracle runs a fan flow for every outside vertex not
    # joined to the whole k-set, so a linked-neighbour skip that changed
    # any verdict or witness would show
    for k in range(9):
        v = is_k_connected(g, k)
        assert (v.holds, v.witness, v.reason) == split_flow_is_k_connected(g, k), k


@pytest.mark.parametrize("n, s, k", [(120, 13, 3), (120, 13, 6), (240, 25, 3)])
def test_k_connected_flows_at_most_k_per_later_clique(monkeypatch, n, s, k):
    # clique 0 holds the k-set, so its other vertices skip their flows,
    # and in every later clique only the first k vertices can need one
    flows = []

    def counted(*args, **kwargs):
        flows.append(1)
        return _disjoint_paths(*args, **kwargs)

    monkeypatch.setattr(connectivity_mod, "_disjoint_paths", counted)
    h = disjoint_cliques(n, s)
    t = n // s
    positives = 0
    for m in (k * t, 3 * k * t, 12 * k * t):
        for seed in range(4):
            flows.clear()
            if is_k_connected(augment_uniform(h, m, SeedSpec(seed)).graph, k).holds:
                positives += 1
                assert len(flows) <= k * (t - 1), (m, seed, len(flows))
    assert positives >= 4


@settings(max_examples=200, deadline=None)
@given(st.one_of(gnp_graphs(), cliques_plus_edges()).filter(lambda g: g.n >= 2), st.data())
def test_disjoint_paths_match_split_flow_min_cut(g, data):
    # uncapped (k = n), so the flow is always maximum and the reach
    # masks must be the source side of the minimal minimum cut
    t = data.draw(st.integers(0, g.n - 1))
    sources = [v for v in range(g.n) if v != t and not g.has_edge(v, t)]
    s, members = None, ()
    if sources and data.draw(st.booleans()):
        s = data.draw(st.sampled_from(sources))
    else:
        others = [v for v in range(g.n) if v != t]
        members = data.draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
    masks = [g.adjacency_mask(v) for v in range(g.n)]
    flow, in_reach, out_reach = _disjoint_paths(masks, t, g.n, s=s, members=vertex_mask(members))
    assert (flow, set(_bits(in_reach)), set(_bits(out_reach))) == split_flow_reach(
        g, t, s=s, members=members)


def test_disjoint_paths_back_through_a_used_vertex():
    # a later path from 1 to 3 reroutes an earlier one back through a
    # used vertex's own split arc, which takes that vertex out of the flow
    g = Graph(18, [(0, 1), (0, 4), (0, 13), (0, 17), (1, 6), (1, 8), (1, 9), (1, 11),
                   (2, 3), (2, 6), (2, 12), (2, 17), (3, 5), (3, 16), (4, 5), (5, 7),
                   (5, 13), (5, 14), (6, 7), (6, 9), (6, 15), (7, 9), (8, 9), (9, 13),
                   (10, 11), (10, 13), (12, 13), (14, 15), (15, 17), (16, 17)])
    masks = [g.adjacency_mask(v) for v in range(g.n)]
    flow, in_reach, out_reach = _disjoint_paths(masks, 3, g.n, s=1)
    assert (flow, set(_bits(in_reach)), set(_bits(out_reach))) == split_flow_reach(g, 3, s=1)


@settings(max_examples=150, deadline=None)
@given(gnp_graphs(max_n=9).filter(lambda g: g.n >= 2))
def test_vertex_connectivity_matches_brute(g):
    assert vertex_connectivity(g) == brute_vertex_connectivity(g)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 70), st.floats(0, 0.12), st.integers(0, 2**32))
def test_connected_components_match_neighbor_bfs(n, p, seed):
    # sparse graphs up to n=70 so masks cross 64 bits and components vary
    g = random_graph(random.Random(seed), n, p)
    assert connected_components(g) == bfs_components(g)
    assert is_connected(g) == (len(bfs_components(g)) == 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 70), st.floats(0, 0.2), st.integers(0, 2**32), st.data())
def test_components_in_mask_match_induced_bfs(n, p, seed, data):
    g = random_graph(random.Random(seed), n, p)
    full = (1 << n) - 1
    alive = data.draw(st.sampled_from([0, full]) | st.integers(0, full))
    ids = _bits(alive)
    expect = [vertex_mask(ids[i] for i in comp)
              for comp in bfs_components(induced_subgraph(g, ids))]
    masks = [g.adjacency_mask(v) for v in range(n)]
    assert _components(masks, alive) == expect


# ---------------------------------------------------------------------------
# coloring
# ---------------------------------------------------------------------------

def test_chromatic_examples():
    assert chromatic_number(complete_graph(5)) == 5
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(petersen()) == 3


def test_chromatic_cap_rejection():
    g = gnm(41, 100, SeedSpec(0))
    with pytest.raises(ValueError, match="clique"):
        chromatic_number(g, cap=40)


def test_minimum_coloring_proper_and_optimal():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        colors = minimum_coloring(g)
        assert all(colors[u] != colors[v] for u, v in g.edges())
        assert max(colors) + 1 == brute_chromatic_number(g)


def test_clique_lower_bound_for_coloring():
    rng = random.Random(41)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        if contains_kr(g, 4).holds:
            assert chromatic_number(g) >= 4
        assert clique_number(g) <= chromatic_number(g)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_examples():
    for r in range(3, 9):
        assert max_subgraph_density(complete_graph(r)).value == Fraction(r - 1, 2)
    assert max_subgraph_density(Graph(2, [(0, 1)])).value == Fraction(1, 2)
    k4_pendant = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    dm = max_subgraph_density(k4_pendant)
    assert dm.value == Fraction(3, 2)
    assert dm.witness_set == (0, 1, 2, 3)
    assert dm.value == brute_max_density(k4_pendant)


def test_density_witness_attains_value():
    rng = random.Random(61)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 11), rng.random())
        dm = max_subgraph_density(g)
        sub = induced_subgraph(g, dm.witness_set)
        assert Fraction(sub.edge_count, sub.n) == dm.value
        assert dm.value == brute_max_density(g)


# ---------------------------------------------------------------------------
# monotonicity of the studied properties under edge addition
# ---------------------------------------------------------------------------

def test_single_edge_addition_monotonicity():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        pool = non_edges(g)
        if not pool:
            continue
        e = rng.choice(pool)
        g2 = g.with_edges([e])
        assert clique_number(g2) >= clique_number(g)
        assert vertex_connectivity(g2) >= vertex_connectivity(g)
        d = diameter(g)
        if d != math.inf:
            assert diameter(g2) <= d
