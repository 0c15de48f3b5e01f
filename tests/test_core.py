import io
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sprinkle import (
    Graph,
    complete_graph,
    density_param,
    induced_subgraph,
    is_dense,
    min_degree,
    non_edges,
    read_edge_list,
    two_cliques,
    write_edge_list,
)
from oracles import random_graph
from sprinkle.core import _pool, edges_within, vertex_mask


def test_build_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count == 3
    assert g.neighbors(0) == (1, 2)


def test_build_empty():
    g = Graph(4, [])
    assert g.edge_count == 0 and g.n == 4


def test_build_duplicate_collapses():
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.edge_count == 1


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        Graph(3, [(1, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\(0, 3\)"):
        Graph(3, [(0, 3)])


def test_numpy_integer_endpoints():
    # 1 << np.int64(70) overflows to 0, so endpoints must become Python ints
    ints = [(0, 70), (1, 2)]
    g = Graph(100, ints)
    assert Graph(100, np.array(ints)) == g
    assert Graph(100, []).with_edges(np.array(ints)) == g
    assert g.has_edge(0, 70) and g.has_edge(70, 0) and g.neighbors(0) == (70,)
    assert g.has_edge(0, np.int64(70)) and g.has_edge(np.int64(70), np.int64(0))
    assert not g.has_edge(np.int64(0), np.int64(71))
    with pytest.raises(TypeError):
        Graph(3, [(0.0, 1.0)])
    with pytest.raises(TypeError):
        g.with_edges([(0, 1.0)])


def test_min_degree_examples():
    assert min_degree(complete_graph(5)) == 4
    assert min_degree(Graph(4, [])) == 0
    assert min_degree(two_cliques(6)) == 2
    with pytest.raises(ValueError):
        min_degree(Graph(0, []))


def test_is_dense_examples():
    assert is_dense(complete_graph(10), Fraction(9, 10))
    two_k5 = two_cliques(10)
    assert not is_dense(two_k5, Fraction(1, 2))
    assert is_dense(two_k5, Fraction(2, 5))


def test_is_dense_exact_rational_boundary():
    # d*n integral: ceil(0.3 * 90) must be exactly 27, not a float artifact
    assert density_param(0.3) == Fraction(3, 10)
    assert density_param("0.3") * 90 == 27
    # a 27-regular graph on 90 vertices: circulant, offsets +-1..13 and 45
    offsets = list(range(1, 14)) + [45]
    edges = {(min(u, (u + o) % 90), max(u, (u + o) % 90)) for u in range(90) for o in offsets}
    g = Graph(90, sorted(edges))
    assert min_degree(g) == 27
    assert is_dense(g, 0.3)
    assert not is_dense(g, Fraction(27, 90) + Fraction(1, 1000))


def test_density_param_range():
    # a non-number too is a ValueError naming it: a TypeError or a
    # ZeroDivisionError would escape the CLI's error path
    for bad in (0, 1, -0.2, Fraction(7, 5), None, [1], {"d": 1}, "1/0", "half",
                float("nan")):
        with pytest.raises(ValueError, match="density") as info:
            density_param(bad)
        assert repr(bad) in str(info.value)


def test_induced_subgraph_examples():
    assert induced_subgraph(complete_graph(5), [0, 1, 2]) == complete_graph(3)
    g = Graph(6, [(0, 1), (2, 3)])
    single = induced_subgraph(g, [4])
    assert single.n == 1 and single.edge_count == 0
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    sub = induced_subgraph(c5, [0, 1, 3])
    assert sub.n == 3 and sub.edges() == [(0, 1)]


def test_induced_subgraph_rejects_bad_ids():
    with pytest.raises(ValueError):
        induced_subgraph(complete_graph(3), [0, 5])
    with pytest.raises(ValueError):
        induced_subgraph(complete_graph(3), [1, 1])


def test_non_edges_examples():
    assert non_edges(complete_graph(4)) == ()
    assert non_edges(Graph(3, [])) == ((0, 1), (0, 2), (1, 2))
    assert non_edges(Graph(3, [(0, 1), (1, 2)])) == ((0, 2),)


def test_non_edges_is_the_same_on_every_call():
    g = Graph(4, [(0, 1), (2, 3)])
    first = non_edges(g)
    assert first == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert non_edges(g) == first
    # a graph equal to g lists the same pairs
    assert non_edges(Graph(4, [(2, 3), (1, 0)])) == first


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 40), st.floats(0, 1), st.integers(0, 2**32))
def test_pool_arrays_list_the_non_edges_in_order(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    u, v = _pool(g)
    assert u.dtype.kind == v.dtype.kind == "i"
    lex = tuple((a, b) for a in range(n) for b in range(a + 1, n) if not g.has_edge(a, b))
    assert tuple(zip(u.tolist(), v.tolist())) == lex == non_edges(g)
    assert _pool(g) is _pool(g)
    assert g.adjacency_masks() == tuple(g.adjacency_mask(w) for w in range(n))


def test_identity_relabeling_is_same_graph():
    g = Graph(5, [(0, 3), (1, 4), (2, 3)])
    assert induced_subgraph(g, range(5)) == g


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_non_edge_count_complements_edges(g):
    assert len(non_edges(g)) + g.edge_count == g.n * (g.n - 1) // 2


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_induced_min_degree_bound(g, data):
    s = data.draw(
        st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n, unique=True)
    )
    sub = induced_subgraph(g, s)
    assert min_degree(sub) <= min(g.degree(v) for v in s)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_adjacency_symmetric_no_loops(g):
    for v in range(g.n):
        assert not g.has_edge(v, v)
        for u in g.neighbors(v):
            assert g.has_edge(u, v) and g.has_edge(v, u)
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=20), st.data())
def test_edges_within_matches_pair_count(g, data):
    ids = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n, unique=True))
    assert vertex_mask(ids) == sum(1 << v for v in ids)
    assert edges_within(g, vertex_mask(ids)) == sum(g.has_edge(u, v) for u, v in combinations(ids, 2))


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=20), st.data())
def test_with_edges_matches_rebuild(g, data):
    pairs = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
    extra = data.draw(st.lists(st.sampled_from(pairs))) if pairs else []
    before = g.edges()
    h = g.with_edges(extra)
    rebuilt = Graph(g.n, before + extra)
    assert h == rebuilt and h.edge_count == rebuilt.edge_count == len(h.edges())
    assert g.edges() == before
    for v in range(h.n):
        nb = h.neighbors(v)
        assert all(a < b for a, b in zip(nb, nb[1:]))
        assert sum(1 << u for u in nb) == h.adjacency_mask(v)
    lex = [(u, v) for u in range(h.n) for v in range(u + 1, h.n)]
    assert h.edges() == [e for e in lex if h.has_edge(*e)]
    assert non_edges(h) == tuple(e for e in lex if not h.has_edge(*e))
    with pytest.raises(ValueError, match="self-loop"):
        g.with_edges([(0, 0)])
    for bad in ((0, g.n), (-1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            g.with_edges([bad])


def test_edge_list_roundtrip(tmp_path):
    g = Graph(6, [(0, 5), (2, 3), (1, 4), (0, 1)])
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    text = path.read_text()
    assert text.startswith("6 4\n") and text.endswith("\n")
    assert read_edge_list(path) == g


def test_edge_list_reader_tolerates_comments():
    src = io.StringIO("# a graph\n3 2\n0 1  # first\n\n1 2\n")
    g = read_edge_list(src)
    assert g.edges() == [(0, 1), (1, 2)]


def test_edge_list_reader_rejects_malformed():
    with pytest.raises(ValueError, match="header"):
        read_edge_list(io.StringIO("3\n"))
    with pytest.raises(ValueError, match="edge lines"):
        read_edge_list(io.StringIO("3 2\n0 1\n"))
    with pytest.raises(ValueError, match="integers"):
        read_edge_list(io.StringIO("3 1\na b\n"))
    # the same edge twice: two lines, as declared, but one distinct edge
    with pytest.raises(ValueError, match="declares 2 edges but 1 distinct"):
        read_edge_list(io.StringIO("3 2\n0 1\n1 0\n"))
