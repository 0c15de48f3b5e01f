import pytest

from oracles import brute_vertex_connectivity
from sprinkle import (
    Graph,
    SeedSpec,
    blocked_gnp,
    complete_graph,
    dense_partition,
    density_param,
    disjoint_cliques,
    gnm,
    induced_subgraph,
    is_k_connected,
    mader_subgraph,
    mader_tightness_graph,
    min_degree,
    two_cliques,
    vertex_connectivity,
)


def _ceil_div(a, b):
    return -((-a) // b)


def test_mader_on_complete_graph():
    k = 6
    s = mader_subgraph(complete_graph(k + 1), k)
    assert s == tuple(range(k + 1))
    assert vertex_connectivity(complete_graph(k + 1)) == k


def test_mader_on_two_cliques():
    g = Graph(
        18,
        [(u, v) for u in range(9) for v in range(u + 1, 9)]
        + [(u, v) for u in range(9, 18) for v in range(u + 1, 18)],
    )
    s = mader_subgraph(g, 8)
    assert s in (tuple(range(9)), tuple(range(9, 18)))
    sub = induced_subgraph(g, s)
    assert vertex_connectivity(sub) == 8 >= _ceil_div(8, 4)


def test_mader_postcondition_certified_on_random_inputs():
    for i, (n, m, k) in enumerate([(20, 60, 6), (24, 100, 8), (30, 120, 8)]):
        g = gnm(n, m, SeedSpec(100 + i))
        if 2 * g.edge_count < k * g.n:
            continue
        s = mader_subgraph(g, k)
        sub = induced_subgraph(g, s)
        assert is_k_connected(sub, _ceil_div(k, 4)).holds


def test_mader_tightness_instance_has_connected_core():
    g = mader_tightness_graph(30, 5, SeedSpec(5))
    s = mader_subgraph(g, 5)
    sub = induced_subgraph(g, s)
    assert is_k_connected(sub, _ceil_div(5, 4)).holds


def test_mader_precondition_rejected():
    with pytest.raises(ValueError, match="average degree"):
        mader_subgraph(two_cliques(4), 3)  # avg degree 1 < 3
    with pytest.raises(ValueError):
        mader_subgraph(complete_graph(4), 0)


def test_dense_partition_on_disjoint_cliques():
    g = disjoint_cliques(40, 8)
    k = 7
    result = dense_partition(g, k)
    bound = _ceil_div(k * k, 16 * g.n)
    assert bound == 1
    covered = sorted(v for part in result.parts for v in part)
    assert covered == list(range(40))
    for part in result.parts:
        assert len(part) >= _ceil_div(k, 8)
        assert is_k_connected(induced_subgraph(g, part), bound).holds
    assert result.t * k <= 8 * g.n


def test_dense_partition_on_complete_graph():
    n = 20
    g = complete_graph(n)
    result = dense_partition(g, n - 1)
    assert result.t == 1
    assert result.parts[0] == tuple(range(n))
    bound = _ceil_div((n - 1) ** 2, 16 * n)
    assert vertex_connectivity(g) == n - 1 >= bound


def test_dense_partition_on_blocked_graph():
    g = blocked_gnp(80, density_param(0.2), SeedSpec(12))
    k = 16
    assert min_degree(g) >= k
    result = dense_partition(g, k)
    bound = _ceil_div(k * k, 16 * g.n)  # ceil(256/1280) = 1
    assert bound == 1
    for part in result.parts:
        assert len(part) >= 2
        assert is_k_connected(induced_subgraph(g, part), bound).holds


def test_dense_partition_deterministic():
    g = gnm(40, 260, SeedSpec(9))
    k = min_degree(g)
    assert k > 0
    assert dense_partition(g, k).parts == dense_partition(g, k).parts


def test_dense_partition_parts_disjoint_cover():
    g = gnm(50, 420, SeedSpec(14))
    k = min_degree(g)
    result = dense_partition(g, k)
    seen = [v for part in result.parts for v in part]
    assert sorted(seen) == list(range(50))
    assert len(set(seen)) == len(seen)
    # seeds are contained in their parts
    for seed in result.seed_subgraphs:
        assert any(set(seed) <= set(part) for part in result.parts)


def test_dense_partition_precondition():
    with pytest.raises(ValueError, match="below k"):
        dense_partition(two_cliques(10), 5)
    with pytest.raises(ValueError):
        dense_partition(complete_graph(4), 0)


def test_partition_certification_against_brute_force():
    # spot-check the certified threshold with the enumeration oracle
    g = gnm(9, 24, SeedSpec(33))
    k = min_degree(g)
    result = dense_partition(g, k)
    bound = _ceil_div(k * k, 16 * g.n)
    for part in result.parts:
        sub = induced_subgraph(g, part)
        if sub.n >= 2:
            assert brute_vertex_connectivity(sub) >= bound
