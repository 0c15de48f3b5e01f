"""Vertex connectivity via unit-capacity max-flow on the vertex-split
graph, with the classic pair schedule: all pairs inside a fixed k-set,
then a super-source over that set against every outside vertex.

Two exact shortcuts keep the common cases cheap: a vertex of degree
below k yields its neighborhood as an immediate separator, and minimum
degree at least (n + k - 2) / 2 forces k-connectivity outright.
"""

from __future__ import annotations

from ..core import Graph, _bits
from ._maxflow import MaxFlow
from ._verdict import PropertyVerdict
from .distance import _eccentricity


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the components, each sorted, in order of their
    least vertex.  Each component is the ball of a mask-frontier BFS."""
    masks = [g.adjacency_mask(v) for v in range(g.n)]
    full = unseen = (1 << g.n) - 1
    comps = []
    while unseen:
        _, comp = _eccentricity(masks, full, (unseen & -unseen).bit_length() - 1)
        unseen &= ~comp
        comps.append(_bits(comp))
    return comps


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    return len(connected_components(g)) == 1


def _split_network(g: Graph, super_members=()) -> MaxFlow:
    # node ids: in(v) = 2v, out(v) = 2v + 1, optional super-source 2n.
    # Edge arcs get capacity 2 so they never saturate (any through-flow
    # is limited to 1 by the split arcs) and every minimum cut consists
    # of split or super-source arcs only, i.e. of vertices.
    net = MaxFlow(2 * g.n + (1 if super_members else 0))
    for v in range(g.n):
        net.add_edge(2 * v, 2 * v + 1, 1)
    for u, v in g.edges():
        net.add_edge(2 * u + 1, 2 * v, 2)
        net.add_edge(2 * v + 1, 2 * u, 2)
    if super_members:
        ss = 2 * g.n
        for v in super_members:
            net.add_edge(ss, 2 * v, 1)
    return net


def _cut_separator(net: MaxFlow, g: Graph, source: int, members=()) -> frozenset:
    reach = net.source_side(source)
    sep = set()
    for v in range(g.n):
        if 2 * v in reach and 2 * v + 1 not in reach:
            sep.add(v)
    for v in members:
        if 2 * v not in reach:
            sep.add(v)
    return frozenset(sep)


def is_k_connected(g: Graph, k: int) -> PropertyVerdict:
    """True iff n > k and no vertex cut of size below k exists.  On a
    negative answer the witness is a separator of size below k, except
    in the n <= k case which is certified by the order alone."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        if g.n >= 1:
            return PropertyVerdict(True)
        return PropertyVerdict(False, reason="empty graph")
    if g.n <= k:
        return PropertyVerdict(False, reason=f"n={g.n} <= k={k}")
    if not is_connected(g):
        return PropertyVerdict(False, witness=frozenset(), reason="disconnected")
    if k == 1:
        return PropertyVerdict(True)
    degrees = [g.degree(v) for v in range(g.n)]
    v_min = min(range(g.n), key=lambda v: (degrees[v], v))
    if degrees[v_min] < k:
        return PropertyVerdict(
            False, witness=frozenset(g.neighbors(v_min)), reason="low-degree vertex"
        )
    if 2 * degrees[v_min] >= g.n + k - 2:
        # minimum degree >= (n + k - 2)/2 forces k-connectivity: a cut S
        # of size < k leaves a component of at most (n - |S|)/2 vertices,
        # whose members would have degree below that bound.
        return PropertyVerdict(True, reason="degree bound")

    members = tuple(range(k))
    net = _split_network(g, super_members=members)
    ss = 2 * g.n

    for i in range(k):
        for j in range(i + 1, k):
            if g.has_edge(i, j):
                continue
            net.reset()
            flow = net.max_flow(2 * i + 1, 2 * j, limit=k)
            if flow < k:
                sep = _cut_separator(net, g, 2 * i + 1)
                return PropertyVerdict(False, witness=sep)

    member_mask = 0
    for v in members:
        member_mask |= 1 << v
    for u in range(k, g.n):
        if g.adjacency_mask(u) & member_mask == member_mask:
            # u adjacent to the whole k-set: any small cut separating u
            # would have to contain all k of them, impossible.
            continue
        net.reset()
        flow = net.max_flow(ss, 2 * u, limit=k)
        if flow < k:
            sep = _cut_separator(net, g, ss, members=members)
            return PropertyVerdict(False, witness=sep)
    return PropertyVerdict(True)


def vertex_connectivity(g: Graph) -> int:
    """Exact kappa(g); by convention kappa(K_n) = n - 1.  Needs n >= 2."""
    if g.n < 2:
        raise ValueError("vertex connectivity needs n >= 2")
    degrees = [g.degree(v) for v in range(g.n)]
    dmin = min(degrees)
    if dmin == g.n - 1:
        return g.n - 1
    v0 = min(range(g.n), key=lambda v: (degrees[v], v))
    best = degrees[v0]
    net = _split_network(g)
    nb = set(g.neighbors(v0))
    for u in range(g.n):
        if best == 0:
            return 0
        if u == v0 or u in nb:
            continue
        net.reset()
        best = min(best, net.max_flow(2 * v0 + 1, 2 * u, limit=best))
    nbs = sorted(nb)
    for ix, x in enumerate(nbs):
        for y in nbs[ix + 1 :]:
            if best == 0:
                return 0
            if g.has_edge(x, y):
                continue
            net.reset()
            best = min(best, net.max_flow(2 * x + 1, 2 * y, limit=best))
    return best
