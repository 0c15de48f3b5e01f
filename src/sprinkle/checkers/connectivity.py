"""Vertex connectivity by counting vertex-disjoint paths (Menger), with
the classic pair schedule: all pairs inside a fixed k-set, then a
super-source over that set against every outside vertex.  The paths are
augmenting paths of the vertex-split graph, searched on the adjacency
bitmasks without building a flow network.

Two exact shortcuts keep the common cases cheap: a vertex of degree
below k yields its neighborhood as an immediate separator, and minimum
degree at least (n + k - 2) / 2 forces k-connectivity outright.
"""

from __future__ import annotations

from ..core import Graph, _bits, vertex_mask
from ._verdict import PropertyVerdict
from .distance import _eccentricity


def _components(masks, alive: int) -> list[list[int]]:
    """Vertex sets of the components of the subgraph induced by the
    vertex mask alive, each sorted, in order of their least vertex.
    Each component is the ball of a mask-frontier BFS."""
    unseen = alive
    comps = []
    while unseen:
        _, comp = _eccentricity(masks, alive, (unseen & -unseen).bit_length() - 1)
        unseen &= ~comp
        comps.append(_bits(comp))
    return comps


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the components, each sorted, in order of their
    least vertex."""
    return _components(g.adjacency_masks(), (1 << g.n) - 1)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    return len(connected_components(g)) == 1


def _disjoint_paths(masks, t: int, k: int, s: int | None = None, members=()):
    """Up to k internally vertex-disjoint paths into t, either from the
    vertex s (not adjacent to t) or from a super-source joined by one
    unit arc to each member.

    This is unit-capacity max-flow on the vertex-split graph (in(v) ->
    out(v) with capacity 1, out(u) -> in(v) uncapped for every edge),
    but the network is never built: the flow is the set of used
    vertices plus, for each, frm[v], the vertex whose out-side feeds
    in(v) (-1 for the super-source).  Each augmenting path comes from a
    layered BFS whose out-frontier ORs the adjacency masks of its
    vertices, so a search costs O(n) big-int operations.

    Returns (flow, in_reach, out_reach).  When flow < k the flow is
    maximum and the two masks mark the vertices whose in-side and
    out-side the residual graph reaches from the source: the source side
    of the minimal minimum cut, the same for every maximum flow.
    """
    frm = [0] * len(masks)
    used = fed = 0  # vertices whose split arc carries flow; members fed by the super-source
    member_mask = vertex_mask(members)
    flow = 0
    while flow < k:
        # every residual arc joins an out-side to an in-side, so the BFS
        # alternates between the two; out_layers[i] feeds in-layer i + 1
        via = {}  # out(x) reached back from in(via[x]), undoing x -> via[x]
        if s is None:
            out_layers = []
            out_reach = 0
            in_front = member_mask & ~fed
        else:
            out_layers = [1 << s]
            out_reach = 1 << s
            in_front = masks[s]
        in_reach = in_front
        while not in_reach >> t & 1:
            # an unused in-side passes through its split arc; a used one
            # sends its flow back to the out-side feeding it
            out_front = in_front & ~used
            m = in_front & used
            while m:
                low = m & -m
                y = low.bit_length() - 1
                m ^= low
                x = frm[y]
                if x >= 0 and not out_reach >> x & 1:
                    via[x] = y
                    out_front |= 1 << x
            out_front &= ~out_reach
            if not out_front:
                return flow, in_reach, out_reach
            out_reach |= out_front
            out_layers.append(out_front)
            # an out-side reaches its neighbours' in-sides, and a used
            # vertex's out-side its own in-side against the split arc
            in_front = out_front & used
            m = out_front
            while m:
                low = m & -m
                in_front |= masks[low.bit_length() - 1]
                m ^= low
            in_front &= ~in_reach
            if not in_front:
                return flow, in_reach, out_reach
            in_reach |= in_front

        # walk the path back from t, moving the flow onto it as we go
        y = t
        for layer in reversed(out_layers):
            if layer >> y & 1:
                # in(y) was reached back through y's own split arc (an
                # unused out-side is reached only from its in-side), so
                # y leaves the flow
                used ^= 1 << y
                y = via[y]
                continue
            low = layer & masks[y]
            x = (low & -low).bit_length() - 1
            frm[y] = x
            if x == s:
                break
            if used >> x & 1:
                y = via[x]
            else:
                used |= 1 << x
                y = x
        else:
            frm[y] = -1
            fed |= 1 << y
        flow += 1
    return flow, 0, 0


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

    masks = g.adjacency_masks()
    for i in range(k):
        for j in range(i + 1, k):
            if g.has_edge(i, j):
                continue
            flow, in_reach, out_reach = _disjoint_paths(masks, j, k, s=i)
            if flow < k:
                # vertices cut at their split arc
                return PropertyVerdict(False, witness=frozenset(_bits(in_reach & ~out_reach)))

    members = tuple(range(k))
    member_mask = (1 << k) - 1
    for u in range(k, g.n):
        if masks[u] & member_mask == member_mask:
            # u adjacent to the whole k-set: any small cut separating u
            # would have to contain all k of them, impossible.
            continue
        flow, in_reach, out_reach = _disjoint_paths(masks, u, k, members=members)
        if flow < k:
            # plus the members cut at their super-source arc
            sep = in_reach & ~out_reach | member_mask & ~in_reach
            return PropertyVerdict(False, witness=frozenset(_bits(sep)))
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
    masks = g.adjacency_masks()
    nb = set(g.neighbors(v0))
    for u in range(g.n):
        if best == 0:
            return 0
        if u == v0 or u in nb:
            continue
        best = _disjoint_paths(masks, u, best, s=v0)[0]
    nbs = sorted(nb)
    for ix, x in enumerate(nbs):
        for y in nbs[ix + 1 :]:
            if best == 0:
                return 0
            if g.has_edge(x, y):
                continue
            best = _disjoint_paths(masks, y, best, s=x)[0]
    return best
