"""Exact clique checkers: maximum clique, fixed-size clique detection,
and clique counting.

All three work on integer-bitmask adjacency.  Maximum clique and
fixed-size detection share one branch and bound with a greedy-coloring
bound; the fixed-size question only raises its floor and stops at the
first clique of size r, so it never pays for the full optimum.

That search first splits the vertices into the components of the
complement.  Every edge between two such co-components is present, so g
is their join and its clique number is the sum of theirs.  On a complete
multipartite base plus sparse random edges the co-components are the
parts, and each is searched on its own sparse subgraph.
"""

from __future__ import annotations

from ..core import Graph, VertexSet
from ._verdict import PropertyVerdict
from .connectivity import _components


def _color_order(p: int, masks) -> list[tuple[int, int]]:
    """Greedy coloring of the candidate set p; returns (vertex, color)
    in nondecreasing color order.  color is an upper bound on the
    largest clique inside p containing that vertex and its successors."""
    out = []
    color = 0
    while p:
        color += 1
        q = p
        while q:
            low = q & -q
            v = low.bit_length() - 1
            out.append((v, color))
            p ^= low
            q = (q ^ low) & ~masks[v]
    return out


def _branch_and_bound(masks, p: int, floor: int, stop: int) -> list[int]:
    """Branch and bound over the cliques inside the vertex mask p with
    more than floor vertices, bounded by a greedy coloring of the
    candidate set.

    Returns the largest such clique it finds, stopping at the first one
    with stop vertices, or [] when none exists.  A node's need is how
    many vertices a clique must add to the current one to beat both
    floor and the best so far; it is recomputed only when the best may
    have grown.
    """
    best: list[int] = []
    cur: list[int] = []
    bar = floor  # the size a clique must beat: max(len(best), floor)

    def expand(p: int, depth: int) -> bool:
        nonlocal bar
        need = bar - depth
        if p.bit_count() <= need:
            return False
        last = depth + 1 >= stop
        for v, bound in reversed(_color_order(p, masks)):
            if bound <= need:
                return False
            cur.append(v)
            if last:
                best[:] = cur
                return True
            nxt = p & masks[v]
            if nxt:
                if expand(nxt, depth + 1):
                    return True
                need = bar - depth
            elif need < 1:
                best[:] = cur
                bar = depth + 1
                need = 1
            cur.pop()
            p ^= 1 << v
        return False

    expand(p, 0)
    return best


def _clique_search(g: Graph, floor: int, stop: int) -> list[int]:
    """The largest clique of g with more than floor vertices, stopping
    at the first one with stop vertices, or [] when none exists.

    With a connected complement this is one branch and bound over V.
    Otherwise each co-component is searched in turn for a clique of at
    most the stop vertices still missing, and the cliques are joined.
    A co-component that returns fewer vertices than asked for has
    returned its clique number, so the union is exact, and it never
    holds more than stop vertices.
    """
    masks = g.adjacency_masks()
    full = (1 << g.n) - 1
    comps = _components([full ^ m ^ (1 << v) for v, m in enumerate(masks)], full)
    if len(comps) <= 1:
        return _branch_and_bound(masks, full, floor, stop)
    found: list[int] = []
    for comp in comps:
        found += _branch_and_bound(masks, comp, 0, stop - len(found))
        if len(found) >= stop:
            break
    return found if len(found) > floor else []


def max_clique(g: Graph) -> VertexSet:
    """One maximum clique, as a sorted vertex tuple."""
    if g.n == 0:
        raise ValueError("max_clique undefined on the empty graph (n=0)")
    return tuple(sorted(_clique_search(g, 0, g.n)))


def clique_number(g: Graph) -> int:
    return len(max_clique(g))


def contains_kr(g: Graph, r: int) -> PropertyVerdict:
    """Does g contain a clique on r vertices?  The search stops at the
    first one, which is the witness."""
    if r < 1:
        raise ValueError("r must be positive")
    if r > g.n:
        return PropertyVerdict(False, reason=f"only {g.n} vertices")
    found = _clique_search(g, r - 1, r)
    if found:
        return PropertyVerdict(True, witness=tuple(sorted(found)))
    return PropertyVerdict(False, reason=f"no K_{r}")


def count_kr(g: Graph, r: int) -> int:
    """Exact number of r-vertex cliques in g."""
    if r < 1:
        raise ValueError("r must be positive")
    masks = g.adjacency_masks()

    def rec(p: int, need: int) -> int:
        if need == 0:
            return 1
        if p.bit_count() < need:
            return 0
        total = 0
        while p:
            low = p & -p
            p ^= low
            if p.bit_count() + 1 < need:
                break
            v = low.bit_length() - 1
            total += rec(p & masks[v], need - 1)
        return total

    return rec((1 << g.n) - 1, r)
