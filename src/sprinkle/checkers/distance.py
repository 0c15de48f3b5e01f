"""Diameter on adjacency bitmasks.

diameter() runs a layered BFS from every vertex.  diameter_at_most(g, t)
decides "every pair within distance t" without one: a degree screen
drops the vertices that are within distance 2 of everything, and the
balls of the rest grow by a recurrence over whole balls,
B_{k+1}(v) = OR of B_k(w) over w in N[v], instead of one BFS each.

Disconnected graphs get the distinguished value math.inf rather than a
sentinel integer, so comparisons like "diameter >= 3" behave correctly
with infinity as the maximum of the order.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import accumulate
from operator import or_

from ..core import Graph, _bits
from ._verdict import PropertyVerdict


def _eccentricity(masks, full: int, v: int, cutoff: int | None = None):
    """(eccentricity, visited mask) of v in the subgraph induced by the
    vertex mask full, which holds v; eccentricity is None if cutoff hit
    before the ball covered every vertex."""
    visited = frontier = 1 << v
    depth = 0
    while frontier:
        if cutoff is not None and depth >= cutoff:
            return (depth if visited == full else None), visited
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= masks[low.bit_length() - 1]
            m ^= low
        nxt &= full ^ visited
        if not nxt:
            break
        visited |= nxt
        frontier = nxt
        depth += 1
    return depth, visited


def diameter(g: Graph) -> int | float:
    """Largest shortest-path distance over all vertex pairs; math.inf
    when g is disconnected; 0 for the one-vertex graph."""
    if g.n == 0:
        raise ValueError("diameter undefined on the empty graph (n=0)")
    masks = g.adjacency_masks()
    full = (1 << g.n) - 1
    worst = 0
    for v in range(g.n):
        ecc, visited = _eccentricity(masks, full, v)
        if visited != full:
            return math.inf
        worst = max(worst, ecc)
    return worst


def _screened_sources(masks, closed) -> Iterator[int]:
    """The vertices u, in id order, with a non-neighbour v such that
    deg u + deg v <= n - 2.  A pair at distance more than 2 is
    non-adjacent with disjoint neighbourhoods inside V - {u, v}, so
    every other vertex has all of V within distance 2, and every vertex
    far from a kept u is one of its partners v."""
    n = len(masks)
    degrees = [m.bit_count() for m in masks]
    by_degree = [0] * n
    for v, d in enumerate(degrees):
        by_degree[d] |= 1 << v
    low = list(accumulate(by_degree, or_))  # low[d]: the vertices of degree <= d
    cap = n - 2 - min(degrees)
    return (u for u, d in enumerate(degrees)
            if d <= cap and low[n - 2 - d] & ~closed[u])


def _union(balls, ids) -> int:
    """The union of balls[w] over the vertices w in ids."""
    ball = 0
    for w in ids:
        ball |= balls[w]
    return ball


def _all_full(ids, balls, full: int) -> PropertyVerdict:
    """Whether balls[i], the t-ball of ids[i], is all of V for each i in
    turn; the first that is not gives the witness (v, u), u the
    smallest vertex outside the ball of v."""
    for v, ball in zip(ids, balls):
        if ball != full:
            far = full & ~ball
            return PropertyVerdict(False, witness=(v, (far & -far).bit_length() - 1))
    return PropertyVerdict(True)


def diameter_at_most(g: Graph, t: int) -> PropertyVerdict:
    """Early-exit check that every pair is within distance t.  On
    failure the witness is (v, u): v the first vertex in id order whose
    t-ball misses a vertex, u the smallest vertex it misses.

    For t >= 2 only the vertices the degree screen keeps can fail.  The
    first of them is probed by BFS, since a failing graph usually fails
    there.  The rest are decided by the ball recurrence: levels 2..t-1
    for every vertex, stopping once every remaining source's ball is
    full, then level t for the remaining sources in id order.
    """
    if g.n == 0:
        raise ValueError("diameter undefined on the empty graph (n=0)")
    if t < 0:
        raise ValueError("t must be nonnegative")
    masks = g.adjacency_masks()
    full = (1 << g.n) - 1
    closed = [m | 1 << v for v, m in enumerate(masks)]  # B_1(v) = N[v]
    if t < 2:
        return _all_full(range(g.n), closed if t else [1 << v for v in range(g.n)], full)
    sources = _screened_sources(masks, closed)
    first = next(sources, None)
    if first is None:
        return PropertyVerdict(True)
    _, visited = _eccentricity(masks, full, first, cutoff=t)
    if visited != full:
        return _all_full([first], [visited], full)
    rest = [s for s in sources if closed[s] != full]
    balls, nbrs = closed, None
    for _ in range(2, t):
        nbrs = nbrs or [_bits(c) for c in closed]
        balls = [b if b == full else _union(balls, ids) for b, ids in zip(balls, nbrs)]
        rest = [s for s in rest if balls[s] != full]
        if not rest:
            break
    last = (_union(balls, nbrs[s] if nbrs else _bits(closed[s])) for s in rest)
    return _all_full(rest, last, full)
