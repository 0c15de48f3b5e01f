"""Diameter via bitset layered BFS from every vertex.

Disconnected graphs get the distinguished value math.inf rather than a
sentinel integer, so comparisons like "diameter >= 3" behave correctly
with infinity as the maximum of the order.
"""

from __future__ import annotations

import math

from ..core import Graph
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
    masks = [g.adjacency_mask(v) for v in range(g.n)]
    full = (1 << g.n) - 1
    worst = 0
    for v in range(g.n):
        ecc, visited = _eccentricity(masks, full, v)
        if visited != full:
            return math.inf
        worst = max(worst, ecc)
    return worst


def diameter_at_most(g: Graph, t: int) -> PropertyVerdict:
    """Early-exit check that every pair is within distance t.  On
    failure the witness is a vertex pair at distance greater than t."""
    if g.n == 0:
        raise ValueError("diameter undefined on the empty graph (n=0)")
    if t < 0:
        raise ValueError("t must be nonnegative")
    masks = [g.adjacency_mask(v) for v in range(g.n)]
    full = (1 << g.n) - 1
    for v in range(g.n):
        ecc, visited = _eccentricity(masks, full, v, cutoff=t)
        if visited != full:
            far = (~visited & full)
            u = (far & -far).bit_length() - 1
            return PropertyVerdict(False, witness=(v, u))
    return PropertyVerdict(True)
