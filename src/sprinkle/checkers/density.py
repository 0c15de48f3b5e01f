"""Maximum subgraph density max e(S)/|S| over nonempty vertex sets,
exact in rational arithmetic.

Each round asks, via a min-cut on the standard edge/vertex network,
whether some set beats the current best ratio a/b (capacities are
scaled by b so everything stays integral); the source side of the cut
is that better set.  Ratios improve by at least 1/(|S|*|S'|) per round,
so the loop terminates at the exact optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..core import Graph, VertexSet, edges_within, vertex_mask
from ._maxflow import MaxFlow


@dataclass(frozen=True)
class DensityMeasure:
    value: Fraction
    witness_set: VertexSet


def _denser_set(g: Graph, a: int, b: int) -> list[int] | None:
    """A vertex set S with e(S)/|S| > a/b, or None if none exists."""
    edges = g.edges()
    m = len(edges)
    if m == 0:
        return None
    n = g.n
    s, t = m + n, m + n + 1
    net = MaxFlow(m + n + 2)
    big = b * m + a * n + 1
    for i, (u, v) in enumerate(edges):
        net.add_edge(s, i, b)
        net.add_edge(i, m + u, big)
        net.add_edge(i, m + v, big)
    for v in range(n):
        net.add_edge(m + v, t, a)
    flow = net.max_flow(s, t)
    if flow >= b * m:
        return None
    reach = net.source_side(s)
    found = [v for v in range(n) if (m + v) in reach]
    return found or None


def max_subgraph_density(g: Graph) -> DensityMeasure:
    """Exact max of e(S)/|S| over nonempty S, with a witness set."""
    if g.n == 0:
        raise ValueError("density undefined on the empty graph (n=0)")
    if g.edge_count == 0:
        return DensityMeasure(Fraction(0), (0,))
    best = Fraction(g.edge_count, g.n)
    witness = tuple(range(g.n))
    while True:
        s = _denser_set(g, best.numerator, best.denominator)
        if s is None:
            return DensityMeasure(best, witness)
        value = Fraction(edges_within(g, vertex_mask(s)), len(s))
        if value <= best:
            raise RuntimeError("density search failed to improve; flow network bug")
        best = value
        witness = tuple(sorted(s))
