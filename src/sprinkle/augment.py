"""Random edge addition along one labelled order of the non-edges.

The non-edge of h at lexicographic position i gets the label U[i],
where U = seed.generator().random(N) holds iid uniform labels.  The
uniform m-subset model takes the m pairs with the smallest labels and
the Bernoulli model every pair with a label below p, both listed in
increasing (label, position) order.  So, as in the random graph
process, one seed's edge sets are nested: its set at a smaller m (or p)
is a prefix of its set at a larger one.

The pool is read as core._pool's position arrays and the chosen pairs
stay arrays (u, v) in label order; the tuple of pairs is built only
when AugmentResult.added is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# non_edges stays resolvable here: perfbench/tracing.py wraps this name
from .core import Edge, Graph, _pool, non_edges  # noqa: F401
from .seeds import SeedSpec


@dataclass(frozen=True, eq=False)
class AugmentResult:
    """The non-edges (u[i], v[i]) of base added in (label, position)
    order, with labels[i] the label of pair i; added and graph are
    built on first read."""

    base: Graph
    u: np.ndarray
    v: np.ndarray
    labels: np.ndarray
    seed: SeedSpec

    @cached_property
    def added(self) -> tuple[Edge, ...]:
        return tuple(zip(self.u.tolist(), self.v.tolist()))

    @cached_property
    def graph(self) -> Graph:
        return self.base._with_pool_pairs(self.u, self.v)


def _labelled(h: Graph, seed: SeedSpec, picked, limit=None) -> AugmentResult:
    """The first limit non-edges of h, in (label, position) order, among
    those at the positions picked(labels) returns in increasing order."""
    u, v = _pool(h)
    labels = seed.generator().random(len(u))
    keep = picked(labels)
    keep = keep[np.argsort(labels[keep], kind="stable")][:limit]
    return AugmentResult(h, u[keep], v[keep], labels[keep], seed)


def augment_uniform(h: Graph, m: int, seed: SeedSpec) -> AugmentResult:
    """Add the m non-edges of h with the smallest labels, a uniformly
    random m-subset; only labels up to the m-th smallest are sorted."""
    size = h.n * (h.n - 1) // 2 - h.edge_count
    if not 0 <= m <= size:
        raise ValueError(
            f"m={m} must lie in 0..{size}, the count of non-edges (maximum m={size})")

    def smallest(labels):
        cut = np.partition(labels, m - 1)[m - 1] if m else -1.0
        return np.flatnonzero(labels <= cut)  # a tie at cut may add a few

    return _labelled(h, seed, smallest, m)


def augment_bernoulli(h: Graph, p: float, seed: SeedSpec) -> AugmentResult:
    """Add the non-edges of h with labels below p, each with probability p."""
    if not (0 <= p <= 1):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return _labelled(h, seed, lambda labels: np.flatnonzero(labels < p))
