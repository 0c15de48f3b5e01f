"""Random edge addition: the uniform m-subset model and the independent
per-non-edge Bernoulli model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Edge, Graph, non_edges
from .seeds import SeedSpec


@dataclass(frozen=True)
class AugmentResult:
    """An augmented graph together with the record that produced it.

    added lists the new edges in addition order; none of them was an
    edge of the base graph and e(graph) = base_edge_count + len(added).
    """

    graph: Graph
    added: tuple[Edge, ...]
    base_edge_count: int
    seed: SeedSpec


def augment_uniform(h: Graph, m: int, seed: SeedSpec) -> AugmentResult:
    """Add a uniformly random m-subset of the non-edges of h.

    The subset is drawn by a seeded partial Fisher-Yates shuffle over
    the lexicographic non-edge list, so identical seeds reproduce the
    same edges in the same order.  All m swap positions come from one
    rng.integers call with lower bounds 0..m-1, which draws the same
    stream as one scalar rng.integers(i, N) per step.
    """
    pool = non_edges(h)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > len(pool):
        raise ValueError(
            f"m={m} exceeds the {len(pool)} available non-edges (maximum m={len(pool)})"
        )
    rng = seed.generator()
    for i, j in enumerate(rng.integers(np.arange(m), len(pool)).tolist()):
        pool[i], pool[j] = pool[j], pool[i]
    added = tuple(pool[:m])
    return AugmentResult(h.with_edges(added), added, h.edge_count, seed)


def augment_bernoulli(h: Graph, p: float, seed: SeedSpec) -> AugmentResult:
    """Add each non-edge of h independently with probability p."""
    if not (0 <= p <= 1):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    pool = non_edges(h)
    rng = seed.generator()
    keep = np.flatnonzero(rng.random(len(pool)) < p).tolist()
    added = tuple(pool[i] for i in keep)
    return AugmentResult(h.with_edges(added), added, h.edge_count, seed)

