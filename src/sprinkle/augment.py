"""Random edge addition along one labelled order of the non-edges.

The non-edge of h at lexicographic position i gets the label U[i],
where U = seed.generator().random(N) holds iid uniform labels.  The
uniform m-subset model takes the m pairs with the smallest labels and
the Bernoulli model every pair with a label below p, both listed in
increasing (label, position) order.  So, as in the random graph
process, one seed's edge sets are nested: its set at a smaller m (or p)
is a prefix of its set at a larger one.

A draw keeps the pool positions it picked and their labels unordered,
and orders them only as far as they are read: AugmentResult.prefix(k)
selects the first k pairs with np.argpartition and sorts just those, so
a bisection that reads a few hundred pairs of a large draw never sorts
the rest.  The arrays u, v and labels, the tuple added and the graph
are built in label order on first read, from prefix(size) and
core._pool's position arrays.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# non_edges stays resolvable here: perfbench/tracing.py wraps this name
from .core import Edge, Graph, _pool, non_edges  # noqa: F401
from .seeds import SeedSpec


class AugmentResult:
    """The size non-edges of base a draw adds: the first size, in
    (label, position) order, of the pairs at the pool positions kept.
    Pair i is (u[i], v[i]) with label labels[i]; every field but base,
    seed and size is built on first read."""

    def __init__(self, base: Graph, seed: SeedSpec, kept: np.ndarray,
                 labels: np.ndarray, size: int):
        self.base, self.seed, self.size = base, seed, size
        # kept[:_sorted] is in (label, position) order and is never
        # reordered again; every label in it is at most every label after
        self._kept, self._labels, self._sorted = kept, labels, 0

    def prefix(self, k: int) -> np.ndarray:
        """The pool positions of the first k <= size pairs, in (label,
        position) order.  Past the sorted frontier, the rest is
        partitioned at k and only its new head is sorted.  The tie group
        at the cut is handed out by position, so the result is the one a
        stable sort of all the labels gives."""
        j = k - self._sorted
        if j > 0:
            # views of the unsorted rest, reordered in place
            kept, labels = self._kept[self._sorted:], self._labels[self._sorted:]
            if j < len(kept):
                rest = np.argpartition(labels, j - 1)
                kept[:], labels[:] = kept[rest], labels[rest]
                cut = labels[j - 1]
                if labels[j:].min() == cut:  # a tie group straddles the cut
                    tied = np.flatnonzero(labels == cut)
                    kept[tied] = np.sort(kept[tied])
            head = np.lexsort((kept[:j], labels[:j]))
            kept[:j], labels[:j] = kept[head], labels[head]
            self._sorted = k
        return self._kept[:k]

    def count_below(self, p: float) -> int:
        """How many of the pairs kept have a label below p: the k of the
        Bernoulli model at p <= the p drawn at."""
        return int(np.count_nonzero(self._labels < p))

    @cached_property
    def u(self) -> np.ndarray:
        return _pool(self.base)[0][self.prefix(self.size)]

    @cached_property
    def v(self) -> np.ndarray:
        return _pool(self.base)[1][self.prefix(self.size)]

    @cached_property
    def labels(self) -> np.ndarray:
        self.prefix(self.size)
        return self._labels[:self.size]

    @cached_property
    def added(self) -> tuple[Edge, ...]:
        return tuple(zip(self.u.tolist(), self.v.tolist()))

    @cached_property
    def graph(self) -> Graph:
        return self.base._with_pool_pairs(self.u, self.v)


def augment_uniform(h: Graph, m: int, seed: SeedSpec) -> AugmentResult:
    """Add the m non-edges of h with the smallest labels, a uniformly
    random m-subset; only labels up to the m-th smallest are kept."""
    size = h.n * (h.n - 1) // 2 - h.edge_count
    if not 0 <= m <= size:
        raise ValueError(
            f"m={m} must lie in 0..{size}, the count of non-edges (maximum m={size})")
    labels = seed.generator().random(size)
    cut = np.partition(labels, m - 1)[m - 1] if m else -1.0
    kept = np.flatnonzero(labels <= cut)  # a tie at cut may keep a few more
    return AugmentResult(h, seed, kept, labels[kept], m)


def augment_bernoulli(h: Graph, p: float, seed: SeedSpec) -> AugmentResult:
    """Add the non-edges of h with labels below p, each with probability p."""
    if not (0 <= p <= 1):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    labels = seed.generator().random(h.n * (h.n - 1) // 2 - h.edge_count)
    kept = np.flatnonzero(labels < p)
    return AugmentResult(h, seed, kept, labels[kept], len(kept))
