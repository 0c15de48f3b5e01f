"""Base-graph families: deterministic constructions and seeded random models.

These are the starting graphs to which random edges get added: balanced
complete multipartite graphs, unions of cliques, two-block random
graphs with a minimum-degree guarantee, plain uniform random graphs,
and the clique-plus-independent-set family showing the partition
lemma's bounds are tight.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .augment import augment_uniform
from .core import Graph, min_degree
from .core import density_param
from .seeds import SeedSpec


def nearly_equal_parts(n: int, r0: int) -> list[int]:
    """Split n into r0 sizes, each floor(n/r0) or ceil(n/r0), larger first."""
    if r0 < 1:
        raise ValueError("need at least one part")
    if r0 > n:
        raise ValueError(f"cannot split {n} vertices into {r0} nonempty parts")
    base, extra = divmod(n, r0)
    return [base + 1] * extra + [base] * (r0 - extra)


def _blocks(sizes: list[int], across: bool) -> Graph:
    """Vertices grouped into consecutive blocks of the given sizes, with
    an edge iff the endpoints lie in different blocks (across) or in the
    same one (not across).  Each vertex's mask is its block's mask, or
    that mask's complement, with its own bit cleared."""
    full = (1 << sum(sizes)) - 1
    masks = []
    start = 0
    for size in sizes:
        block = ((1 << size) - 1) << start
        nbrs = full ^ block if across else block
        masks.extend(nbrs & ~(1 << v) for v in range(start, start + size))
        start += size
    return Graph._from_masks(masks)


def complete_multipartite(part_sizes: list[int]) -> Graph:
    """Vertices grouped into consecutive blocks, edge iff endpoints lie
    in different blocks."""
    if not part_sizes:
        raise ValueError("part list must be nonempty")
    # bool subclasses int, so True would pass as 1
    if any(isinstance(s, bool) or not isinstance(s, int) or s < 1 for s in part_sizes):
        raise ValueError(f"part sizes must be positive integers, got {part_sizes}")
    return _blocks(part_sizes, across=True)


def complete_graph(n: int) -> Graph:
    return complete_multipartite([1] * n) if n else Graph(0, [])


def empty_graph(n: int) -> Graph:
    return Graph(n, [])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_cliques(n: int, clique_size: int) -> Graph:
    """floor(n/clique_size) cliques; leftover vertices are absorbed
    round-robin into the first cliques so every clique keeps size at
    least clique_size and no small remainder clique appears."""
    if clique_size < 1:
        raise ValueError("clique_size must be positive")
    if clique_size > n:
        raise ValueError(f"clique_size {clique_size} exceeds n={n}")
    t = n // clique_size
    sizes = [clique_size] * t
    for i in range(n - t * clique_size):
        sizes[i % t] += 1
    return _blocks(sizes, across=False)


def two_cliques(n: int) -> Graph:
    """Disjoint K_floor(n/2) and K_ceil(n/2), no cross edges."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _blocks([n // 2, n - n // 2], across=False)


def gnm(n: int, m: int, seed: SeedSpec) -> Graph:
    """Uniformly random graph with exactly m edges: the m pairs with the
    smallest labels, drawn as augment_uniform draws them."""
    return augment_uniform(empty_graph(n), m, seed).graph


def blocked_gnp(n: int, d, seed: SeedSpec, max_attempts: int = 100) -> Graph:
    """Two blocks of sizes floor(n/2) and ceil(n/2) with no cross edges;
    inside each block every pair is an edge independently with
    probability p = 2d + n^(-1/3).

    Redraws (up to max_attempts) until the minimum degree reaches
    ceil(d*n); at reasonable sizes the degree condition holds for most
    draws, so exhausting the budget signals bad parameters.
    """
    d = density_param(d)
    if n < 2:
        raise ValueError("need n >= 2")
    p = 2 * float(d) + n ** (-1 / 3)
    if p > 1:
        raise ValueError(f"p = 2d + n^(-1/3) = {p:.4f} exceeds 1; lower d or raise n")
    threshold = -((-d.numerator * n) // d.denominator)
    half = n // 2
    # each block's pairs in lexicographic order, one uniform draw per pair
    blocks = [(lo, hi - lo, np.triu_indices(hi - lo, 1)) for lo, hi in ((0, half), (half, n))]
    for attempt in range(max_attempts):
        rng = seed.derive(attempt).generator()
        masks = []
        for lo, size, (rows, cols) in blocks:
            keep = np.zeros((size, size), dtype=bool)
            keep[rows, cols] = rng.random(len(rows)) < p
            keep |= keep.T
            packed = np.packbits(keep, axis=1, bitorder="little")
            masks.extend(int.from_bytes(row.tobytes(), "little") << lo for row in packed)
        g = Graph._from_masks(masks)
        if min_degree(g) >= threshold:
            return g
    raise RuntimeError(
        f"blocked_gnp: no draw reached min degree {threshold} in {max_attempts} attempts"
    )


def mader_tightness_graph(n: int, k: int, seed: SeedSpec) -> Graph:
    """Disjoint cliques of size k+1 plus an independent set I on the
    leftover vertices, each I-vertex joined to ceil(k^2/n) seeded-random
    vertices inside every clique.

    Any subgraph meeting two cliques through I has connectivity at most
    |I|, which is what makes this family a tightness witness for the
    highly-connected-partition bounds.  At small n relative to k the
    leftover k^2/n is below 1 and I comes out empty.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k + 1 > n:
        raise ValueError(f"need k+1 <= n, got k={k}, n={n}")
    excess = Fraction(k * k, n)
    # ceil((n - k^2/n) / (k+1)) cliques, capped by what actually fits
    want = -((-(n * n - k * k)) // (n * (k + 1)))
    t = min(want, n // (k + 1))
    clique_vertices = t * (k + 1)
    independent = list(range(clique_vertices, n))
    if len(independent) > excess + k:
        raise ValueError(
            f"leftover independent set has {len(independent)} vertices, "
            f"more than k^2/n + k = {float(excess + k):.2f}; adjust n or k"
        )
    per_clique = -((-k * k) // n)  # ceil(k^2/n)
    edges = []
    for c in range(t):
        lo = c * (k + 1)
        for u in range(lo, lo + k + 1):
            for v in range(u + 1, lo + k + 1):
                edges.append((u, v))
    rng = seed.generator()
    for w in independent:
        for c in range(t):
            lo = c * (k + 1)
            picks = rng.choice(k + 1, size=per_clique, replace=False)
            for off in picks:
                edges.append((w, lo + int(off)))
    return Graph(n, edges)
