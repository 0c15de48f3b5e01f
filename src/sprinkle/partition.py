"""Partitioning a graph of minimum degree k into parts of size at least
ceil(k/8) whose induced subgraphs are ceil(k^2/(16n))-connected.

The algorithm follows the existence proof: greedily extract disjoint
ceil(k/8)-connected seed subgraphs while the residual average degree
allows, grow each seed by absorbing outside vertices with enough
neighbors inside, and recurse on whatever remains (which then has
induced minimum degree above k/2).  Every returned part is re-certified
by the flow-based connectivity checker, so the extraction heuristics
only affect performance, never soundness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Graph, VertexSet, _bits, edges_within, induced_subgraph, min_degree, vertex_mask
from .checkers.connectivity import _components, is_k_connected


@dataclass(frozen=True)
class PartitionResult:
    """Parts V_1..V_t covering all vertices, with the connectivity
    threshold each part was certified against, and the seed subgraphs
    found in phase one."""

    parts: tuple[VertexSet, ...]
    per_part_connectivity: tuple[int, ...]
    seed_subgraphs: tuple[VertexSet, ...]

    @property
    def t(self) -> int:
        return len(self.parts)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _certified_subset(g: Graph, mask: int, target: int) -> tuple[bool, int]:
    """Run the connectivity checker on g induced on the vertex mask and
    map any separator back to a mask of original vertex ids."""
    ids = _bits(mask)
    verdict = is_k_connected(induced_subgraph(g, ids), target)
    if verdict.holds:
        return True, 0
    sep = verdict.witness if isinstance(verdict.witness, frozenset) else ()
    return False, vertex_mask(ids[i] for i in sep)


def mader_subgraph(g: Graph, k: int) -> VertexSet:
    """A vertex set S with kappa(g[S]) >= ceil(k/4), certified by the
    connectivity checker before returning.

    Requires average degree at least k.  The search peels vertices of
    degree at most the edge/vertex ratio, certifies the core, and on
    failure splits along the found separator, keeping a side that still
    carries more than ratio * (size - target + 1) edges.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if g.n == 0 or 2 * g.edge_count < k * g.n:
        raise ValueError(
            f"average degree {2 * g.edge_count}/{g.n or 1} is below k={k}"
        )
    target = _ceil_div(k, 4)
    masks = g.adjacency_masks()
    work = (1 << g.n) - 1

    if target == 1:
        for comp in _components(masks, work):
            if comp.bit_count() >= 2:
                return tuple(_bits(comp))
        raise RuntimeError("average degree >= 1 but no component has an edge")

    # density property P(W): e(W) > gamma * (|W| - excess), with gamma the
    # initial edge/vertex ratio and excess = target - 1; G itself has it,
    # and it survives both peeling and separator splits.
    gamma = Fraction(g.edge_count, g.n)
    excess = target - 1

    while True:
        # peel any vertex with degree <= gamma inside the working set
        changed = True
        while changed:
            changed = False
            for v in _bits(work):
                if (masks[v] & work).bit_count() <= gamma:
                    work ^= 1 << v
                    changed = True
        if work.bit_count() <= target:
            raise RuntimeError(
                "dense-core search collapsed below the target order; "
                "this should be impossible when the average degree bound holds"
            )
        ok, separator = _certified_subset(g, work, target)
        if ok:
            return tuple(_bits(work))
        # candidate sides: each component of the working set minus the
        # separator, plus the separator; at least one keeps the density
        # property
        best_side = 0
        for comp in _components(masks, work & ~separator):
            side = comp | separator
            size = side.bit_count()
            if edges_within(g, side) > gamma * (size - excess) and size > best_side.bit_count():
                best_side = side
        if not best_side or best_side.bit_count() >= work.bit_count():
            raise RuntimeError("separator split made no progress; search defect")
        work = best_side


def dense_partition(g: Graph, k: int) -> PartitionResult:
    """Partition of the vertex set into parts with at least ceil(k/8)
    vertices and induced connectivity at least ceil(k^2/(16n)),
    for a graph of minimum degree at least k > 0.  Every part is
    re-certified by the connectivity checker before returning."""
    if k <= 0:
        raise ValueError("k must be positive")
    if min_degree(g) < k:
        raise ValueError(f"minimum degree {min_degree(g)} is below k={k}")
    n = g.n
    conn_bound = _ceil_div(k * k, 16 * n)
    size_bound = _ceil_div(k, 8)
    seed_k = _ceil_div(k, 2)  # mader at ceil(k/2) certifies ceil(k/8)

    masks = g.adjacency_masks()
    part_masks: list[int] = []
    seeds: list[VertexSet] = []
    unassigned = (1 << n) - 1

    while unassigned:
        progress = False
        # phase 1: extract seeds while the residual average degree permits
        while unassigned and 2 * edges_within(g, unassigned) >= seed_k * unassigned.bit_count():
            residual = _bits(unassigned)
            local = mader_subgraph(induced_subgraph(g, residual), seed_k)
            seed = tuple(residual[i] for i in local)
            seeds.append(seed)
            part_masks.append(vertex_mask(seed))
            unassigned &= ~part_masks[-1]
            progress = True
        # phase 2: absorb outside vertices with enough neighbors in a part
        changed = True
        while changed and unassigned:
            changed = False
            for v in _bits(unassigned):
                for i, part in enumerate(part_masks):
                    if (masks[v] & part).bit_count() >= conn_bound:
                        part_masks[i] |= 1 << v
                        unassigned ^= 1 << v
                        changed = progress = True
                        break
        # phase 3: anything left loops back to seed extraction; the
        # leftover has induced minimum degree above k/2 so extraction
        # must fire again
        if unassigned and not progress:
            raise RuntimeError(
                "partition stalled with unassigned vertices; "
                "this should be impossible when min degree >= k"
            )

    for part in part_masks:
        if part.bit_count() < size_bound:
            raise RuntimeError(f"part of size {part.bit_count()} below bound {size_bound}")
        ok, _ = _certified_subset(g, part, conn_bound)
        if not ok:
            raise RuntimeError("final part failed connectivity certification")
    if len(part_masks) * k > 8 * n:
        raise RuntimeError("part count exceeds 8n/k; search defect")
    return PartitionResult(
        parts=tuple(tuple(_bits(part)) for part in part_masks),
        per_part_connectivity=tuple(conn_bound for _ in part_masks),
        seed_subgraphs=tuple(seeds),
    )
