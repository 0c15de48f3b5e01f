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

from .core import Graph, VertexSet, edges_within, induced_subgraph, min_degree, vertex_mask
from .checkers.connectivity import _components, connected_components, is_k_connected


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


def _certified_subset(g: Graph, vertices: list[int], target: int) -> tuple[bool, frozenset]:
    """Run the connectivity checker on g[vertices] and map any separator
    back to original vertex ids."""
    sub = induced_subgraph(g, vertices)
    verdict = is_k_connected(sub, target)
    if verdict.holds:
        return True, frozenset()
    ids = sorted(vertices)
    sep = verdict.witness if isinstance(verdict.witness, frozenset) else frozenset()
    return False, frozenset(ids[i] for i in sep)


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

    if target == 1:
        for comp in connected_components(g):
            if len(comp) >= 2:
                return tuple(comp)
        raise RuntimeError("average degree >= 1 but no component has an edge")

    # density property P(W): e(W) > gamma * (|W| - excess), with gamma the
    # initial edge/vertex ratio and excess = target - 1; G itself has it,
    # and it survives both peeling and separator splits.
    gamma = Fraction(g.edge_count, g.n)
    excess = target - 1
    masks = [g.adjacency_mask(v) for v in range(g.n)]

    work = list(range(g.n))
    while True:
        # peel any vertex with degree <= gamma inside the working set
        wmask = vertex_mask(work)
        changed = True
        while changed:
            changed = False
            for v in list(work):
                deg = (masks[v] & wmask).bit_count()
                if deg <= gamma:
                    work.remove(v)
                    wmask ^= 1 << v
                    changed = True
        if len(work) <= target:
            raise RuntimeError(
                "dense-core search collapsed below the target order; "
                "this should be impossible when the average degree bound holds"
            )
        ok, separator = _certified_subset(g, work, target)
        if ok:
            return tuple(sorted(work))
        # candidate sides: each component of the working set minus the
        # separator, plus the separator; at least one keeps the density
        # property
        best_side = None
        for comp in _components(masks, wmask & ~vertex_mask(separator)):
            side_ids = sorted(set(comp) | separator)
            if edges_within(g, side_ids) > gamma * (len(side_ids) - excess):
                if best_side is None or len(side_ids) > len(best_side):
                    best_side = side_ids
        if best_side is None or len(best_side) >= len(work):
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

    masks = [g.adjacency_mask(v) for v in range(n)]
    parts: list[set[int]] = []
    part_masks: list[int] = []
    seeds: list[VertexSet] = []
    unassigned = set(range(n))

    while unassigned:
        progress = False
        # phase 1: extract seeds while the residual average degree permits
        while True:
            residual = sorted(unassigned)
            if not residual:
                break
            if 2 * edges_within(g, residual) < seed_k * len(residual):
                break
            sub = induced_subgraph(g, residual)
            local = mader_subgraph(sub, seed_k)
            seed = tuple(residual[i] for i in local)
            seeds.append(seed)
            parts.append(set(seed))
            part_masks.append(vertex_mask(seed))
            unassigned -= set(seed)
            progress = True
        # phase 2: absorb outside vertices with enough neighbors in a part
        changed = True
        while changed and unassigned:
            changed = False
            for v in sorted(unassigned):
                for i in range(len(parts)):
                    if (masks[v] & part_masks[i]).bit_count() >= conn_bound:
                        parts[i].add(v)
                        part_masks[i] |= 1 << v
                        unassigned.discard(v)
                        changed = True
                        progress = True
                        break
        # phase 3: anything left loops back to seed extraction; the
        # leftover has induced minimum degree above k/2 so extraction
        # must fire again
        if unassigned and not progress:
            raise RuntimeError(
                "partition stalled with unassigned vertices; "
                "this should be impossible when min degree >= k"
            )

    final_parts = tuple(tuple(sorted(p)) for p in parts)
    for part in final_parts:
        if len(part) < size_bound:
            raise RuntimeError(f"part of size {len(part)} below bound {size_bound}")
        ok, _ = _certified_subset(g, list(part), conn_bound)
        if not ok:
            raise RuntimeError("final part failed connectivity certification")
    if len(final_parts) * k > 8 * n:
        raise RuntimeError("part count exceeds 8n/k; search defect")
    return PartitionResult(
        parts=final_parts,
        per_part_connectivity=tuple(conn_bound for _ in final_parts),
        seed_subgraphs=tuple(seeds),
    )
