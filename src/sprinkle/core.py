"""Immutable simple-graph core: construction, basic queries, edge-list IO.

Vertices are dense integer ids 0..n-1.  A Graph is frozen after
construction, so checkers and trials can share one instance freely.
Adjacency is kept once, as one integer bitmask per vertex (bit u of
vertex v's mask is set iff u ~ v): membership is a shift, set algebra
for the clique and diameter checkers is one operation, and sorted
neighbor tuples are read off the bits in increasing id order.
The non-edge pool is two position arrays (u, v), u < v, in
lexicographic order, unpacked from the mask bytes by numpy on the first
_pool() call and kept on the graph, so a base graph shared by many
trials builds its pool once; the tuple of pairs non_edges() returns is
built from those arrays only when asked for, and kept as well.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from pathlib import Path
from typing import IO, Collection, Iterable, Sequence

import numpy as np

VertexSet = tuple[int, ...]
Edge = tuple[int, int]


# set-bit positions of each byte value, increasing
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative mask, in increasing
    order.  Scans a byte at a time: on masks of a few hundred bits this
    is several times faster than peeling off the lowest bit."""
    out = []
    for j, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) // 8, "little")):
        if byte:
            base = 8 * j
            for i in _BYTE_BITS[byte]:
                out.append(base + i)
    return out


def _or_edges(masks: list[int], edges: Iterable[Sequence[int]]) -> list[int]:
    """OR each edge into both endpoints' masks, in place, and return masks.

    Rejects self-loops and ids outside range(len(masks)); endpoints are
    coerced with operator.index, so numpy integers work and floats do
    not.  Duplicate pairs collapse regardless of orientation.
    """
    n = len(masks)
    for pair in edges:
        u, v = map(index, pair)
        if u == v:
            raise ValueError(f"self-loop rejected: ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


class Graph:
    """Undirected simple graph on vertex set {0, ..., n-1}."""

    __slots__ = ("n", "_masks", "_edge_count", "_pool", "_non_edges")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        self._freeze(_or_edges([0] * n, edges))

    @classmethod
    def _from_masks(cls, masks: list[int], edge_count: int | None = None) -> "Graph":
        """Graph with masks as its adjacency, unchecked: the caller
        vouches that they are symmetric with no self-loops, and that
        edge_count, when given, is their edge count."""
        g = cls.__new__(cls)
        g._freeze(masks, edge_count)
        return g

    def _freeze(self, masks: list[int], edge_count: int | None = None) -> None:
        self.n = len(masks)
        self._masks = tuple(masks)
        if edge_count is None:
            edge_count = sum(m.bit_count() for m in masks) // 2
        self._edge_count = edge_count
        self._pool = None  # filled by the first _pool(self)
        self._non_edges = None  # filled by the first non_edges(self)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def degree(self, v: int) -> int:
        return self._masks[v].bit_count()

    def neighbors(self, v: int) -> VertexSet:
        """Neighbors of v in increasing id order."""
        return tuple(_bits(self._masks[v]))

    def adjacency_mask(self, v: int) -> int:
        """Neighbors of v as a bitmask (bit u set iff u ~ v)."""
        return self._masks[v]

    def adjacency_masks(self) -> tuple[int, ...]:
        """Every vertex's adjacency_mask, in id order."""
        return self._masks

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._masks[u] >> index(v)) & 1)

    def edges(self) -> list[Edge]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [(u, v) for u, mask in enumerate(self._masks)
                for v in _bits(mask >> (u + 1) << (u + 1))]

    def with_edges(self, extra: Iterable[Sequence[int]]) -> "Graph":
        """New graph with the given edges added (duplicates collapse).

        The new pairs are validated like the constructor's and OR-ed
        into a copy of this graph's masks.
        """
        return Graph._from_masks(_or_edges(list(self._masks), extra))

    def _with_pool_pairs(self, us: np.ndarray, vs: np.ndarray) -> "Graph":
        """New graph with the pairs (us[i], vs[i]) added, unchecked: the
        caller vouches that they are distinct non-edges of this graph,
        such as pairs of _pool(self), so none needs validating and the
        edge count adds up."""
        masks = list(self._masks)
        for u, v in zip(us.tolist(), vs.tolist()):
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return Graph._from_masks(masks, self._edge_count + len(us))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self._edge_count})"


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("min_degree undefined on the empty graph (n=0)")
    return min(g.degree(v) for v in range(g.n))


def as_fraction(x) -> Fraction:
    """Coerce a number or numeric string to an exact Fraction.

    Floats go through their shortest decimal repr, so as_fraction(0.3)
    is exactly 3/10 rather than the binary float closest to 0.3.
    """
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def density_param(d) -> Fraction:
    """Coerce a density value (see as_fraction) to an exact Fraction in
    (0, 1)."""
    d = as_fraction(d)
    if not (0 < d < 1):
        raise ValueError(f"density must lie strictly between 0 and 1, got {d}")
    return d


def is_dense(g: Graph, d) -> bool:
    """True iff every vertex has degree at least ceil(d * n)."""
    d = density_param(d)
    threshold = -((-d.numerator * g.n) // d.denominator)
    return min_degree(g) >= threshold


def vertex_mask(ids: Iterable[int]) -> int:
    """The vertex set ids as a bitmask (bit v set iff v is in ids)."""
    mask = 0
    for v in ids:
        mask |= 1 << v
    return mask


def edges_within(g: Graph, ids: Collection[int]) -> int:
    """Number of edges of g with both endpoints in ids, a collection of
    distinct vertices."""
    mask = vertex_mask(ids)
    return sum((g._masks[v] & mask).bit_count() for v in ids) // 2


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Subgraph induced by the vertex set s, relabeled 0..|s|-1 in
    increasing order of the original ids."""
    ids = sorted(s)
    if any(not (0 <= v < g.n) for v in ids):
        bad = [v for v in ids if not (0 <= v < g.n)]
        raise ValueError(f"vertex ids out of range: {bad}")
    if len(set(ids)) != len(ids):
        raise ValueError("vertex set contains duplicates")
    pos = {v: i for i, v in enumerate(ids)}
    member = set(ids)
    edges = []
    for v in ids:
        for u in g.neighbors(v):
            if u > v and u in member:
                edges.append((pos[v], pos[u]))
    return Graph(len(ids), edges)


def _pool(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The non-edges of g as two position arrays (u, v), u < v, in
    lexicographic order: pair i is (u[i], v[i]).  Unpacks the mask
    bytes into the adjacency matrix and lists the zeros above its
    diagonal in row-major order.  Built on the first call and kept on
    g."""
    pool = g._pool
    if pool is None:
        width = (g.n + 7) // 8
        rows = np.frombuffer(
            b"".join(m.to_bytes(width, "little") for m in g._masks), np.uint8)
        adj = np.unpackbits(rows.reshape(g.n, width), axis=1, count=g.n, bitorder="little")
        pool = g._pool = np.nonzero(np.triu(adj == 0, 1))
    return pool


def non_edges(g: Graph) -> tuple[Edge, ...]:
    """All unordered pairs not in E, in lexicographic order.  The tuple
    is built from _pool(g) on the first call and kept on g, so later
    calls return the same object."""
    pairs = g._non_edges
    if pairs is None:
        u, v = _pool(g)
        pairs = g._non_edges = tuple(zip(u.tolist(), v.tolist()))
    return pairs


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v" with u < v,
# 0-based ids, LF line endings.  The reader tolerates '#' comments and
# blank lines.
# ---------------------------------------------------------------------------


def write_edge_list(g: Graph, target: str | Path | IO[str]) -> None:
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    text = "\n".join(lines) + "\n"
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="ascii", newline="\n")
    else:
        target.write(text)


def read_edge_list(source: str | Path | IO[str]) -> Graph:
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="ascii")
    else:
        text = source.read()
    rows: list[tuple[int, list[int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            fields = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: expected integers, got {raw!r}") from exc
        rows.append((lineno, fields))
    if not rows:
        raise ValueError("empty edge-list input")
    header_line, header = rows[0]
    if len(header) != 2:
        raise ValueError(f"line {header_line}: header must be 'n m'")
    n, m = header
    body = rows[1:]
    if len(body) != m:
        raise ValueError(f"header declares {m} edges but {len(body)} edge lines found")
    edges = []
    for lineno, fields in body:
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'u v'")
        edges.append((fields[0], fields[1]))
    g = Graph(n, edges)
    if g.edge_count != m:
        raise ValueError(f"header declares {m} edges but {g.edge_count} distinct edges found")
    return g
