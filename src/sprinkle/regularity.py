"""Exact verification of epsilon-regular bipartite pairs and the
quantitative union/intersection neighborhood bounds on them.

Everything is exhaustive and rational: subset densities are compared
with integer cross-multiplication, never floats, so boundary cases are
unambiguous.  The regularity check enumerates all qualifying subset
pairs (feasible up to the size cap); the tuple counters enumerate A^k
with monotonicity pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

from .core import Graph, VertexSet, as_fraction, vertex_mask


@dataclass(frozen=True)
class RegularityParams:
    """eps and delta in (0,1) plus the tuple length k.  The union and
    intersection bounds are only meaningful when eps is well below
    delta, but that is a property of the regime, not a validity
    requirement, so it is not enforced here."""

    eps: Fraction
    delta: Fraction
    k: int

    def __post_init__(self):
        object.__setattr__(self, "eps", as_fraction(self.eps))
        object.__setattr__(self, "delta", as_fraction(self.delta))
        if not (0 < self.eps < 1):
            raise ValueError(f"eps must lie in (0,1), got {self.eps}")
        if not (0 < self.delta < 1):
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class RegularPairReport:
    density: Fraction
    is_regular: Optional[bool] = None
    violating_pair: Optional[tuple[VertexSet, VertexSet]] = None
    union_bad_tuples: Optional[int] = None
    intersection_bad_tuples: Optional[int] = None


def _check_sides(g: Graph, a: Iterable[int], b: Iterable[int]) -> tuple[list, list]:
    sa, sb = sorted(a), sorted(b)
    if not sa or not sb:
        raise ValueError("both sides must be nonempty")
    if len(set(sa)) != len(sa) or len(set(sb)) != len(sb):
        raise ValueError("vertex sets contain duplicates")
    if set(sa) & set(sb):
        raise ValueError(f"sides overlap: {sorted(set(sa) & set(sb))}")
    for v in sa + sb:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex id {v} out of range")
    return sa, sb


def cross_edges(g: Graph, a: Iterable[int], b: Iterable[int]) -> int:
    bm = vertex_mask(b)
    return sum((g.adjacency_mask(v) & bm).bit_count() for v in a)


def pair_density(g: Graph, a: Iterable[int], b: Iterable[int]) -> Fraction:
    """d(A,B) = e(A,B) / (|A| |B|), exact."""
    sa, sb = _check_sides(g, a, b)
    return Fraction(cross_edges(g, sa, sb), len(sa) * len(sb))


def _qualifying_subsets(ids: list[int], eps: Fraction) -> list[tuple[int, ...]]:
    """Index tuples into ids with size strictly above eps*|ids|, ordered
    by (size, lexicographic)."""
    n = len(ids)
    min_size = 0
    while min_size * eps.denominator <= eps.numerator * n:
        min_size += 1
    out = []
    for size in range(min_size, n + 1):
        out.extend(combinations(range(n), size))
    return out


def is_eps_regular_exact(g: Graph, a, b, eps, cap: int = 16) -> RegularPairReport:
    """Exhaustive epsilon-regularity check of the pair (A, B).

    Scans every X in A, Y in B with |X| > eps|A| and |Y| > eps|B|
    (subsets ordered by size then lexicographically, X-major) and
    reports the first violation |d(X,Y) - d(A,B)| >= eps, if any.
    """
    eps = as_fraction(eps)
    if not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    sa, sb = _check_sides(g, a, b)
    na, nb = len(sa), len(sb)
    if na > cap or nb > cap:
        raise ValueError(f"sides exceed the exhaustive cap {cap}: |A|={na}, |B|={nb}")
    e_ab = cross_edges(g, sa, sb)
    density = Fraction(e_ab, na * nb)

    xs = _qualifying_subsets(sa, eps)
    ys = _qualifying_subsets(sb, eps)
    if not xs or not ys:
        return RegularPairReport(density=density, is_regular=True)

    # per-B-vertex adjacency restricted to A, as index masks over sa
    pos_a = {v: i for i, v in enumerate(sa)}
    deg_mask_b = []
    for w in sb:
        m = 0
        aw = g.adjacency_mask(w)
        for v, i in pos_a.items():
            if (aw >> v) & 1:
                m |= 1 << i
        deg_mask_b.append(m)

    y_masks = [vertex_mask(t) for t in ys]
    # violation thresholds per (|X|, |Y|): |e * na*nb - e_ab * nx*ny| * eps_den
    # >= eps_num * nx*ny*na*nb, kept in integers
    en, ed = eps.numerator, eps.denominator
    nanb = na * nb

    for xt in xs:
        xmask = vertex_mask(xt)
        nx = len(xt)
        # cross degree from each B vertex into X
        deg_into_x = [(dm & xmask).bit_count() for dm in deg_mask_b]
        # subset sums over B via DP on masks
        sub_e = [0] * (1 << nb)
        for m in range(1, 1 << nb):
            low = m & -m
            sub_e[m] = sub_e[m ^ low] + deg_into_x[low.bit_length() - 1]
        for yt, ymask in zip(ys, y_masks):
            ny = len(yt)
            e_xy = sub_e[ymask]
            lhs = abs(e_xy * nanb - e_ab * nx * ny) * ed
            if lhs >= en * nx * ny * nanb:
                x_ids = tuple(sa[i] for i in xt)
                y_ids = tuple(sb[i] for i in yt)
                return RegularPairReport(
                    density=density,
                    is_regular=False,
                    violating_pair=(x_ids, y_ids),
                )
    return RegularPairReport(density=density, is_regular=True)


def _common_preconditions(g, sa, sb, params: RegularityParams, budget: int):
    density = Fraction(cross_edges(g, sa, sb), len(sa) * len(sb))
    if density < params.delta:
        raise ValueError(
            f"pair density {density} is below delta={params.delta}"
        )
    if len(sa) ** params.k > budget:
        raise ValueError(
            f"|A|^k = {len(sa) ** params.k} exceeds the enumeration budget {budget}"
        )
    return density


def count_union_violations(
    g: Graph,
    a,
    b,
    params: RegularityParams,
    budget: int = 10**6,
    check_hypotheses: bool = True,
) -> int:
    """Number of k-tuples (x_1..x_k) in A^k (ordered, repetition allowed)
    whose neighborhood union inside B has size at most
    (1 - (1 - delta + eps)^k) |B|.

    On a regular pair of density at least delta this count is at most
    k * eps * |A|^k.  check_hypotheses enforces the guarantee's
    arithmetic hypothesis (1 - delta + eps)^(k-1) >= eps; the count
    itself is well defined without it.  Certifying epsilon-regularity is
    the caller's responsibility (see is_eps_regular_exact).
    """
    sa, sb = _check_sides(g, a, b)
    _common_preconditions(g, sa, sb, params, budget)
    base = 1 - params.delta + params.eps
    if check_hypotheses and base ** (params.k - 1) < params.eps:
        raise ValueError(
            f"hypothesis (1-delta+eps)^(k-1) >= eps fails: "
            f"{base}^{params.k - 1} < {params.eps}"
        )
    threshold = (1 - base**params.k) * len(sb)
    bmask = vertex_mask(sb)
    nbr = [g.adjacency_mask(v) & bmask for v in sa]
    k = params.k

    def rec(depth: int, union: int) -> int:
        if union.bit_count() > threshold:
            return 0  # union only grows; no completion can violate
        if depth == k:
            return 1
        return sum(rec(depth + 1, union | m) for m in nbr)

    return rec(0, 0)


def count_intersection_violations(
    g: Graph,
    a,
    b,
    y,
    params: RegularityParams,
    budget: int = 10**6,
    check_hypotheses: bool = True,
) -> int:
    """Number of k-tuples (x_1..x_k) in A^k whose common neighborhood
    intersected with Y has size at most (delta - eps)^k |Y|.

    On a regular pair of density at least delta this count is at most
    k * eps * |A|^k.  check_hypotheses enforces the guarantee's
    arithmetic hypothesis (delta - eps)^(k-1) |Y| > eps |B|.
    """
    sa, sb = _check_sides(g, a, b)
    sy = sorted(y)
    if not set(sy) <= set(sb):
        raise ValueError("Y must be a subset of B")
    if not sy:
        raise ValueError("Y must be nonempty")
    _common_preconditions(g, sa, sb, params, budget)
    gap = params.delta - params.eps
    if check_hypotheses and gap ** (params.k - 1) * len(sy) <= params.eps * len(sb):
        raise ValueError(
            f"hypothesis (delta-eps)^(k-1) |Y| > eps |B| fails: "
            f"{gap}^{params.k - 1} * {len(sy)} <= {params.eps} * {len(sb)}"
        )
    threshold = gap**params.k * len(sy)
    ymask = vertex_mask(sy)
    nbr = [g.adjacency_mask(v) & ymask for v in sa]
    k = params.k
    na = len(sa)

    def rec(depth: int, inter: int) -> int:
        if inter.bit_count() <= threshold:
            return na ** (k - depth)  # shrinks monotonically; all violate
        if depth == k:
            return 0
        return sum(rec(depth + 1, inter & m) for m in nbr)

    return rec(0, ymask)


def full_pair_report(
    g: Graph,
    a,
    b,
    params: RegularityParams,
    y=None,
    cap: int = 16,
    budget: int = 10**6,
    check_hypotheses: bool = False,
) -> RegularPairReport:
    """Regularity verdict plus both violation counts in one report; used
    by the command-line regcheck.  Violation counts are only computed
    when the pair certifies regular and the density reaches delta."""
    base = is_eps_regular_exact(g, a, b, params.eps, cap=cap)
    if not base.is_regular:
        return base
    if base.density < params.delta:
        return base
    union = count_union_violations(
        g, a, b, params, budget=budget, check_hypotheses=check_hypotheses
    )
    inter = count_intersection_violations(
        g, a, b, b if y is None else y, params,
        budget=budget, check_hypotheses=check_hypotheses,
    )
    return RegularPairReport(
        density=base.density,
        is_regular=True,
        union_bad_tuples=union,
        intersection_bad_tuples=inter,
    )
