"""Independent brute-force oracles for the exact checkers.

These deliberately share no code with the package implementations:
cliques by subset scan, chromatic number by independent-set cover DP,
vertex connectivity by separator enumeration, diameter by
Floyd-Warshall, density by full subset enumeration, and components by
a plain neighbor-list BFS.  Three checkers' former engines are kept as
the references for their verdicts and witnesses: for k-connectivity,
Dinic max-flow on an explicitly built vertex-split network; for
diameter_at_most, a cut-off bitmask BFS from every vertex in id order;
and for the clique search, one branch and bound rooted at all of V,
without the split over co-components.

For the sweep harness there are two references.  full_grid_sweep checks
every (grid, trial) cell on its own, through the package's own
generators, augmentation and property registry, so it pins the sweep's
bisection and bookkeeping, not its sampling.  exact_probability shares
nothing with the package: it enumerates every edge subset a tiny base
can receive and judges each graph with the brute-force checkers here.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from sprinkle import Graph, augment_bernoulli, augment_uniform
from sprinkle.checkers._maxflow import MaxFlow
from sprinkle.harness.sweep import GENERATORS, PROPERTIES


def brute_clique_number(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for sub in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return size
    return best


def brute_contains_kr(g: Graph, r: int) -> bool:
    if r > g.n:
        return False
    return any(
        all(g.has_edge(u, v) for u, v in combinations(sub, 2))
        for sub in combinations(range(g.n), r)
    )


def brute_count_kr(g: Graph, r: int) -> int:
    return sum(
        1
        for sub in combinations(range(g.n), r)
        if all(g.has_edge(u, v) for u, v in combinations(sub, 2))
    )


def single_root_clique(g: Graph, floor: int, stop: int) -> list[int]:
    """The largest clique of g with more than floor vertices, stopping
    at the first one with stop vertices, or [] when none exists: one
    branch and bound over all of V with a greedy-coloring bound."""
    masks = [g.adjacency_mask(v) for v in range(g.n)]
    best: list[int] = []
    cur: list[int] = []
    bar = floor

    def color_order(p: int) -> list[tuple[int, int]]:
        out = []
        color = 0
        while p:
            color += 1
            q = p
            while q:
                low = q & -q
                v = low.bit_length() - 1
                out.append((v, color))
                p ^= low
                q = (q ^ low) & ~masks[v]
        return out

    def expand(p: int, depth: int) -> bool:
        nonlocal bar
        need = bar - depth
        if p.bit_count() <= need:
            return False
        for v, bound in reversed(color_order(p)):
            if bound <= need:
                return False
            cur.append(v)
            if depth + 1 >= stop:
                best[:] = cur
                return True
            nxt = p & masks[v]
            if nxt:
                if expand(nxt, depth + 1):
                    return True
                need = bar - depth
            elif need < 1:
                best[:] = cur
                bar = depth + 1
                need = 1
            cur.pop()
            p ^= 1 << v
        return False

    expand((1 << g.n) - 1, 0)
    return best


def brute_chromatic_number(g: Graph) -> int:
    """Minimum number of independent sets covering V, by subset DP."""
    n = g.n
    if n == 0:
        return 0
    full = (1 << n) - 1
    masks = [g.adjacency_mask(v) for v in range(n)]
    independent = [False] * (1 << n)
    independent[0] = True
    for m in range(1, 1 << n):
        low = m & -m
        v = low.bit_length() - 1
        rest = m ^ low
        independent[m] = independent[rest] and not (masks[v] & rest)
    INF = n + 1
    dp = [INF] * (1 << n)
    dp[0] = 0
    for m in range(1, 1 << n):
        low = m & -m
        # iterate submasks of m containing low
        sub = m
        while sub:
            if sub & low and independent[sub]:
                cand = dp[m ^ sub] + 1
                if cand < dp[m]:
                    dp[m] = cand
            sub = (sub - 1) & m
    return dp[full]


def bfs_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, in order of least vertex."""
    seen = set()
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def brute_is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def _connected_after_removal(g: Graph, removed: set[int]) -> bool:
    alive = [v for v in range(g.n) if v not in removed]
    if not alive:
        return True
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if v not in removed and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(alive)


def brute_vertex_connectivity(g: Graph) -> int:
    """Smallest separator size by enumeration; kappa(K_n) = n - 1."""
    n = g.n
    if n < 2:
        raise ValueError("needs n >= 2")
    if all(g.degree(v) == n - 1 for v in range(n)):
        return n - 1
    for size in range(0, n - 1):
        for sub in combinations(range(n), size):
            if not _connected_after_removal(g, set(sub)):
                return size
    return n - 1


def brute_is_k_connected(g: Graph, k: int) -> bool:
    if k == 0:
        return g.n >= 1
    if g.n <= k:
        return False
    return brute_vertex_connectivity(g) >= k


def _split_network(g: Graph, super_members=()) -> MaxFlow:
    # node ids: in(v) = 2v, out(v) = 2v + 1, optional super-source 2n;
    # edge arcs get capacity 2, so every minimum cut is made of split
    # and super-source arcs, i.e. of vertices
    net = MaxFlow(2 * g.n + (1 if super_members else 0))
    for v in range(g.n):
        net.add_edge(2 * v, 2 * v + 1, 1)
    for u, v in g.edges():
        net.add_edge(2 * u + 1, 2 * v, 2)
        net.add_edge(2 * v + 1, 2 * u, 2)
    for v in super_members:
        net.add_edge(2 * g.n, 2 * v, 1)
    return net


def split_flow_reach(g: Graph, t: int, s=None, members=()) -> tuple:
    """(flow, in-sides reached, out-sides reached) of a full max-flow
    into in(t), from out(s) or from a super-source over members, with
    the residual reach sets read off the built split network."""
    net = _split_network(g, super_members=() if s is not None else members)
    source = 2 * s + 1 if s is not None else 2 * g.n
    flow = net.max_flow(source, 2 * t)
    reach = net.source_side(source)
    return (flow, {v for v in range(g.n) if 2 * v in reach},
            {v for v in range(g.n) if 2 * v + 1 in reach})


def split_flow_is_k_connected(g: Graph, k: int) -> tuple:
    """(holds, witness, reason) of sprinkle's is_k_connected, computed
    with its shortcuts and pair schedule but a full Dinic max-flow per
    pair on a freshly built vertex-split network.  The separator is the
    cut split arcs (in-side reached, out-side not) plus the members whose
    super-source arc is cut."""
    if k == 0:
        return (True, None, "") if g.n >= 1 else (False, None, "empty graph")
    if g.n <= k:
        return False, None, f"n={g.n} <= k={k}"
    if not brute_is_connected(g):
        return False, frozenset(), "disconnected"
    if k == 1:
        return True, None, ""
    degrees = [g.degree(v) for v in range(g.n)]
    v_min = min(range(g.n), key=lambda v: (degrees[v], v))
    if degrees[v_min] < k:
        return False, frozenset(g.neighbors(v_min)), "low-degree vertex"
    if 2 * degrees[v_min] >= g.n + k - 2:
        return True, None, "degree bound"
    for i in range(k):
        for j in range(i + 1, k):
            if g.has_edge(i, j):
                continue
            flow, ins, outs = split_flow_reach(g, j, s=i)
            if flow < k:
                return False, frozenset(ins - outs), ""
    members = tuple(range(k))
    for u in range(k, g.n):
        if all(g.has_edge(u, v) for v in members):
            continue
        flow, ins, outs = split_flow_reach(g, u, members=members)
        if flow < k:
            return False, frozenset(ins - outs | set(members) - ins), ""
    return True, None, ""


def brute_diameter(g: Graph):
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    INF = math.inf
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u in range(n):
        for v in g.neighbors(u):
            dist[u][v] = 1
    for w in range(n):
        dw = dist[w]
        for u in range(n):
            duw = dist[u][w]
            if duw == INF:
                continue
            du = dist[u]
            for v in range(n):
                alt = duw + dw[v]
                if alt < du[v]:
                    du[v] = alt
    return max(max(row) for row in dist)


def bfs_diameter_at_most(g: Graph, t: int) -> tuple:
    """(holds, witness, reason) of sprinkle's diameter_at_most, computed
    by a layered bitmask BFS cut off at depth t from every vertex in id
    order: the witness is the first vertex whose t-ball is not all of V,
    paired with the smallest vertex outside that ball."""
    if g.n == 0:
        raise ValueError("empty graph")
    if t < 0:
        raise ValueError("t must be nonnegative")
    masks = [g.adjacency_mask(v) for v in range(g.n)]
    full = (1 << g.n) - 1
    for v in range(g.n):
        visited = frontier = 1 << v
        for _ in range(t):
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= masks[low.bit_length() - 1]
                m ^= low
            frontier = nxt & (full ^ visited)
            if not frontier:
                break
            visited |= frontier
        if visited != full:
            far = full & ~visited
            return False, (v, (far & -far).bit_length() - 1), ""
    return True, None, ""


def brute_max_density(g: Graph) -> Fraction:
    best = Fraction(0)
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            e = sum(1 for u, v in combinations(sub, 2) if g.has_edge(u, v))
            best = max(best, Fraction(e, size))
    return best


def graph_from_int(n: int, code: int) -> Graph:
    """The labeled graph on n vertices whose edge set is encoded by the
    bits of code over the lexicographic pair order."""
    edges = []
    bit = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (code >> bit) & 1:
                edges.append((u, v))
            bit += 1
    return Graph(n, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Independent oracle-side random graph from the stdlib generator."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def full_grid_sweep(config) -> list[tuple[int, int]]:
    """(successes, infeasible) at each grid point of a sweep config,
    checking every (grid, trial) cell: trial t's base graph and edges
    come from master_seed.derive(t), and a uniform m above the base's
    non-edge count is an infeasible failure.  No cell's verdict is
    inferred from another's."""
    gen = GENERATORS[config.generator["name"]]
    prop, _ = PROPERTIES[config.property["name"]]
    counts = [[0, 0] for _ in config.grid]
    for ti in range(config.trials):
        seed = config.master_seed.derive(ti)
        base = gen(config.generator.get("params", {}), seed.stream(0))
        for count, value in zip(counts, config.grid):
            try:
                if config.model == "uniform":
                    aug = augment_uniform(base, value, seed.stream(1))
                else:
                    aug = augment_bernoulli(base, value, seed.stream(1))
            except ValueError:
                count[1] += 1
                continue
            count[0] += bool(prop(aug.graph, config.property.get("params", {})))
    return [tuple(c) for c in counts]


def exact_probability(h: Graph, holds, model: str, value):
    """Pr[holds(h + R)], with R a uniformly random value-subset of the
    non-edges of h (model "uniform", exact Fraction) or each non-edge
    taken independently with probability value (model "bernoulli").
    Enumerates every subset of the non-edges, so h must be tiny."""
    pool = [(u, v) for u, v in combinations(range(h.n), 2) if not h.has_edge(u, v)]

    def hits(k: int) -> int:
        return sum(holds(Graph(h.n, h.edges() + list(r)))
                   for r in combinations(pool, k))

    if model == "uniform":
        return Fraction(hits(value), math.comb(len(pool), value))
    size = len(pool)
    return sum(hits(k) * value**k * (1 - value) ** (size - k) for k in range(size + 1))
