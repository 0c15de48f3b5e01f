#!/usr/bin/env python3
"""Every graph of minimum degree k splits into highly connected parts.

The partition routine extracts well-connected seed subgraphs, grows them
by absorbing outside vertices with enough inside neighbors, and recurses
on the leftovers.  Each part V_i ends with at least ceil(k/8) vertices
and an induced subgraph certified ceil(k^2/(16n))-connected by the
flow checker.

The clique-plus-independent-set family shows the bounds are tight in
shape: any subgraph crossing two cliques through the independent set I
has connectivity at most |I|.
"""

import sprinkle as sp


def ceil_div(a, b):
    return -((-a) // b)


# four disjoint cliques: the parts are exactly the cliques
g = sp.disjoint_cliques(48, 12)
k = sp.min_degree(g)
print(f"graph: 4 disjoint cliques, n={g.n}, min degree k={k}")

result = sp.dense_partition(g, k)
print(f"parts found: {result.t}")
for part, cert in zip(result.parts, result.per_part_connectivity):
    sub = sp.induced_subgraph(g, part)
    print(f"  |V_i| = {len(part):3d}   certified kappa >= {cert}   "
          f"(exact kappa = {sp.vertex_connectivity(sub)})")
print(f"size bound ceil(k/8) = {ceil_div(k, 8)}, "
      f"connectivity bound ceil(k^2/16n) = {ceil_div(k * k, 16 * g.n)}\n")

# once a few random edges link the cliques, absorption merges them:
# every vertex has a neighbor inside the first grown part
linked = sp.augment_uniform(g, 10, sp.SeedSpec(1)).graph
merged = sp.dense_partition(linked, sp.min_degree(linked))
print(f"after adding 10 random edges: {merged.t} part(s), "
      f"sizes {[len(p) for p in merged.parts]}\n")

# a dense random graph usually stays in one piece
g2 = sp.gnm(90, 1800, sp.SeedSpec(5))
k2 = sp.min_degree(g2)
r2 = sp.dense_partition(g2, k2)
print(f"dense random graph (n=90, min degree {k2}): {r2.t} part(s), "
      f"sizes {[len(p) for p in r2.parts]}\n")

# tightness: subgraphs through the independent set have tiny connectivity
gt = sp.mader_tightness_graph(14, 3, sp.SeedSpec(3))
print("tightness family on n=14, k=3: cliques of size 4 plus I = {12, 13}")
sub = sp.induced_subgraph(gt, [0, 1, 2, 3, 4, 5, 6, 7, 12])
print(f"  subgraph meeting two cliques through one I-vertex: "
      f"kappa = {sp.vertex_connectivity(sub)} (cannot exceed |I inside| = 1)")
