#!/usr/bin/env python3
"""Epsilon-regular pairs, verified exhaustively, and what they buy.

A bipartite pair (A, B) is eps-regular when every large sub-rectangle
has nearly the same cross density as the whole pair.  At desk scale the
definition can be checked literally, by scanning all qualifying subset
pairs with exact rational arithmetic.  Regularity then caps how many
k-tuples of A-vertices can have an unusually small neighborhood union
(or intersection) in B; both counts are enumerated exactly here.
"""

from fractions import Fraction

import sprinkle as sp

# a seeded half-density bipartite pair on 10 + 10
rng = sp.SeedSpec(9).generator()
draws = rng.random(100)
pairs = [(u, v) for u in range(10) for v in range(10, 20)]
edges = [p for p, x in zip(pairs, draws) if x < 0.5]
g = sp.Graph(20, edges)
A, B = list(range(10)), list(range(10, 20))

eps = Fraction(45, 100)
dens = sp.pair_density(g, A, B)
report = sp.is_eps_regular_exact(g, A, B, eps)
print(f"pair density d(A,B) = {dens} = {float(dens):.2f}")
print(f"eps = {eps}: regular? {report.is_regular} "
      "(exhaustive over all |X| > 4.5, |Y| > 4.5)\n")

params = sp.RegularityParams(eps, Fraction(2, 5), 2)
union = sp.count_union_violations(g, A, B, params)
inter = sp.count_intersection_violations(g, A, B, B, params, check_hypotheses=False)
bound = 2 * eps * 10**2
print(f"pairs (x1, x2) in A^2 with small neighborhood union: {union}")
print(f"pairs with small common neighborhood in B:          {inter}")
print(f"regularity guarantee: both at most k*eps*|A|^k = {bound}\n")

# an irregular pair for contrast: a perfect matching
gm = sp.Graph(8, [(i, 4 + i) for i in range(4)])
rep = sp.is_eps_regular_exact(gm, range(4), range(4, 8), Fraction(1, 4))
print("perfect matching on 4+4 at eps = 1/4:")
print(f"  regular? {rep.is_regular}; violating rectangle: {rep.violating_pair}")
x, y = rep.violating_pair
print(f"  d(X,Y) = {sp.pair_density(gm, x, y)} vs d(A,B) = {rep.density}")
