#!/usr/bin/env python3
"""k-connectivity under random edges, and the matching lower bound.

The hardest dense base graph is a disjoint union of cliques just above
the degree requirement.  Each clique must be touched by at least k added
edges before the whole graph can be k-connected, so fewer than
(k/2) * (number of cliques) random edges can never suffice; that bound
is certified combinatorially and confirmed by the flow checker.
"""

import sprinkle as sp
from sprinkle.harness import (
    deterministic_lower_bound_check,
    estimate_threshold,
    reference_formulas,
    run_sweep,
    theorem_preset,
)

n, d, k = 60, "0.2", 4
refs = reference_formulas("thm6", n, {"d": d, "k": k})
print(f"base: disjoint cliques of size 13 on n={n}; target {k}-connectivity")
print(f"deterministic lower bound: (k/2) * t = {refs['lower']:.0f} edges\n")

verdict = deterministic_lower_bound_check("thm6", n, d, k, samples=50, seed=2)
print("pigeonhole certificate:", verdict.reason, "\n")

cfg = theorem_preset("thm6", n, {"d": d, "k": k, "trials": 100, "master_seed": 2})
res = run_sweep(cfg)
print("   m   Pr[4-connected]")
for pt in res.points:
    print(f"{pt.value:6d}   {pt.p_hat:.2f}")
est = estimate_threshold(res)
print(f"\ncrossing m_half = {est.m_half:.1f} (never below {refs['lower']:.0f})")

# one concrete failure witness below the bound
h = sp.disjoint_cliques(n, 13)
aug = sp.augment_uniform(h, 7, sp.SeedSpec(3))
v = sp.is_k_connected(aug.graph, k)
print(f"\nat m=7: 4-connected = {v.holds}; separating set found: {sorted(v.witness)}")
