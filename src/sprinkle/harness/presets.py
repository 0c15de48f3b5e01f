"""Packaged sweep experiments for the headline threshold statements:
fixed-clique appearance, diameter 5 / 3 / 2, and k-connectivity.

Each preset knows its base-graph family, the property to check, and the
lower/upper reference formulas for m; the sweep grid is a geometric
12-point span of [lower/4, 4*upper] clipped to feasible m.  Asymptotic
omega(.) slack terms are concrete pilot-calibrated constants, recorded
in PRESET_SLACKS together with the seed of the calibration run (see
demos/pilot_calibration.py to reproduce them).
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..augment import augment_uniform
from ..checkers import PropertyVerdict, is_k_connected
from ..checkers.connectivity import _components
from ..core import _bits, density_param, vertex_mask
from ..generators import disjoint_cliques, nearly_equal_parts
from ..seeds import SeedSpec, as_seed
from .sweep import SweepConfig

# omega(.) surrogates, calibrated by pilot sweeps at desk scale.
# Upper-bound formulas are caps, not expected crossings: asymptotic
# constants like 640k/d^2 are far from tight at these sizes and may
# exceed the total non-edge count, in which case the grid is clipped.
PRESET_SLACKS = {
    "thm3": {"omega_const": 24, "calibration_seed": 20260801},
    "thm4": {"omega_const": 8, "calibration_seed": 20260801},
    "thm5": {"omega_n_coeff": 2.0, "calibration_seed": 20260801},
    "thm6": {"omega_const": 8, "calibration_seed": 20260801},
}

# params every preset accepts, and each preset's own
_COMMON_PARAMS = frozenset({"trials", "master_seed", "output_path"})
_PRESET_PARAMS = {
    "thm2": frozenset({"r", "r0", "d"}),
    "thm3": frozenset({"d"}),
    "thm4": frozenset({"d", "side"}),
    "thm5": frozenset({"d"}),
    "thm6": frozenset({"d", "k"}),
}

PRESET_NAMES = tuple(_PRESET_PARAMS)


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _require(params: dict, key: str, name: str):
    if key not in params:
        raise ValueError(f"preset {name} needs the parameter {key}=...")
    return params[key]


def geometric_grid(lower: float, upper: float, max_m: int, points: int = 12) -> tuple[int, ...]:
    """Integer geometric grid spanning [lower/4, 4*upper], clipped to
    [0, max_m], deduplicated and strictly increasing.  When the span
    dips below 1 the grid picks up m=0, anchoring curves that start at
    probability zero."""
    lo = max(0.25, lower / 4)
    hi = min(float(max_m), 4 * upper)
    if hi < lo:
        hi = lo
    if hi == lo:
        return (int(round(lo)),)
    ratio = hi / lo
    values = sorted({int(round(lo * ratio ** (i / (points - 1)))) for i in range(points)})
    values = [v for v in values if 0 <= v <= max_m]
    return tuple(values)


def clique_exponent(r: int, r0: int) -> Fraction:
    blocks = -((-r) // r0)  # ceil(r / r0)
    if blocks < 2:
        raise ValueError(f"need r > r0 (got r={r}, r0={r0})")
    return 2 - Fraction(2, blocks - 1)


def reference_formulas(name: str, n: int, params: dict) -> dict:
    """Lower/upper reference m for each preset, as floats (natural log)."""
    if name == "thm2":
        r, r0 = int(_require(params, "r", "thm2")), int(_require(params, "r0", "thm2"))
        ref = float(n) ** float(clique_exponent(r, r0))
        return {"lower": ref, "upper": ref}
    if name == "thm3":
        c = PRESET_SLACKS["thm3"]["omega_const"]
        return {"lower": 1.0, "upper": float(c)}
    if name == "thm4":
        d = float(density_param(_require(params, "d", "thm4")))
        if not d < 0.5:
            raise ValueError("thm4 needs d < 1/2")
        upper = (1 - d) / (d * d) * math.log(n)
        lower = math.log(n) / (-2 * math.log(1 - 2 * d))
        return {"lower": lower, "upper": upper}
    if name == "thm5":
        d = params.get("d")
        d = Fraction(n // 2 - 1, n) if d is None else density_param(d)
        lower = 0.5 * n * math.log(n)
        upper = float((1 - d) / d) * n * math.log(n)
        return {"lower": lower, "upper": upper}
    if name == "thm6":
        d = density_param(_require(params, "d", "thm6"))
        k = int(_require(params, "k", "thm6"))
        s = _ceil_frac(d * n + 1)
        t = n // s
        lower = k * t / 2
        upper = float(640 * k / (float(d) ** 2))
        return {"lower": lower, "upper": upper}
    raise ValueError(f"unknown preset {name!r}; known: {PRESET_NAMES}")


def theorem_preset(name: str, n: int, params: dict | None = None) -> SweepConfig:
    """Fully populated SweepConfig for a named preset experiment.

    Common optional params: trials (default 200), master_seed and
    output_path.  Per-preset params: thm2 needs r, r0 and
    optionally d; thm3/thm4/thm5 take d (thm4 also side in
    {"diam3", "diam5"}); thm6 needs d and k.  Any other key is rejected.
    """
    params = dict(params or {})
    if name not in _PRESET_PARAMS:
        raise ValueError(f"unknown preset {name!r}; known: {PRESET_NAMES}")
    unknown = set(params) - _COMMON_PARAMS - _PRESET_PARAMS[name]
    if unknown:
        raise ValueError(f"preset {name} does not take the params {sorted(unknown)}")
    trials = int(params.pop("trials", 200))
    master_seed = as_seed(params.pop("master_seed", 0))
    output_path = params.pop("output_path", None)

    if name == "thm2":
        r, r0 = int(_require(params, "r", "thm2")), int(_require(params, "r0", "thm2"))
        if not (r > r0 >= 2):
            raise ValueError(f"need r > r0 >= 2, got r={r}, r0={r0}")
        d = params.get("d")
        d = Fraction(r0 - 1, r0) if d is None else density_param(d)
        lo_d, hi_d = Fraction(r0 - 2, r0 - 1), Fraction(r0 - 1, r0)
        if not (lo_d < d <= hi_d):
            raise ValueError(
                f"thm2 needs d in ({lo_d}, {hi_d}], got {d}"
            )
        parts = nearly_equal_parts(n, r0)
        max_m = sum(s * (s - 1) // 2 for s in parts)
        refs = reference_formulas(name, n, params)
        grid = geometric_grid(refs["lower"], refs["upper"], max_m)
        generator = {"name": "complete_multipartite", "params": {"parts": parts}}
        prop = {"name": "contains_kr", "params": {"r": r}}
    elif name in ("thm3", "thm4"):
        d = density_param(_require(params, "d", name))
        if name == "thm4" and not d < Fraction(1, 2):
            raise ValueError("thm4 needs d < 1/2")
        if 2 * float(d) + n ** (-1 / 3) > 1:
            raise ValueError("blocked base graph needs 2d + n^(-1/3) <= 1")
        refs = reference_formulas(name, n, params)
        max_m = (n // 2) * (n - n // 2)  # cross pairs are always available
        grid = geometric_grid(refs["lower"], refs["upper"], max_m)
        generator = {"name": "blocked_gnp", "params": {"n": n, "d": str(d)}}
        if name == "thm3":
            prop = {"name": "diameter_le", "params": {"t": 5}}
        else:
            side = params.get("side", "diam3")
            if side == "diam3":
                prop = {"name": "diameter_le", "params": {"t": 3}}
            elif side == "diam5":
                prop = {"name": "diameter_ge", "params": {"t": 5}}
            else:
                raise ValueError(f"thm4 side must be diam3 or diam5, got {side!r}")
    elif name == "thm5":
        refs = reference_formulas(name, n, params)
        max_m = (n // 2) * (n - n // 2)
        grid = geometric_grid(refs["lower"], refs["upper"], max_m)
        generator = {"name": "two_cliques", "params": {"n": n}}
        prop = {"name": "diameter_le", "params": {"t": 2}}
    else:  # thm6
        d = density_param(_require(params, "d", "thm6"))
        k = int(_require(params, "k", "thm6"))
        if k < 1:
            raise ValueError("thm6 needs k >= 1")
        s = _ceil_frac(d * n + 1)
        if s > n:
            raise ValueError(f"clique size {s} exceeds n={n}; lower d")
        h = disjoint_cliques(n, s)
        max_m = n * (n - 1) // 2 - h.edge_count
        refs = reference_formulas(name, n, params)
        grid = geometric_grid(refs["lower"], refs["upper"], max_m)
        generator = {"name": "disjoint_cliques", "params": {"n": n, "clique_size": s}}
        prop = {"name": "k_connected", "params": {"k": k}}

    return SweepConfig(
        generator=generator,
        model="uniform",
        grid=grid,
        trials=trials,
        property=prop,
        master_seed=master_seed,
        output_path=output_path,
    )


def deterministic_lower_bound_check(
    name: str,
    n: int,
    d,
    k: int,
    samples: int = 100,
    seed: SeedSpec | int = 0,
) -> PropertyVerdict:
    """Pigeonhole certificate that the disjoint-cliques base graph stays
    non-k-connected under EVERY addition of fewer than (k/2) * t random
    edges, where t is the clique count.

    Any edge meets at most two cliques, so |R| < kt/2 forces some clique
    to be incident to fewer than k added edges; deleting that clique's
    R-endpoints (fewer than k vertices) disconnects it.  That cut is
    checked, and the flow checker spot-confirms non-k-connectivity, on
    seeded maximal R.
    """
    if name != "thm6":
        raise ValueError(f"deterministic bound is only defined for thm6, got {name!r}")
    d = density_param(d)
    seed = as_seed(seed)
    s = _ceil_frac(d * n + 1)
    if s > n:
        raise ValueError(f"clique size {s} exceeds n={n}")
    h = disjoint_cliques(n, s)
    t = n // s
    if t < 2:
        raise ValueError("bound needs at least two cliques; lower d or raise n")
    if s < k + 1:
        raise ValueError(f"bound needs clique size > k, got size {s}, k={k}")
    threshold = Fraction(k * t, 2)
    max_r = (k * t - 1) // 2  # largest size strictly below kt/2
    # pigeonhole: 2 * max_r < k * t always, so some clique sees < k edges
    if not 2 * max_r < k * t:
        raise RuntimeError("pigeonhole arithmetic failed; defect")

    # the components of a disjoint union of cliques are its cliques
    full = (1 << n) - 1
    cliques = _components(h.adjacency_masks(), full)
    clique_of = [0] * n
    for ci, members in enumerate(cliques):
        for v in _bits(members):
            clique_of[v] = ci

    if max_r > h.n * (h.n - 1) // 2 - h.edge_count:
        raise ValueError("bound size exceeds available non-edges; parameters invalid")
    for i in range(samples):
        aug = augment_uniform(h, max_r, seed.derive(i))
        incident = [0] * t
        for (u, v) in aug.added:
            cu, cv = clique_of[u], clique_of[v]
            incident[cu] += 1
            if cv != cu:
                incident[cv] += 1
        # check the certificate on the graph, not the counts: the least-hit
        # clique has < k R-endpoints, and deleting them cuts the graph
        ends = vertex_mask(v for edge in aug.added for v in edge)
        cut = ends & cliques[min(range(t), key=incident.__getitem__)]
        if cut.bit_count() >= k or len(_components(aug.graph.adjacency_masks(), full & ~cut)) < 2:
            raise RuntimeError("pigeonhole certificate fails on a sample; defect")
        verdict = is_k_connected(aug.graph, k)
        if verdict.holds:
            return PropertyVerdict(
                False,
                reason=f"flow checker found sample {i} k-connected; bound refuted",
            )
    return PropertyVerdict(
        True,
        reason=(
            f"every R with |R| < {threshold} leaves a clique with fewer than "
            f"{k} incident edges; confirmed by flow checker on {samples} "
            f"samples of size {max_r}"
        ),
    )
