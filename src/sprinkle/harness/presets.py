"""Packaged sweep experiments for the headline threshold statements:
fixed-clique appearance, diameter 5 / 3 / 2, and k-connectivity.

Each preset is one function (n, params) -> (lower, upper, max_m,
generator, property), kept in _PRESETS with the params it takes: the
reference formulas for m, the base's non-edge count, its family and the
property to check.  The sweep grid is a geometric 12-point span of
[lower/4, 4*upper] clipped to [0, max_m].  Asymptotic omega(.) slack
terms are concrete pilot-calibrated constants, recorded in PRESET_SLACKS
with the seed of the calibration run (demos/pilot_calibration.py
reproduces them).
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..augment import augment_uniform
from ..checkers import PropertyVerdict, is_k_connected
from ..checkers.connectivity import _components
from ..core import density_param, vertex_mask
from ..generators import disjoint_cliques, nearly_equal_parts
from ..seeds import SeedSpec, as_seed
from .sweep import SweepConfig, _int

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


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def geometric_grid(lower: float, upper: float, max_m: int) -> tuple[int, ...]:
    """Integer geometric 12-point grid spanning [lower/4, 4*upper],
    clipped to [0, max_m], deduplicated and strictly increasing.  When
    the span dips below 1 the grid picks up m=0, anchoring curves that
    start at probability zero."""
    lo = max(0.25, lower / 4)
    hi = min(float(max_m), 4 * upper)
    if hi <= lo:
        return (int(round(lo)),)
    ratio = hi / lo
    values = sorted({int(round(lo * ratio ** (i / 11))) for i in range(12)})
    return tuple(v for v in values if 0 <= v <= max_m)


def clique_exponent(r: int, r0: int) -> Fraction:
    blocks = -((-r) // r0)  # ceil(r / r0)
    if blocks < 2:
        raise ValueError(f"need r > r0 (got r={r}, r0={r0})")
    return 2 - Fraction(2, blocks - 1)


def _thm2(n: int, p: dict) -> tuple:
    """K_r on the complete r0-partite base; d defaults to (r0-1)/r0."""
    r, r0 = p["r"], p["r0"]
    if not (r > r0 >= 2):
        raise ValueError(f"need r > r0 >= 2, got r={r}, r0={r0}")
    d = p.get("d") or Fraction(r0 - 1, r0)
    lo_d, hi_d = Fraction(r0 - 2, r0 - 1), Fraction(r0 - 1, r0)
    if not (lo_d < d <= hi_d):
        raise ValueError(f"thm2 needs d in ({lo_d}, {hi_d}], got {d}")
    parts = nearly_equal_parts(n, r0)
    ref = float(n) ** float(clique_exponent(r, r0))
    return (ref, ref, sum(s * (s - 1) // 2 for s in parts),
            {"name": "complete_multipartite", "params": {"parts": parts}},
            {"name": "contains_kr", "params": {"r": r}})


def _blocked(n: int, d: Fraction, prop: dict) -> tuple:
    """(max_m, generator, prop) on the blocked G(n, p) base of thm3/thm4."""
    if 2 * float(d) + n ** (-1 / 3) > 1:
        raise ValueError("blocked base graph needs 2d + n^(-1/3) <= 1")
    # cross pairs are always available
    return ((n // 2) * (n - n // 2),
            {"name": "blocked_gnp", "params": {"n": n, "d": str(d)}}, prop)


def _thm3(n: int, p: dict) -> tuple:
    upper = float(PRESET_SLACKS["thm3"]["omega_const"])
    return (1.0, upper) + _blocked(n, p["d"], {"name": "diameter_le", "params": {"t": 5}})


def _thm4(n: int, p: dict) -> tuple:
    """diam <= 3 (side diam3, the default) or diam >= 5 (side diam5)."""
    if not p["d"] < Fraction(1, 2):
        raise ValueError("thm4 needs d < 1/2")
    side = p.get("side", "diam3")
    if side not in ("diam3", "diam5"):
        raise ValueError(f"thm4 side must be diam3 or diam5, got {side!r}")
    prop = ({"name": "diameter_le", "params": {"t": 3}} if side == "diam3"
            else {"name": "diameter_ge", "params": {"t": 5}})
    d = float(p["d"])
    lower = math.log(n) / (-2 * math.log(1 - 2 * d))
    upper = (1 - d) / (d * d) * math.log(n)
    return (lower, upper) + _blocked(n, p["d"], prop)


def _thm5(n: int, p: dict) -> tuple:
    """Diameter 2 on two_cliques(n), whose density is (n//2 - 1)/n."""
    if n < 4:  # the density is 0 below
        raise ValueError("thm5 needs n >= 4")
    d = Fraction(n // 2 - 1, n)
    return (0.5 * n * math.log(n), float((1 - d) / d) * n * math.log(n),
            (n // 2) * (n - n // 2),
            {"name": "two_cliques", "params": {"n": n}},
            {"name": "diameter_le", "params": {"t": 2}})


def _thm6(n: int, p: dict) -> tuple:
    """k-connectivity on n // s disjoint cliques of size s = ceil(dn + 1)."""
    d, k = p["d"], p["k"]
    if k < 1:
        raise ValueError("thm6 needs k >= 1")
    s = _ceil_frac(d * n + 1)
    if s > n:
        raise ValueError(f"clique size {s} exceeds n={n}; lower d")
    return (k * (n // s) / 2, float(640 * k / (float(d) ** 2)),
            n * (n - 1) // 2 - disjoint_cliques(n, s).edge_count,
            {"name": "disjoint_cliques", "params": {"n": n, "clique_size": s}},
            {"name": "k_connected", "params": {"k": k}})


# name -> (function, required params, optional params); a missing
# required param is reported in the order listed
_PRESETS = {
    "thm2": (_thm2, ("r", "r0"), ("d",)),
    "thm3": (_thm3, ("d",), ()),
    "thm4": (_thm4, ("d",), ("side",)),
    "thm5": (_thm5, (), ()),
    "thm6": (_thm6, ("d", "k"), ()),
}

PRESET_NAMES = tuple(_PRESETS)

# params every preset accepts, and the params that are integers
_COMMON_PARAMS = frozenset({"trials", "master_seed", "output_path"})
_INTEGER_PARAMS = frozenset({"trials", "r", "r0", "k"})


def _preset(name: str, n: int, params: dict) -> tuple[dict, tuple]:
    """The params, checked against the preset's names and read (integers
    checked, not truncated, and d as an exact Fraction), and the
    preset's record for them."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {PRESET_NAMES}")
    _, required, optional = _PRESETS[name]
    unknown = set(params) - _COMMON_PARAMS - set(required) - set(optional)
    if unknown:
        raise ValueError(f"preset {name} does not take the params {sorted(unknown)}")
    for key in required:
        if key not in params:
            raise ValueError(f"preset {name} needs the parameter {key}=...")
    p = {key: _int(params, key, f"preset {name}") if key in _INTEGER_PARAMS else value
         for key, value in params.items()}
    if p.get("d") is not None:  # thm2 reads d=None as its default
        p["d"] = density_param(p["d"])
    return p, _PRESETS[name][0](n, p)


def reference_formulas(name: str, n: int, params: dict) -> dict:
    """Lower/upper reference m for each preset, as floats (natural log)."""
    _, (lower, upper, *_) = _preset(name, n, params)
    return {"lower": lower, "upper": upper}


def theorem_preset(name: str, n: int, params: dict | None = None) -> SweepConfig:
    """Fully populated SweepConfig for a named preset experiment.

    Common optional params: trials (default 200), master_seed and
    output_path.  Per-preset params: thm2 needs r, r0 and optionally d;
    thm3 and thm4 need d (thm4 also takes side in {"diam3", "diam5"});
    thm5 takes none; thm6 needs d and k.  Any other key, and a bool or
    non-integer for trials, r, r0 or k, is rejected.
    """
    p, (lower, upper, max_m, generator, prop) = _preset(name, n, params or {})
    return SweepConfig(
        generator=generator,
        model="uniform",
        grid=geometric_grid(lower, upper, max_m),
        trials=p.get("trials", 200),
        property=prop,
        master_seed=as_seed(p.get("master_seed", 0)),
        output_path=p.get("output_path"),
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
    _, (_, _, max_m, generator, prop) = _preset(name, n, {"d": d, "k": k})
    s, k = generator["params"]["clique_size"], prop["params"]["k"]
    samples = _int({"samples": samples}, "samples", "thm6 bound check")
    seed = as_seed(seed)
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
    if max_r > max_m:
        raise ValueError("bound size exceeds available non-edges; parameters invalid")

    # the components of a disjoint union of cliques are its cliques
    h = disjoint_cliques(n, s)
    full = (1 << n) - 1
    cliques = _components(h.adjacency_masks(), full)
    for i in range(samples):
        aug = augment_uniform(h, max_r, seed.derive(i))
        # check the certificate on the graph: the clique holding the fewest
        # R-endpoints holds no more than the least-hit clique, so fewer
        # than k, and deleting them cuts the graph
        ends = vertex_mask(v for edge in aug.added for v in edge)
        cut = min((ends & c for c in cliques), key=int.bit_count)
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
