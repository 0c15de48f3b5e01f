"""The benchmark's fixed sweep workloads and their correctness gates.

A workload is one SweepConfig recipe.  The benchmark runs it as a
closed loop of back-to-back sweeps in one process with workers=1; sweep
number i uses the master seed SeedSpec(seed, i), so sweep 0 is exactly
the preset the workload is named after and every later sweep draws
fresh inputs from the same seed.

Each gate is keyed to theory, not to observed data, and returns the
list of violations (empty when the sweep is correct).  The reference
formulas are restated here rather than taken from sprinkle.harness so
that a defect in the program cannot move its own gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from sprinkle import SeedSpec
from sprinkle.harness import (
    SweepConfig,
    SweepResult,
    ThresholdEstimate,
    theorem_preset,
)

Gate = Callable[[SweepConfig, SweepResult, Optional[ThresholdEstimate]], list]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    n: int
    trials: int
    build: Callable[[int, int, SeedSpec], SweepConfig]  # (n, trials, master_seed)
    gate: Gate

    def config(self, seed: int, sweep_index: int) -> SweepConfig:
        return self.build(self.n, self.trials, SeedSpec(seed, sweep_index))

    def trials_per_sweep(self) -> int:
        return len(self.config(self.default_seed, 0).grid) * self.trials


NO_CROSSING = "fitted curve never crosses 1/2"


def _in_range(label: str, value: float, lo: float, hi: float) -> list:
    if lo <= value <= hi:
        return []
    return [f"{label} = {value:.4g} outside [{lo:.4g}, {hi:.4g}]"]


# ---------------------------------------------------------------------------
# thm5-diam2: two cliques, diameter <= 2
# ---------------------------------------------------------------------------

def _thm5_build(n, trials, seed):
    return theorem_preset("thm5", n, {"trials": trials, "master_seed": seed})


def thm5_gate(cfg, res, est):
    """m_half in [0.5 n ln n - 2n, n ln n + 2n]."""
    if est is None:
        return [NO_CROSSING]
    n = int(cfg.generator["params"]["n"])
    lo = 0.5 * n * math.log(n) - 2 * n
    hi = n * math.log(n) + 2 * n
    return _in_range("m_half", est.m_half, lo, hi)


# ---------------------------------------------------------------------------
# thm6-kconn: disjoint cliques, 3-connectivity
# ---------------------------------------------------------------------------

def _thm6_build(n, trials, seed):
    return theorem_preset(
        "thm6", n, {"d": "0.1", "k": 3, "trials": trials, "master_seed": seed}
    )


def thm6_gate(cfg, res, est):
    """Pigeonhole: fewer than kt/2 added edges leave some clique with
    fewer than k incident edges, so no grid m < kt/2 may succeed."""
    n = int(cfg.generator["params"]["n"])
    t = n // int(cfg.generator["params"]["clique_size"])
    bound = Fraction(int(cfg.property["params"]["k"]) * t, 2)
    out = [
        f"pigeonhole: {pt.successes} successes at m={pt.value} < kt/2={float(bound)}"
        for pt in res.points
        if pt.value < bound and pt.successes
    ]
    if est is None:
        return out + [NO_CROSSING]
    if est.m_half < bound:
        out.append(f"m_half = {est.m_half:.4g} below kt/2 = {float(bound)}")
    return out


# ---------------------------------------------------------------------------
# thm2-clique: complete 4-partite base, contains K_9
# ---------------------------------------------------------------------------

def _thm2_build(n, trials, seed):
    return theorem_preset(
        "thm2", n, {"r": 9, "r0": 4, "trials": trials, "master_seed": seed}
    )


def thm2_gate(cfg, res, est):
    """The curve crosses 1/2 and m_half lies in [ref/4, 4 ref] with
    ref = n^(2 - 2/(ceil(r/r0) - 1))."""
    p_hats = [pt.p_hat for pt in res.points]
    out = []
    if not (min(p_hats) < 0.5 <= max(p_hats)):
        out.append(f"curve does not cross 1/2 (p_hat in [{min(p_hats)}, {max(p_hats)}])")
    if est is None:
        return out + [NO_CROSSING]
    parts = cfg.generator["params"]["parts"]
    n, r0 = sum(parts), len(parts)
    r = int(cfg.property["params"]["r"])
    ref = n ** (2 - 2 / (-(-r // r0) - 1))
    return out + _in_range("m_half", est.m_half, ref / 4, 4 * ref)


# ---------------------------------------------------------------------------
# thm4-bern-diam3: blocked G(n, p) base, Bernoulli model, diameter <= 3
# ---------------------------------------------------------------------------

THM4_D = "0.15"


def thm4_bounds(n: int, d: float) -> tuple[float, float]:
    """thm4's lower and upper reference edge counts (natural log)."""
    lower = math.log(n) / (-2 * math.log(1 - 2 * d))
    upper = (1 - d) / (d * d) * math.log(n)
    return lower, upper


def _thm4_build(n, trials, seed):
    lower, upper = thm4_bounds(n, float(THM4_D))
    pairs = n * (n - 1) // 2
    lo, hi = lower / 4, 4 * upper
    grid = tuple(lo * (hi / lo) ** (i / 11) / pairs for i in range(12))
    return SweepConfig(
        generator={"name": "blocked_gnp", "params": {"n": n, "d": THM4_D}},
        model="bernoulli",
        grid=grid,
        trials=trials,
        property={"name": "diameter_le", "params": {"t": 3}},
        master_seed=seed,
    )


def thm4_gate(cfg, res, est):
    """p_half * C(n, 2) in thm4's [lower, upper]."""
    if est is None:
        return [NO_CROSSING]
    n = int(cfg.generator["params"]["n"])
    lower, upper = thm4_bounds(n, float(cfg.generator["params"]["d"]))
    return _in_range("p_half*C(n,2)", est.m_half * n * (n - 1) / 2, lower, upper)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "thm5-diam2",
            "plumbing dominates (gen+augment ~85% of a trial) on a deterministic base; "
            "base/pool caching, a mask Graph and a vectorised draw must show here",
            11, 200, 4, _thm5_build, thm5_gate,
        ),
        Workload(
            "thm6-kconn",
            "the vertex-split max-flow checker takes ~90% of a trial; "
            "plumbing changes should barely move it",
            12, 120, 1, _thm6_build, thm6_gate,
        ),
        Workload(
            "thm2-clique",
            "the only preset where the K_r branch and bound does real work "
            "(~25% of a trial) next to a deterministic multipartite base",
            2, 80, 10, _thm2_build, thm2_gate,
        ),
        Workload(
            "thm4-bern-diam3",
            "Bernoulli model on a seeded base no cache can skip; "
            "a uniform-path win must not cost this path",
            7, 150, 10, _thm4_build, thm4_gate,
        ),
    )
}
