"""Declarative Monte Carlo sweeps: generate a base graph, add random
edges, check a monotone property over an m-grid, repeat.

Trial t's randomness is derived from the master seed and t alone, and
one labelled draw of the non-edges serves all its grid points, so one
trial's graphs at the grid points are nested and a sweep is a pure
function of its config: reruns reproduce the CSV byte for byte.  A
base-graph family that ignores its seed (SEED_FREE_GENERATORS) is built
once per sweep and shared by every trial, together with its memoised
non-edge pool; any other family is rebuilt from each trial's seed.
The bisection's probes grow incrementally: each starts from the masks of
the last probe that had not flipped and ORs in, unchecked, only the
pairs of the draw added since, which come from the base's own pool.
"""

from __future__ import annotations

import hashlib
import json
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, asdict
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from ..augment import augment_bernoulli, augment_uniform
from ..checkers import (
    contains_kr,
    diameter_at_most,
    is_connected,
    is_k_connected,
)
from ..core import Graph, density_param
from ..generators import (
    blocked_gnp,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_cliques,
    empty_graph,
    gnm,
    mader_tightness_graph,
    path_graph,
    two_cliques,
)
from ..seeds import SeedSpec

Z95 = 1.959963984540054


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------

def _gen_complete_multipartite(params, seed):
    return complete_multipartite(list(params["parts"]))


def _gen_two_cliques(params, seed):
    return two_cliques(int(params["n"]))


def _gen_disjoint_cliques(params, seed):
    return disjoint_cliques(int(params["n"]), int(params["clique_size"]))


def _gen_blocked_gnp(params, seed):
    return blocked_gnp(int(params["n"]), density_param(params["d"]), seed)


def _gen_gnm(params, seed):
    return gnm(int(params["n"]), int(params["M"]), seed)


def _gen_mader_tightness(params, seed):
    return mader_tightness_graph(int(params["n"]), int(params["k"]), seed)


GENERATORS: dict[str, Callable] = {
    "complete_multipartite": _gen_complete_multipartite,
    "two_cliques": _gen_two_cliques,
    "disjoint_cliques": _gen_disjoint_cliques,
    "blocked_gnp": _gen_blocked_gnp,
    "gnm": _gen_gnm,
    "mader_tightness": _gen_mader_tightness,
    "complete": lambda p, s: complete_graph(int(p["n"])),
    "empty": lambda p, s: empty_graph(int(p["n"])),
    "path": lambda p, s: path_graph(int(p["n"])),
    "cycle": lambda p, s: cycle_graph(int(p["n"])),
}

# GENERATORS entries whose graph does not depend on the seed.  Listing
# these, not the seeded ones, means a family added later is rebuilt on
# every trial unless it is put here.
SEED_FREE_GENERATORS = frozenset({
    "complete_multipartite",
    "two_cliques",
    "disjoint_cliques",
    "complete",
    "empty",
    "path",
    "cycle",
})


def _diameter_ge(g: Graph, p: dict) -> bool:
    t = int(p["t"])
    if t <= 0:
        return True
    return not diameter_at_most(g, t - 1)


# name -> (predicate(graph, params) -> bool, +1 increasing / -1 decreasing)
PROPERTIES: dict[str, tuple[Callable, int]] = {
    "contains_kr": (lambda g, p: bool(contains_kr(g, int(p["r"]))), +1),
    "diameter_le": (lambda g, p: bool(diameter_at_most(g, int(p["t"]))), +1),
    "diameter_ge": (_diameter_ge, -1),
    "k_connected": (lambda g, p: bool(is_k_connected(g, int(p["k"]))), +1),
    "connected": (lambda g, p: is_connected(g), +1),
}


# ---------------------------------------------------------------------------
# config and result types
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "generator",
    "model",
    "grid",
    "trials",
    "property",
    "master_seed",
    "output_path",
    "trial_timeout_s",
}


@dataclass(frozen=True)
class SweepConfig:
    """One declarative experiment: base-graph family, augmentation
    model, grid of m (or p) values, trials per grid point, property to
    check, and the master seed everything derives from."""

    generator: dict
    model: str
    grid: tuple
    trials: int
    property: dict
    master_seed: SeedSpec
    output_path: Optional[str] = None
    trial_timeout_s: Optional[float] = None

    def __post_init__(self):
        if self.model not in ("uniform", "bernoulli"):
            raise ValueError(f"unknown model {self.model!r}")
        grid = tuple(self.grid)
        if len(grid) < 1:
            raise ValueError("grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"grid must be strictly increasing, got {grid}")
        # bool subclasses int, so True would pass as 1
        if any(isinstance(v, bool) for v in grid):
            raise ValueError(f"grid values must be numbers, not booleans, got {grid}")
        if self.model == "uniform" and any(
            (not isinstance(v, int)) or v < 0 for v in grid
        ):
            raise ValueError("uniform-model grid must hold nonnegative integers")
        # another number type would not survive the JSON round trip
        if self.model == "bernoulli" and any(
            not isinstance(v, (int, float)) or not 0 <= v <= 1 for v in grid
        ):
            raise ValueError(
                f"bernoulli-model grid must hold ints or floats in [0, 1], got {grid}")
        object.__setattr__(self, "grid", grid)
        if not isinstance(self.trials, int) or isinstance(self.trials, bool):
            raise ValueError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.generator.get("name") not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator.get('name')!r}")
        if self.property.get("name") not in PROPERTIES:
            raise ValueError(f"unknown property {self.property.get('name')!r}")

    def to_json_dict(self) -> dict:
        def enc(value):
            if isinstance(value, Fraction):
                return str(value)
            if isinstance(value, dict):
                return {k: enc(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [enc(v) for v in value]
            return value

        return {
            "generator": enc(self.generator),
            "model": self.model,
            "grid": list(self.grid),
            "trials": self.trials,
            "property": enc(self.property),
            "master_seed": {"seed": self.master_seed.seed,
                            "stream_id": self.master_seed.stream_id},
            "output_path": self.output_path,
            "trial_timeout_s": self.trial_timeout_s,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "SweepConfig":
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {"generator", "model", "grid", "trials", "property",
                   "master_seed"} - set(doc)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        seed_doc = doc["master_seed"]
        if isinstance(seed_doc, dict):
            seed = SeedSpec(int(seed_doc["seed"]), int(seed_doc.get("stream_id", 0)))
        else:
            seed = SeedSpec(int(seed_doc))
        return SweepConfig(
            generator=doc["generator"],
            model=doc["model"],
            grid=tuple(doc["grid"]),
            trials=doc["trials"],
            property=doc["property"],
            master_seed=seed,
            output_path=doc.get("output_path"),
            trial_timeout_s=doc.get("trial_timeout_s"),
        )

    def config_hash(self) -> str:
        doc = self.to_json_dict()
        doc.pop("output_path")  # where results land does not affect them
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class GridPointResult:
    value: object  # m (int) or p (float)
    trials: int  # trials counted (indeterminate excluded)
    successes: int
    indeterminate: int
    infeasible: int
    p_hat: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    points: tuple[GridPointResult, ...]
    direction: int  # +1 if the property is monotone increasing in m
    wall_clock_s: float

    def to_csv(self) -> str:
        lines = ["m,trials,successes,p_hat,ci_lo,ci_hi"]
        for pt in self.points:
            lines.append(
                f"{pt.value},{pt.trials},{pt.successes},"
                f"{pt.p_hat!r},{pt.ci_lo!r},{pt.ci_hi!r}"
            )
        return "\n".join(lines) + "\n"

    def sidecar_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "config_hash": self.config.config_hash(),
            "direction": self.direction,
            "points": [asdict(pt) for pt in self.points],
            # informational only; everything else is reproducible
            "wall_clock_s": self.wall_clock_s,
        }

    def write(self, output_path: str | Path) -> None:
        path = Path(output_path)
        path.write_text(self.to_csv(), encoding="ascii", newline="\n")
        sidecar = path.with_name(path.name + ".meta.json")
        sidecar.write_text(
            json.dumps(self.sidecar_dict(), indent=2, sort_keys=True) + "\n",
            encoding="ascii",
        )


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Two-sided Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * (phat * (1 - phat) / trials + z * z / (4 * trials * trials)) ** 0.5
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def run_sweep(config: SweepConfig) -> SweepResult:
    """Execute the sweep, one trial after another.

    Trial t draws its base graph (unless the family is seed-free) and its
    edge randomness from master_seed.derive(t), the same for every grid
    point.  Its one augment call, at the largest feasible grid value,
    lists the added pairs in label order, and the graph at m (or p) adds
    the first m of them (or those with labels below p).  The property is
    monotone, so a bisection over the feasible grid points finds the
    first point at which it has flipped to its far side, and that index
    decides every point.  A uniform m above the base's non-edge count is
    an infeasible failure; those points form a suffix of the grid.

    trial_timeout_s times one trial: its base draw (a seed-free base is
    built once, before the first trial) and its bisection.  A trial over
    budget is indeterminate at every grid point."""
    name = config.generator["name"]
    gen = GENERATORS[name]
    prop, direction = PROPERTIES[config.property["name"]]
    gen_params = config.generator.get("params", {})
    prop_params = config.property.get("params", {})
    grid = config.grid
    uniform = config.model == "uniform"
    augment = augment_uniform if uniform else augment_bernoulli
    far = direction > 0  # the property's value once it has flipped
    started = time.perf_counter()
    shared = gen(gen_params, None) if name in SEED_FREE_GENERATORS else None

    successes = [0] * len(grid)
    infeasible = [0] * len(grid)
    indeterminate = 0
    for ti in range(config.trials):
        seed = config.master_seed.derive(ti)
        start = time.perf_counter()
        base = shared if shared is not None else gen(gen_params, seed.stream(0))
        feasible = len(grid)
        if uniform:
            feasible = bisect_right(grid, base.n * (base.n - 1) // 2 - base.edge_count)
        lo, hit = 0, feasible
        if feasible:
            aug = augment(base, grid[feasible - 1], seed.stream(1))
        below, done = base, 0  # the last probe that had not flipped, and its k
        while lo < hit:
            mid = (lo + hit) // 2
            k = grid[mid] if uniform else bisect_left(aug.labels, grid[mid])
            probe = below._with_pool_pairs(aug.u[done:k], aug.v[done:k])
            if bool(prop(probe, prop_params)) == far:
                hit = mid
            else:
                lo = mid + 1
                below, done = probe, k
        if (
            config.trial_timeout_s is not None
            and time.perf_counter() - start > config.trial_timeout_s
        ):
            indeterminate += 1
            continue
        for i in range(len(grid)):
            if i >= feasible:
                infeasible[i] += 1
            elif (i >= hit) == far:
                successes[i] += 1

    points = []
    counted = config.trials - indeterminate
    for value, ok, bad in zip(grid, successes, infeasible):
        lo, hi = wilson_interval(ok, counted)
        points.append(
            GridPointResult(
                value=value,
                trials=counted,
                successes=ok,
                indeterminate=indeterminate,
                infeasible=bad,
                p_hat=ok / counted if counted else 0.0,
                ci_lo=lo,
                ci_hi=hi,
            )
        )

    result = SweepResult(
        config=config,
        points=tuple(points),
        direction=direction,
        wall_clock_s=time.perf_counter() - started,
    )
    if config.output_path:
        result.write(config.output_path)
    return result
