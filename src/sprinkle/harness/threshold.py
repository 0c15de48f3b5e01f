"""Threshold estimation from a sweep: linear interpolation of the 1/2
crossing of the empirical curve, which run_sweep makes monotone by
construction."""

from __future__ import annotations

from dataclasses import dataclass

from .sweep import SweepResult


@dataclass(frozen=True)
class ThresholdEstimate:
    """Interpolated grid location where the curve crosses 1/2, with the
    bracketing grid values on either side of the crossing."""

    m_half: float
    bracket: tuple


def estimate_threshold(result: SweepResult) -> ThresholdEstimate:
    """Crossing of 1/2 on the empirical curve.

    For a monotone increasing property the bracket is (largest grid m
    with p_hat below 1/2, smallest with p_hat at least 1/2); decreasing
    properties are handled symmetrically.  Grid points with no decided
    trial or with an infeasible trial are left out.  Raises if the rest
    of the curve is not monotone in the result's direction, or never
    attains both sides of 1/2, which means the grid needs widening.
    """
    # a point whose every trial was indeterminate has no estimate, and
    # one with an infeasible trial does not estimate Pr[P at m]
    points = [pt for pt in result.points if pt.trials > 0 and not pt.infeasible]
    grid = [pt.value for pt in points]
    p_hats = [pt.p_hat for pt in points]
    if any((b - a) * result.direction < 0 for a, b in zip(p_hats, p_hats[1:])):
        raise ValueError(
            f"curve is not monotone in direction {result.direction}: {p_hats}")

    below = [i for i, v in enumerate(p_hats) if v < 0.5]
    at_or_above = [i for i, v in enumerate(p_hats) if v >= 0.5]
    if not below or not at_or_above:
        span = (f"p_hat range [{min(p_hats):.3f}, {max(p_hats):.3f}]" if p_hats
                else "no grid point has a decided feasible trial")
        raise ValueError(f"curve never crosses 1/2; widen the sweep grid ({span})")
    if result.direction >= 0:
        i, j = max(below), min(at_or_above)
    else:
        i, j = max(at_or_above), min(below)
    gi, gj = grid[i], grid[j]
    vi, vj = p_hats[i], p_hats[j]
    if vj == vi:
        m_half = float(gj)
    else:
        m_half = gi + (0.5 - vi) * (gj - gi) / (vj - vi)
    lo, hi = (gi, gj) if gi <= gj else (gj, gi)
    m_half = min(max(m_half, lo), hi)
    return ThresholdEstimate(m_half=float(m_half), bracket=(gi, gj))
