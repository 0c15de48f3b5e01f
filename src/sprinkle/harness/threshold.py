"""Threshold estimation from a sweep: isotonic regression of the
empirical curve (pool-adjacent-violators, trial-weighted) followed by
linear interpolation of the 1/2 crossing."""

from __future__ import annotations

from dataclasses import dataclass

from .sweep import SweepResult


def pava(values: list[float], weights: list[float]) -> list[float]:
    """Weighted least-squares fit of a nondecreasing sequence."""
    if len(values) != len(weights):
        raise ValueError("values and weights must have equal length")
    blocks: list[list[float]] = []  # [mean, weight, count]
    for v, w in zip(values, weights):
        blocks.append([v, w, 1])
        while len(blocks) > 1 and blocks[-2][0] >= blocks[-1][0]:
            m2, w2, c2 = blocks.pop()
            m1, w1, c1 = blocks.pop()
            total = w1 + w2
            blocks.append([(m1 * w1 + m2 * w2) / total, total, c1 + c2])
    out = []
    for mean, _, count in blocks:
        out.extend([mean] * count)
    return out


@dataclass(frozen=True)
class ThresholdEstimate:
    """Interpolated grid location where the regressed curve crosses 1/2,
    with the bracketing grid values on either side of the crossing."""

    m_half: float
    bracket: tuple


def estimate_threshold(result: SweepResult) -> ThresholdEstimate:
    """Crossing of 1/2 on the isotonic-regressed curve.

    For a monotone increasing property the bracket is (largest grid m
    with fitted value below 1/2, smallest with fitted value at least
    1/2); decreasing properties are handled symmetrically.  Grid points
    with no decided trial are left out.  Raises if the fitted curve
    never attains both sides of 1/2, which means the grid needs
    widening.
    """
    # a point whose every trial was indeterminate has no estimate; its
    # stored p_hat of 0 must not enter the fit
    points = [pt for pt in result.points if pt.trials > 0]
    grid = [pt.value for pt in points]
    p_hats = [pt.p_hat for pt in points]
    weights = [pt.trials for pt in points]
    if result.direction >= 0:
        fitted = pava(p_hats, weights)
    else:
        fitted = [1 - v for v in pava([1 - v for v in p_hats], weights)]

    below = [i for i, v in enumerate(fitted) if v < 0.5]
    at_or_above = [i for i, v in enumerate(fitted) if v >= 0.5]
    if not below or not at_or_above:
        span = (f"fitted range [{min(fitted):.3f}, {max(fitted):.3f}]" if fitted
                else "no grid point has a decided trial")
        raise ValueError(f"fitted curve never crosses 1/2; widen the sweep grid ({span})")
    if result.direction >= 0:
        i, j = max(below), min(at_or_above)
    else:
        i, j = max(at_or_above), min(below)
    gi, gj = grid[i], grid[j]
    vi, vj = fitted[i], fitted[j]
    if vj == vi:
        m_half = float(gj)
    else:
        m_half = gi + (0.5 - vi) * (gj - gi) / (vj - vi)
    lo, hi = (gi, gj) if gi <= gj else (gj, gi)
    m_half = min(max(m_half, lo), hi)
    return ThresholdEstimate(m_half=float(m_half), bracket=(gi, gj))
