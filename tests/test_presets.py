import math
from fractions import Fraction

import pytest

from sprinkle import disjoint_cliques, is_k_connected
from sprinkle.harness import (
    PRESET_NAMES,
    PRESET_SLACKS,
    deterministic_lower_bound_check,
    geometric_grid,
    reference_formulas,
    run_sweep,
    theorem_preset,
)
from sprinkle.harness.presets import clique_exponent


def test_clique_exponent_instances():
    # r=5, r0=2: exponent 2 - 2/(ceil(5/2)-1) = 1
    assert clique_exponent(5, 2) == 1
    assert clique_exponent(6, 2) == 1
    assert clique_exponent(7, 2) == Fraction(4, 3)
    with pytest.raises(ValueError):
        clique_exponent(2, 2)


def test_thm2_reference_is_linear_for_r5_r0_2():
    refs = reference_formulas("thm2", 120, {"r": 5, "r0": 2})
    assert refs["lower"] == refs["upper"] == pytest.approx(120.0)


def test_thm4_upper_reference_value():
    # d = 0.25, n = 1000: (1-d)/d^2 * ln n = 12 * ln 1000 ~ 82.9
    refs = reference_formulas("thm4", 1000, {"d": "0.25"})
    assert refs["upper"] == pytest.approx(82.89, abs=0.05)


def test_thm5_reference_values():
    refs = reference_formulas("thm5", 200, {})
    assert refs["lower"] == pytest.approx(100 * math.log(200))
    assert refs["upper"] >= refs["lower"]


def test_thm6_lower_reference_instance():
    # n=60, d=0.2, k=4: (k/2) * floor(n/(dn+1)) = 2 * 4 = 8
    refs = reference_formulas("thm6", 60, {"d": "0.2", "k": 4})
    assert refs["lower"] == 8
    assert refs["upper"] == pytest.approx(640 * 4 / 0.04)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        theorem_preset("thm9", 50, {})
    assert set(PRESET_NAMES) == {"thm2", "thm3", "thm4", "thm5", "thm6"}


def test_missing_required_params_rejected_cleanly():
    with pytest.raises(ValueError, match="thm6 needs the parameter d"):
        theorem_preset("thm6", 50, {"k": 3})
    with pytest.raises(ValueError, match="thm6 needs the parameter k"):
        theorem_preset("thm6", 50, {"d": "0.2"})
    with pytest.raises(ValueError, match="thm2 needs the parameter r"):
        theorem_preset("thm2", 50, {})
    with pytest.raises(ValueError, match="thm4 needs the parameter d"):
        reference_formulas("thm4", 50, {})


def test_unknown_params_rejected():
    with pytest.raises(ValueError, match=r"thm5 does not take the params \['trails', 'workers'\]"):
        theorem_preset("thm5", 40, {"trails": 5, "workers": 4})
    with pytest.raises(ValueError, match=r"\['k'\]"):
        theorem_preset("thm3", 100, {"d": "0.15", "k": 2})
    with pytest.raises(ValueError, match=r"\['side'\]"):
        theorem_preset("thm6", 36, {"d": "0.25", "k": 3, "side": "diam3"})
    cfg = theorem_preset("thm4", 100, {"d": "0.2", "side": "diam5", "trials": 3,
                                       "master_seed": 1, "output_path": None})
    assert cfg.trials == 3


def test_thm2_config_shape_and_hypothesis_guard():
    cfg = theorem_preset("thm2", 40, {"r": 5, "r0": 2})
    assert cfg.generator["name"] == "complete_multipartite"
    assert cfg.generator["params"]["parts"] == [20, 20]
    assert cfg.property == {"name": "contains_kr", "params": {"r": 5}}
    assert all(b > a for a, b in zip(cfg.grid, cfg.grid[1:]))
    # d outside ((r0-2)/(r0-1), (r0-1)/r0] is rejected
    with pytest.raises(ValueError, match="thm2 needs d"):
        theorem_preset("thm2", 40, {"r": 5, "r0": 2, "d": "0.7"})
    with pytest.raises(ValueError, match="r > r0"):
        theorem_preset("thm2", 40, {"r": 2, "r0": 2})


def test_thm3_and_thm4_configs():
    cfg3 = theorem_preset("thm3", 100, {"d": "0.15"})
    assert cfg3.generator["name"] == "blocked_gnp"
    assert cfg3.property == {"name": "diameter_le", "params": {"t": 5}}
    cfg4 = theorem_preset("thm4", 100, {"d": "0.2", "side": "diam5"})
    assert cfg4.property == {"name": "diameter_ge", "params": {"t": 5}}
    with pytest.raises(ValueError, match="side"):
        theorem_preset("thm4", 100, {"d": "0.2", "side": "diam4"})
    with pytest.raises(ValueError, match="d < 1/2"):
        theorem_preset("thm4", 100, {"d": "0.5"})


def test_thm5_config_grid_within_feasible_range():
    cfg = theorem_preset("thm5", 60, {})
    max_cross = 30 * 30
    assert all(0 <= m <= max_cross for m in cfg.grid)
    assert cfg.generator == {"name": "two_cliques", "params": {"n": 60}}


def test_thm6_config_and_clique_size():
    cfg = theorem_preset("thm6", 60, {"d": "0.2", "k": 4})
    assert cfg.generator["params"] == {"n": 60, "clique_size": 13}
    assert cfg.property == {"name": "k_connected", "params": {"k": 4}}


def test_preset_slacks_recorded_with_seed():
    for name in ("thm3", "thm4", "thm5", "thm6"):
        assert "calibration_seed" in PRESET_SLACKS[name]


def test_geometric_grid_span_and_clipping():
    grid = geometric_grid(8.0, 100.0, max_m=120)
    assert grid[0] == max(1, round(8 / 4))
    assert grid[-1] <= 120
    assert all(b > a for a, b in zip(grid, grid[1:]))
    tight = geometric_grid(100.0, 100.0, max_m=50)
    assert all(m <= 50 for m in tight)


def test_deterministic_lower_bound_examples():
    verdict = deterministic_lower_bound_check("thm6", 60, "0.2", 4, samples=20, seed=1)
    assert verdict.holds
    assert "< 4 incident" in verdict.reason or "fewer than 4" in verdict.reason
    with pytest.raises(ValueError, match="thm6"):
        deterministic_lower_bound_check("thm5", 60, "0.2", 4)


def test_lower_bound_r_zero_means_disconnected():
    # with no added edges the base graph itself is not even 1-connected
    h = disjoint_cliques(60, 13)
    assert not is_k_connected(h, 1).holds


def test_small_thm6_sweep_crosses_above_reference_lower_bound():
    cfg = theorem_preset(
        "thm6", 36, {"d": "0.25", "k": 3, "trials": 40, "master_seed": 4}
    )
    res = run_sweep(cfg)
    refs = reference_formulas("thm6", 36, {"d": "0.25", "k": 3})
    # below the deterministic bound the curve must be identically zero
    for pt in res.points:
        if pt.value < refs["lower"]:
            assert pt.successes == 0
    # and the crossing sits weakly between the reference formulas, with
    # the recorded slack widening the window
    from sprinkle.harness import estimate_threshold

    est = estimate_threshold(res)
    slack = PRESET_SLACKS["thm6"]["omega_const"]
    assert refs["lower"] - slack <= est.m_half <= refs["upper"] + slack


def test_small_thm5_sweep_threshold_window():
    n = 60
    cfg = theorem_preset("thm5", n, {"trials": 60, "master_seed": 4})
    res = run_sweep(cfg)
    from sprinkle.harness import estimate_threshold

    est = estimate_threshold(res)
    refs = reference_formulas("thm5", n, {})
    slack = PRESET_SLACKS["thm5"]["omega_n_coeff"] * n
    assert refs["lower"] - slack <= est.m_half <= refs["upper"] + slack
