import math
from fractions import Fraction

import pytest

from sprinkle import SeedSpec, disjoint_cliques, is_k_connected
from sprinkle.harness import (
    PRESET_NAMES,
    PRESET_SLACKS,
    deterministic_lower_bound_check,
    geometric_grid,
    reference_formulas,
    run_sweep,
    theorem_preset,
)
from sprinkle.harness.presets import _preset, clique_exponent
from sprinkle.harness.sweep import GENERATORS


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


@pytest.mark.parametrize("name, params, key", [
    ("thm5", {"trials": 2.7}, "trials"),
    ("thm5", {"trials": True}, "trials"),
    ("thm5", {"trials": "5"}, "trials"),
    ("thm6", {"d": "0.25", "k": 3.5}, "k"),
    ("thm6", {"d": "0.25", "k": True}, "k"),
    ("thm2", {"r": 5.0, "r0": 2}, "r"),
    ("thm2", {"r": 5, "r0": "2"}, "r0"),
])
def test_integer_params_are_checked_not_truncated(name, params, key):
    with pytest.raises(ValueError, match=rf"preset {name} param {key} must be an integer"):
        theorem_preset(name, 36, params)
    with pytest.raises(ValueError, match="must be an integer"):
        reference_formulas(name, 36, params)


def test_seed_and_samples_are_checked_not_truncated():
    with pytest.raises(ValueError, match="seed must be an integer"):
        theorem_preset("thm5", 60, {"master_seed": 1.5})
    with pytest.raises(ValueError, match="samples must be an integer"):
        deterministic_lower_bound_check("thm6", 60, "0.2", 4, samples=2.5)
    with pytest.raises(ValueError, match="k must be an integer"):
        deterministic_lower_bound_check("thm6", 60, "0.2", 4.0, samples=2)


def test_thm5_takes_no_d():
    # its base is two_cliques(n) whatever d says, so d would move only the grid
    with pytest.raises(ValueError, match=r"thm5 does not take the params \['d'\]"):
        theorem_preset("thm5", 200, {"d": "0.25"})
    with pytest.raises(ValueError, match=r"\['d'\]"):
        reference_formulas("thm5", 200, {"d": "0.25"})


# config_hash of each preset config, computed before the presets were
# rewritten as one function each; a refactor that moves a config fails here
PRESET_HASHES = [
    ("thm2", 40, {"r": 5, "r0": 2},
     "08817e6e7ccdcc51ece59167dceb809380b840398fb12cd350f19d29c7eb640b"),
    ("thm2", 80, {"r": 9, "r0": 4, "trials": 10, "master_seed": 2},
     "b1956f86bcb2f82d079395613b420b27975dfa1236e7e77b584904b9a34f6c2e"),
    ("thm2", 120, {"r": 7, "r0": 3, "d": "0.6"},
     "ad32666278d124f9c34fb1cdef6b2e96f50ce81b901fddce461b14064c92534b"),
    ("thm3", 100, {"d": "0.15"},
     "e6d3d93f82aead53d1ff6b60c3a5e528aaea07470bcfcd6c80ebdc6f42051b4d"),
    ("thm3", 300, {"d": "0.25", "trials": 50},
     "49fa28ffdde1147c69b6b2688e52fc6c354e342816378bd4e1e7590559356c26"),
    ("thm4", 100, {"d": "0.2"},
     "f4cd7b8098c4ddab822089520b0e1090c9705dcaead5be0ccc8893f92fa95c76"),
    ("thm4", 150, {"d": "0.2", "side": "diam3", "master_seed": 7},
     "78d781fabee3dcb46a501065e97741d0f6f26fc1ad0bfa35f06c78dde559dd39"),
    ("thm4", 150, {"d": "0.15", "side": "diam5"},
     "6adb2d8deb8232ec9a3e47e7d73fa79283caeb1c643cd84527df1b0673de07d7"),
    ("thm5", 7, {},
     "5edb4a86bd20106dca1fc9e2f64b1cd58bac1effc57648f52571bce2f516702a"),
    ("thm5", 60, {},
     "11d8d735690cec24d4f7405a2b608b9917004efedd0a0c0d4c4764df9a29a817"),
    ("thm5", 200, {"trials": 4, "master_seed": 11},
     "4919a882af0cecefa77920e1eadde9debcc35eb788b47cc72511b3754259de5d"),
    ("thm6", 36, {"d": "0.25", "k": 3},
     "7a8b6f73c4f06272971af2d21824aa0349c637dcc6b4b6ef8d90c95e927daf46"),
    ("thm6", 120, {"d": "0.1", "k": 3, "trials": 1, "master_seed": 12},
     "b494b5a528e32d98b5cf80fa73c546de6d346deddef376b210b909f9d8f3bc49"),
    ("thm6", 480, {"d": "1/6", "k": 6},
     "c21e125124e7d362eeec9772a4971004b303d8e139436a12357ba14ee9276c0b"),
]


@pytest.mark.parametrize("name, n, params, expected", PRESET_HASHES)
def test_preset_config_hash_golden(name, n, params, expected):
    assert theorem_preset(name, n, params).config_hash() == expected


@pytest.mark.parametrize("name, n, params", [
    ("thm2", 6, {"r": 3, "r0": 2}),
    ("thm2", 41, {"r": 5, "r0": 2}),
    ("thm2", 121, {"r": 9, "r0": 4}),
    ("thm2", 480, {"r": 7, "r0": 3}),
    ("thm5", 4, {}),
    ("thm5", 61, {}),
    ("thm5", 480, {}),
    ("thm6", 12, {"d": "0.25", "k": 1}),
    ("thm6", 37, {"d": "0.25", "k": 3}),
    ("thm6", 121, {"d": "0.1", "k": 3}),
    ("thm6", 480, {"d": "0.45", "k": 6}),
    ("thm3", 100, {"d": "0.15"}),
    ("thm4", 151, {"d": "0.2", "side": "diam5"}),
])
def test_grid_stays_within_the_base_non_edges(name, n, params):
    # max_m is decided once, in the preset's record: exactly the non-edge
    # count of a seed-free base, and the always-free cross pairs of the
    # seeded blocked base
    _, (_, _, max_m, generator, _) = _preset(name, n, params)
    base = GENERATORS[generator["name"]](generator["params"], SeedSpec(n))
    free = base.n * (base.n - 1) // 2 - base.edge_count
    assert max_m == free if name in ("thm2", "thm5", "thm6") else max_m <= free
    assert max(theorem_preset(name, n, params).grid) <= free


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
