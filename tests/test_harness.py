import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    brute_contains_kr,
    brute_diameter,
    brute_is_connected,
    brute_is_k_connected,
    exact_probability,
    full_grid_sweep,
    random_graph,
)
from sprinkle import Graph, SeedSpec, non_edges
from sprinkle.harness import (
    SweepConfig,
    estimate_threshold,
    run_sweep,
    theorem_preset,
    wilson_interval,
)
from sprinkle.harness import sweep as sweep_mod
from sprinkle.harness.sweep import GridPointResult, SweepResult


def make_config(**overrides):
    base = dict(
        generator={"name": "two_cliques", "params": {"n": 12}},
        model="uniform",
        grid=(0, 2, 6, 12),
        trials=25,
        property={"name": "connected", "params": {}},
        master_seed=SeedSpec(3),
    )
    base.update(overrides)
    return SweepConfig(**base)


def fake_result(grid, p_hats, trials=100, direction=+1):
    points = tuple(
        GridPointResult(
            value=m,
            trials=trials,
            successes=round(p * trials),
            indeterminate=0,
            infeasible=0,
            p_hat=p,
            ci_lo=max(0.0, p - 0.05),
            ci_hi=min(1.0, p + 0.05),
        )
        for m, p in zip(grid, p_hats)
    )
    cfg = make_config(grid=tuple(grid), trials=trials)
    return SweepResult(config=cfg, points=points, direction=direction, wall_clock_s=0.0)


def test_sweep_probability_one_for_complete_base():
    cfg = make_config(
        generator={"name": "complete", "params": {"n": 9}},
        grid=(0,),
        property={"name": "diameter_le", "params": {"t": 2}},
        trials=10,
    )
    res = run_sweep(cfg)
    assert res.points[0].p_hat == 1.0


def test_sweep_zero_at_m_zero_for_split_base():
    cfg = make_config(grid=(0, 1))
    res = run_sweep(cfg)
    assert res.points[0].p_hat == 0.0
    assert res.points[0].successes == 0


def test_sweep_reproducible_counts_and_csv():
    cfg = make_config()
    a, b = run_sweep(cfg), run_sweep(cfg)
    assert [p.successes for p in a.points] == [p.successes for p in b.points]
    assert a.to_csv() == b.to_csv()


def test_sweep_csv_golden():
    # sha256 of each CSV, one small sweep per generator family served
    # through run_sweep; pinned so a refactor that must keep the random
    # stream and every verdict can show that it did.  The first CSV is
    # the same for every seed (each non-edge of two_cliques joins the
    # cliques), so the two_cliques diameter case stands in for it.
    cases = [
        ({}, "1f60963b75345e8cb40ca12bea2dad37683830c46f6e9ba7e9e333b09f769f22"),
        (dict(generator={"name": "two_cliques", "params": {"n": 12}},
              grid=(0, 6, 12, 20, 30), trials=30, master_seed=SeedSpec(9),
              property={"name": "diameter_le", "params": {"t": 2}}),
         "c9283acd304cacfde40915b7efb12b2554c2af5ef64af03d7ca31fcd873ce95a"),
        (dict(generator={"name": "complete_multipartite", "params": {"parts": [3, 3, 3]}},
              grid=(0, 1, 2, 4), trials=30, master_seed=SeedSpec(5),
              property={"name": "contains_kr", "params": {"r": 5}}),
         "811cc2dcb182320d735b0f50bb6013124711ecb57358355444f48811f78dccf8"),
        (dict(generator={"name": "disjoint_cliques", "params": {"n": 12, "clique_size": 4}},
              grid=(0, 4, 10, 20), trials=30, master_seed=SeedSpec(6),
              property={"name": "k_connected", "params": {"k": 2}}),
         "e4af97f942f1c620f7b185618c66a854d5e6ebb11617ac2fac9cc055a8b7c9f0"),
        (dict(generator={"name": "blocked_gnp", "params": {"n": 16, "d": "1/4"}},
              model="bernoulli", grid=(0.0, 0.05, 0.2), trials=30, master_seed=SeedSpec(7),
              property={"name": "diameter_le", "params": {"t": 3}}),
         "4f2444f84c04b23950e4b172771de276c66d1cb982c326b6f68de6e4e2873166"),
        (dict(generator={"name": "gnm", "params": {"n": 20, "M": 30}},
              grid=(0, 5, 20), trials=30, master_seed=SeedSpec(8),
              property={"name": "diameter_ge", "params": {"t": 4}}),
         "b62db0886415a35dc32cf383ea33bf9b8ece2e912a2dc34f305179700dea53f8"),
    ]
    for overrides, digest in cases:
        csv = run_sweep(make_config(**overrides)).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == digest, csv


def _thm4_bernoulli_config(n, d, trials, seed):
    # blocked G(n, p) base, Bernoulli grid spanning thm4's reference
    # edge counts, diameter <= 3
    lower = math.log(n) / (-2 * math.log(1 - 2 * float(d)))
    upper = (1 - float(d)) / (float(d) * float(d)) * math.log(n)
    lo, hi, pairs = lower / 4, 4 * upper, n * (n - 1) // 2
    return SweepConfig(
        generator={"name": "blocked_gnp", "params": {"n": n, "d": d}},
        model="bernoulli",
        grid=tuple(lo * (hi / lo) ** (i / 11) / pairs for i in range(12)),
        trials=trials,
        property={"name": "diameter_le", "params": {"t": 3}},
        master_seed=seed,
    )


@pytest.mark.parametrize("cfg,config_hash,csv_hash", [
    (theorem_preset("thm5", 200, {"trials": 4, "master_seed": SeedSpec(11, 0)}),
     "4919a882af0cecefa77920e1eadde9debcc35eb788b47cc72511b3754259de5d",
     "5f81a04ef62200f9eaddc766087417a91ccf9bda0e438fbc512cea4eacbb0268"),
    (theorem_preset("thm6", 120, {"d": "0.1", "k": 3, "trials": 1,
                                  "master_seed": SeedSpec(12, 0)}),
     "b494b5a528e32d98b5cf80fa73c546de6d346deddef376b210b909f9d8f3bc49",
     "89dcb0d036750fa28f17275b53dc29ba0c1212eb5353f89fb1f5dee39c172024"),
    (theorem_preset("thm2", 80, {"r": 9, "r0": 4, "trials": 10,
                                 "master_seed": SeedSpec(2, 0)}),
     "b1956f86bcb2f82d079395613b420b27975dfa1236e7e77b584904b9a34f6c2e",
     "7e9450871a03232378673030698199751b80be2aad86b0fc1355a37b503762a0"),
    (_thm4_bernoulli_config(150, "0.15", 10, SeedSpec(7, 0)),
     "17e661e56aba23c7750ed02a39b67d77416f4b6bd0966c7641af481e80250e94",
     "d357caa1cede241c1d6e8ced303284fb71f21c23aaf771d93dd66d141bc823a4"),
], ids=["thm5-diam2", "thm6-kconn", "thm2-clique", "thm4-bern-diam3"])
def test_benchmark_sweep0_csv_golden(cfg, config_hash, csv_hash):
    # sweep 0 of each perfbench workload, restated here; a change to the
    # pool, the draw or the probes that moves the random stream or a
    # verdict shows in tier-1 as well as in the benchmark
    assert cfg.config_hash() == config_hash
    csv = run_sweep(cfg).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == csv_hash, csv


# small params for every GENERATORS entry
REGISTRY_PARAMS = {
    "complete_multipartite": {"parts": [2, 3]},
    "two_cliques": {"n": 6},
    "disjoint_cliques": {"n": 9, "clique_size": 3},
    "blocked_gnp": {"n": 16, "d": "1/4"},
    "gnm": {"n": 10, "M": 12},
    "mader_tightness": {"n": 14, "k": 3},
    "complete": {"n": 4},
    "empty": {"n": 4},
    "path": {"n": 5},
    "cycle": {"n": 5},
}


def test_seed_free_generators_are_exactly_those_ignoring_the_seed():
    # a family listed as seed-free must not vary with the seed, and every
    # other family must, or the per-sweep base would change the results
    assert set(REGISTRY_PARAMS) == set(sweep_mod.GENERATORS)
    assert sweep_mod.SEED_FREE_GENERATORS <= set(sweep_mod.GENERATORS)
    for name, gen in sweep_mod.GENERATORS.items():
        graphs = {gen(REGISTRY_PARAMS[name], SeedSpec(s)) for s in range(8)}
        if name in sweep_mod.SEED_FREE_GENERATORS:
            assert len(graphs) == 1, name
        else:
            assert len(graphs) > 1, name


@pytest.mark.parametrize("name,model,grid,calls", [
    ("two_cliques", "uniform", (0, 2, 6), 1),
    ("gnm", "uniform", (0, 2, 6), 5),
    ("blocked_gnp", "bernoulli", (0.0, 0.5), 5),
])
def test_base_built_once_per_sweep_only_when_seed_free(monkeypatch, name, model,
                                                       grid, calls):
    seen = []
    gen = sweep_mod.GENERATORS[name]

    def counted(params, seed):
        seen.append(seed)
        return gen(params, seed)

    monkeypatch.setitem(sweep_mod.GENERATORS, name, counted)
    cfg = make_config(generator={"name": name, "params": REGISTRY_PARAMS[name]},
                      model=model, grid=grid, trials=5)
    res = run_sweep(cfg)
    monkeypatch.undo()
    assert len(seen) == calls
    assert sweep_mod.GENERATORS[name] is gen
    assert res.to_csv() == run_sweep(cfg).to_csv()


@pytest.mark.parametrize("model,grid,drawn", [
    ("uniform", (0, 2, 6, 12), [12]),
    ("uniform", (4, 40), [4]),  # two_cliques(12) has 36 non-edges
    ("uniform", (37, 40), []),  # no point is feasible
    ("bernoulli", (0.0, 0.3, 1.0), [1.0]),
])
def test_sweep_draws_once_per_trial(monkeypatch, model, grid, drawn):
    # every probe of a trial's bisection reads a prefix of one draw, made
    # at the largest feasible grid value
    seen = []

    def counting(fn):
        def counted(h, value, seed):
            seen.append(value)
            return fn(h, value, seed)
        return counted

    for name in ("augment_uniform", "augment_bernoulli"):
        monkeypatch.setattr(sweep_mod, name, counting(getattr(sweep_mod, name)))
    res = run_sweep(make_config(model=model, grid=grid, trials=5))
    assert seen == drawn * 5
    assert res.points[-1].infeasible == (5 if grid[-1] == 40 else 0)


# the sweep decides a trial's whole grid from one bisection; these pin it
# to checking every (grid, trial) cell on its own
COUPLING_BASES = {
    "two_cliques": {"n": 8},
    "disjoint_cliques": {"n": 9, "clique_size": 3},
    "complete_multipartite": {"parts": [2, 3, 3]},
    "path": {"n": 7},
    "gnm": {"n": 8, "M": 18},
    "blocked_gnp": {"n": 10, "d": "1/4"},
    "mader_tightness": {"n": 14, "k": 3},
}


def assert_matches_full_grid(cfg):
    res = run_sweep(cfg)
    assert [(pt.successes, pt.infeasible) for pt in res.points] == full_grid_sweep(cfg)
    assert all(pt.trials == cfg.trials and pt.indeterminate == 0 for pt in res.points)


@pytest.mark.parametrize("name,model,grid,prop", [
    ("two_cliques", "uniform", (0, 1, 3, 6, 10, 16, 17, 30), ("connected", {})),
    ("path", "bernoulli", (0.0, 0.05, 0.2, 0.5, 1.0), ("diameter_ge", {"t": 3})),
    ("gnm", "uniform", (0, 2, 5, 9, 10, 11, 20), ("diameter_ge", {"t": 2})),
    ("blocked_gnp", "uniform", (0, 5, 20, 30, 31, 32, 33, 34, 35, 40),
     ("diameter_le", {"t": 2})),
    ("mader_tightness", "bernoulli", (0.0, 0.1, 0.3), ("k_connected", {"k": 3})),
    ("complete_multipartite", "uniform", (0, 1, 2, 3, 4, 5), ("contains_kr", {"r": 4})),
])
def test_sweep_matches_full_grid_oracle_cases(name, model, grid, prop):
    assert_matches_full_grid(make_config(
        generator={"name": name, "params": COUPLING_BASES[name]}, model=model,
        grid=grid, trials=12, property={"name": prop[0], "params": prop[1]}))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(COUPLING_BASES)), st.sampled_from(["uniform", "bernoulli"]),
       st.sampled_from(sorted(sweep_mod.PROPERTIES)), st.integers(1, 4),
       st.integers(0, 2**32), st.data())
def test_sweep_matches_full_grid_oracle(name, model, prop, param, seed, data):
    params = COUPLING_BASES[name]
    n = params.get("n") or sum(params["parts"])
    if model == "uniform":  # reaching past the pool leaves an infeasible suffix
        values = st.integers(0, n * (n - 1) // 2)
    else:
        values = st.floats(0, 1)
    grid = sorted(data.draw(st.lists(values, min_size=1, max_size=7, unique=True)))
    assert_matches_full_grid(make_config(
        generator={"name": name, "params": params}, model=model, grid=tuple(grid),
        trials=data.draw(st.integers(1, 6)), master_seed=SeedSpec(seed),
        property={"name": prop, "params": {"r": param, "t": param, "k": param}}))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(COUPLING_BASES)), st.sampled_from(["uniform", "bernoulli"]),
       st.sampled_from(sorted(sweep_mod.PROPERTIES)), st.integers(1, 4),
       st.integers(0, 2**32), st.data())
def test_sweep_probes_equal_checked_prefix_graphs(name, model, prop, param, seed, data):
    # every graph the bisection hands to the property is the trial's base
    # with the first k pairs of its draw added through the checked
    # with_edges, for the k of some grid point, with a true edge count
    params = COUPLING_BASES[name]
    n = params.get("n") or sum(params["parts"])
    if model == "uniform":  # reaching past the pool leaves an infeasible suffix
        values = st.integers(0, n * (n - 1) // 2)
    else:
        values = st.floats(0, 1)
    grid = tuple(sorted(data.draw(st.lists(values, min_size=1, max_size=7, unique=True))))
    draws, probes = [], []

    def recording_augment(fn):
        def recorded(h, value, seed):
            draws.append(fn(h, value, seed))
            return draws[-1]
        return recorded

    check, direction = sweep_mod.PROPERTIES[prop]

    def recording_check(g, p):
        probes.append((draws[-1], g))
        return check(g, p)

    cfg = make_config(
        generator={"name": name, "params": params}, model=model, grid=grid,
        trials=data.draw(st.integers(1, 6)), master_seed=SeedSpec(seed),
        property={"name": prop, "params": {"r": param, "t": param, "k": param}})
    with pytest.MonkeyPatch.context() as mp:
        for augment in ("augment_uniform", "augment_bernoulli"):
            mp.setattr(sweep_mod, augment, recording_augment(getattr(sweep_mod, augment)))
        mp.setitem(sweep_mod.PROPERTIES, prop, (recording_check, direction))
        run_sweep(cfg)
    for aug, g in probes:
        ks = [min(v, len(aug.added)) if model == "uniform" else int(np.searchsorted(aug.labels, v))
              for v in grid]
        k = g.edge_count - aug.base.edge_count
        assert k in ks
        expected = aug.base.with_edges(aug.added[:k])
        assert g == expected and g.edge_count == expected.edge_count
        assert g.edge_count == Graph(g.n, g.edges()).edge_count
    bases = {id(aug.base) for aug in draws}
    assert len(bases) == (min(1, len(draws)) if name in sweep_mod.SEED_FREE_GENERATORS
                          else len(draws))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(sweep_mod.PROPERTIES)), st.integers(2, 9),
       st.integers(1, 5), st.integers(0, 2**32))
def test_every_property_is_monotone_in_its_direction(name, n, param, seed):
    # bisecting a trial's grid is sound only while adding an edge never
    # moves a property against its stated direction
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.random())
    pool = non_edges(g)
    assume(pool)
    prop, direction = sweep_mod.PROPERTIES[name]
    params = {"r": param, "t": param, "k": param}
    before = prop(g, params)
    after = prop(g.with_edges([rng.choice(pool)]), params)
    assert (int(after) - int(before)) * direction >= 0


BRUTE_PROPERTIES = {
    "connected": lambda g, p: brute_is_connected(g),
    "diameter_le": lambda g, p: brute_diameter(g) <= p["t"],
    "diameter_ge": lambda g, p: brute_diameter(g) >= p["t"],
    "contains_kr": lambda g, p: brute_contains_kr(g, p["r"]),
    "k_connected": lambda g, p: brute_is_k_connected(g, p["k"]),
}


@pytest.mark.parametrize("generator,prop,model,grid", [
    ({"name": "two_cliques", "params": {"n": 6}}, {"name": "connected", "params": {}},
     "uniform", (0, 1, 2, 5, 9)),
    ({"name": "two_cliques", "params": {"n": 6}},
     {"name": "diameter_le", "params": {"t": 2}}, "uniform", (1, 2, 3, 4, 6)),
    ({"name": "disjoint_cliques", "params": {"n": 6, "clique_size": 3}},
     {"name": "k_connected", "params": {"k": 2}}, "uniform", (2, 3, 4, 5, 7)),
    ({"name": "complete_multipartite", "params": {"parts": [2, 2, 3]}},
     {"name": "contains_kr", "params": {"r": 4}}, "bernoulli", (0.1, 0.3, 0.6)),
    ({"name": "path", "params": {"n": 6}}, {"name": "diameter_ge", "params": {"t": 3}},
     "bernoulli", (0.05, 0.2, 0.4, 0.7)),
    ({"name": "cycle", "params": {"n": 6}}, {"name": "k_connected", "params": {"k": 3}},
     "bernoulli", (0.2, 0.5, 0.8)),
])
def test_sweep_matches_exact_probability(generator, prop, model, grid):
    # every grid point's success count must lie within 4.5 binomial
    # standard deviations (+1) of trials * Pr[P at m], the probability
    # taken exactly by enumerating the edge sets a tiny base can receive
    trials = 400
    res = run_sweep(make_config(generator=generator, property=prop, model=model,
                                grid=grid, trials=trials, master_seed=SeedSpec(2024)))
    h = sweep_mod.GENERATORS[generator["name"]](generator["params"], None)
    assert h.n <= 7

    def holds(g):
        return BRUTE_PROPERTIES[prop["name"]](g, prop["params"])

    for pt in res.points:
        p = float(exact_probability(h, holds, model, pt.value))
        sd = math.sqrt(trials * p * (1 - p))
        assert abs(pt.successes - trials * p) <= 4.5 * sd + 1, (pt.value, pt.successes, p)


def test_sweep_infeasible_m_counts_as_flagged_failure():
    cfg = make_config(
        generator={"name": "complete", "params": {"n": 5}},
        grid=(0, 3),
        property={"name": "connected", "params": {}},
        trials=7,
    )
    res = run_sweep(cfg)
    assert res.points[0].successes == 7
    assert res.points[1].successes == 0
    assert res.points[1].infeasible == 7


def test_sweep_output_files(tmp_path):
    out = tmp_path / "curve.csv"
    cfg = make_config(output_path=str(out), trials=5)
    res = run_sweep(cfg)
    assert out.read_text() == res.to_csv()
    sidecar = json.loads((tmp_path / "curve.csv.meta.json").read_text())
    assert sidecar["config_hash"] == cfg.config_hash()
    assert sidecar["points"][0]["trials"] == 5


def test_trial_timeout_marks_indeterminate():
    # a zero-second budget times every trial out; they are excluded from
    # the denominator and reported, never guessed
    cfg = make_config(grid=(0, 2), trials=6, trial_timeout_s=0.0)
    res = run_sweep(cfg)
    for pt in res.points:
        assert pt.indeterminate == 6
        assert pt.trials == 0 and pt.successes == 0
        assert (pt.ci_lo, pt.ci_hi) == (0.0, 1.0)


def test_sidecar_stable_except_wall_clock(tmp_path):
    docs = []
    for name in ("a", "b"):
        cfg = make_config(output_path=str(tmp_path / f"{name}.csv"), trials=5)
        run_sweep(cfg)
        doc = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
        doc.pop("wall_clock_s")
        doc["config"].pop("output_path")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_config_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        make_config(grid=(3, 3))
    with pytest.raises(ValueError, match="model"):
        make_config(model="gaussian")
    with pytest.raises(ValueError, match="trials"):
        make_config(trials=0)
    with pytest.raises(ValueError, match="generator"):
        make_config(generator={"name": "nope", "params": {}})
    with pytest.raises(ValueError, match="property"):
        make_config(property={"name": "nope", "params": {}})
    with pytest.raises(ValueError, match="nonnegative integers"):
        make_config(grid=(0.5, 1.5))
    # bool subclasses int, yet True is not an edge count or a probability
    for model in ("uniform", "bernoulli"):
        with pytest.raises(ValueError, match="booleans"):
            make_config(model=model, grid=(False, True))
    # a value JSON cannot encode, or would decode as another type, would
    # break config_hash() or the round trip
    for grid, shown in [((Fraction(1, 4), Fraction(1, 2)), "Fraction"),
                        ((np.float32(0.25), np.float32(0.5)), "0.25")]:
        with pytest.raises(ValueError, match=shown):
            make_config(model="bernoulli", grid=grid)
    for trials, shown in [(True, "True"), (2.7, "2.7"), ("5", "'5'")]:
        with pytest.raises(ValueError, match=shown):
            make_config(trials=trials)


@pytest.mark.parametrize("overrides", [
    {},
    dict(model="bernoulli", grid=(0, 0.25, 1)),
    dict(model="bernoulli", grid=(np.float64(0.1), np.float64(0.5))),
    dict(generator={"name": "blocked_gnp", "params": {"n": 16, "d": Fraction(1, 4)}},
         trial_timeout_s=2.5),
])
def test_config_hash_survives_json_roundtrip(overrides):
    cfg = make_config(**overrides)
    doc = json.loads(json.dumps(cfg.to_json_dict()))
    assert SweepConfig.from_json_dict(doc).config_hash() == cfg.config_hash()


def test_config_json_roundtrip_rejects_unknown_keys():
    cfg = make_config()
    doc = cfg.to_json_dict()
    again = SweepConfig.from_json_dict(doc)
    assert again.config_hash() == cfg.config_hash()
    for key in ("surprise", "workers"):
        with pytest.raises(ValueError, match="unknown config keys"):
            SweepConfig.from_json_dict({**doc, key: 1})
    with pytest.raises(ValueError, match="missing config keys"):
        SweepConfig.from_json_dict({"model": "uniform"})


def test_bernoulli_model_sweep():
    cfg = make_config(model="bernoulli", grid=(0.0, 0.5, 1.0), trials=10)
    res = run_sweep(cfg)
    assert res.points[0].p_hat == 0.0  # p=0 leaves the two cliques split
    assert res.points[-1].p_hat == 1.0  # p=1 completes the graph


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and hi > 0
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and lo < 1
    lo, hi = wilson_interval(5, 10)
    assert lo < 0.5 < hi


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 60), st.integers(1, 60))
def test_wilson_interval_contains_phat(successes, trials):
    successes = min(successes, trials)
    lo, hi = wilson_interval(successes, trials)
    assert 0.0 <= lo <= successes / trials <= hi <= 1.0


def test_estimate_threshold_step_example():
    res = fake_result([1, 2, 3, 4], [0.0, 0.0, 1.0, 1.0])
    est = estimate_threshold(res)
    assert est.m_half == 2.5
    assert est.bracket == (2, 3)


def test_estimate_threshold_skips_undecided_points():
    # the last point had only indeterminate trials: run_sweep stores it
    # as 0 of 0 with p_hat 0, which must not pull the fit down
    res = fake_result([0, 1, 2, 3], [0.0, 0.2, 0.8, 0.0], trials=10)
    undecided = GridPointResult(value=3, trials=0, successes=0, indeterminate=10,
                                infeasible=0, p_hat=0.0, ci_lo=0.0, ci_hi=1.0)
    res = SweepResult(config=res.config, points=res.points[:3] + (undecided,),
                      direction=+1, wall_clock_s=0.0)
    est = estimate_threshold(res)
    assert est.m_half == 1.5
    assert est.bracket == (1, 2)
    # with the decided points all below 1/2 there is no crossing left
    low = SweepResult(config=res.config, points=res.points[:2] + (undecided,),
                      direction=+1, wall_clock_s=0.0)
    with pytest.raises(ValueError, match="widen"):
        estimate_threshold(low)
    none = SweepResult(config=res.config, points=(undecided,), direction=+1,
                       wall_clock_s=0.0)
    with pytest.raises(ValueError, match="widen"):
        estimate_threshold(none)


def test_estimate_threshold_skips_infeasible_points():
    # an m past the base's 9 non-edges is an infeasible failure stored
    # with p_hat 0; it estimates nothing and must not enter the curve
    res = run_sweep(make_config(generator={"name": "two_cliques", "params": {"n": 6}},
                                grid=(0, 1, 9, 10, 12), trials=10))
    assert [pt.infeasible for pt in res.points] == [0, 0, 0, 10, 10]
    assert [pt.p_hat for pt in res.points] == [0.0, 1.0, 1.0, 0.0, 0.0]
    est = estimate_threshold(res)
    assert est.bracket == (0, 1) and est.m_half == 0.5


def test_estimate_threshold_all_high_errors():
    res = fake_result([1, 2, 3], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="widen"):
        estimate_threshold(res)


def test_estimate_threshold_all_low_errors():
    res = fake_result([1, 2, 3], [0.0, 0.1, 0.2])
    with pytest.raises(ValueError, match="widen"):
        estimate_threshold(res)


def test_estimate_threshold_noisy_curve_regression():
    # run_sweep's curves are monotone by construction; a curve that is
    # not is refused rather than smoothed
    res = fake_result([10, 20, 30, 40, 50], [0.1, 0.35, 0.3, 0.7, 0.95])
    with pytest.raises(ValueError, match="not monotone"):
        estimate_threshold(res)
    with pytest.raises(ValueError, match="not monotone"):
        estimate_threshold(fake_result([1, 5, 9], [0.9, 0.1, 0.5], direction=-1))


def test_estimate_threshold_decreasing_direction():
    res = fake_result([1, 5, 9], [0.9, 0.5, 0.1], direction=-1)
    est = estimate_threshold(res)
    assert est.bracket == (5, 9)
    assert 5 <= est.m_half <= 9


def test_seed_derivation_distinguishes_cells():
    master = SeedSpec(10)
    seen = {master.derive(g, t).seed for g in range(20) for t in range(50)}
    assert len(seen) == 1000
    assert master.derive(1, 2) != master.derive(2, 1)
    assert master.derive(1, 2) == master.derive(1, 2)
