"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime (run with `pytest -v -s` to see them inline).

Expected values marked as derived were fixed from pilot runs before this
suite was frozen; oracles live in oracles.py and share no code with the
checkers they judge.
"""

import math
import random
import time
from fractions import Fraction

from oracles import (
    brute_chromatic_number,
    brute_clique_number,
    brute_diameter,
    brute_max_density,
    brute_vertex_connectivity,
    graph_from_int,
    random_graph,
)
from sprinkle import (
    SeedSpec,
    augment_uniform,
    blocked_gnp,
    chromatic_number,
    clique_number,
    complete_graph,
    complete_multipartite,
    contains_kr,
    dense_partition,
    density_param,
    diameter,
    diameter_at_most,
    gnm,
    induced_subgraph,
    is_dense,
    is_k_connected,
    max_subgraph_density,
    min_degree,
    two_cliques,
    vertex_connectivity,
)
from sprinkle.harness import (
    deterministic_lower_bound_check,
    estimate_threshold,
    run_sweep,
    theorem_preset,
)


def _report(number: int, elapsed: float, budget_s: float, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS ({elapsed:.1f}s < {budget_s:.0f}s) {detail}")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def test_criterion_1_exact_checkers_match_oracles():
    start = time.time()
    for code in range(1 << 10):
        g = graph_from_int(5, code)
        assert clique_number(g) == brute_clique_number(g)
        assert chromatic_number(g) == brute_chromatic_number(g)
        assert diameter(g) == brute_diameter(g)
        assert vertex_connectivity(g) == brute_vertex_connectivity(g)
    rng = random.Random(12345)
    for _ in range(500):
        n = rng.randint(6, 9)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        assert clique_number(g) == brute_clique_number(g)
        assert chromatic_number(g) == brute_chromatic_number(g)
        assert diameter(g) == brute_diameter(g)
        assert vertex_connectivity(g) == brute_vertex_connectivity(g)
    _report(
        1, time.time() - start, 120,
        "clique/chi/diameter/kappa match brute force on all 1024 graphs "
        "with n=5 and 500 seeded graphs with 6<=n<=9",
    )


def test_criterion_2_density_exact():
    start = time.time()
    rng = random.Random(777)
    for _ in range(200):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        dm = max_subgraph_density(g)
        assert dm.value == brute_max_density(g)
        sub = induced_subgraph(g, dm.witness_set)
        assert Fraction(sub.edge_count, sub.n) == dm.value
    for r in range(3, 9):
        assert max_subgraph_density(complete_graph(r)).value == Fraction(r - 1, 2)
    _report(
        2, time.time() - start, 60,
        "max subgraph density equals subset brute force on 200 graphs "
        "(n<=12) and m(K_r)=(r-1)/2 for r=3..8",
    )


def test_criterion_3_connectivity_lower_bound_certificate():
    start = time.time()
    for n, d, k in ((60, "0.2", 4), (120, "0.1", 3), (90, "0.3", 5)):
        verdict = deterministic_lower_bound_check(
            "thm6", n, d, k, samples=100, seed=SeedSpec(31)
        )
        assert verdict.holds, (n, d, k, verdict.reason)
    _report(
        3, time.time() - start, 120,
        "pigeonhole certifies non-k-connectedness below (k/2)*t added "
        "edges for all three settings; flow checker agrees on 100 seeded "
        "maximal R each",
    )


def test_criterion_4_diameter_stays_large_below_threshold():
    start = time.time()
    n = 200
    m = math.floor(0.5 * n * math.log(n)) - n  # = 329
    assert m == 329
    h = two_cliques(n)
    master = SeedSpec(404)
    trials = 200
    hits = 0
    for i in range(trials):
        aug = augment_uniform(h, m, master.derive(0, i).stream(1))
        hits += not diameter_at_most(aug.graph, 2).holds
    rate = hits / trials
    assert rate >= 0.8, rate
    _report(
        4, time.time() - start, 180,
        f"Pr[diam >= 3] = {rate:.3f} >= 0.8 at m={m} on two cliques of 100",
    )


def test_criterion_5_diameter2_threshold_bracketed():
    start = time.time()
    n = 200
    cfg = theorem_preset("thm5", n, {"trials": 200, "master_seed": 11})
    res = run_sweep(cfg)
    est = estimate_threshold(res)
    lo = 0.5 * n * math.log(n) - 2 * n
    hi = n * math.log(n) + 2 * n
    assert lo <= est.m_half <= hi, (est.m_half, lo, hi)
    _report(
        5, time.time() - start, 600,
        f"diameter-2 threshold estimate m_half={est.m_half:.0f} inside "
        f"[{lo:.0f}, {hi:.0f}]",
    )


def test_criterion_6_few_edges_give_diameter_5():
    start = time.time()
    master = SeedSpec(606)
    trials = 200
    hits = 0
    for i in range(trials):
        ts = master.derive(0, i)
        h = blocked_gnp(150, density_param("0.15"), ts.stream(0))
        aug = augment_uniform(h, 30, ts.stream(1))
        hits += diameter_at_most(aug.graph, 5).holds
    rate = hits / trials
    assert rate >= 0.95, rate
    _report(
        6, time.time() - start, 180,
        f"Pr[diam <= 5] = {rate:.3f} >= 0.95 at m=30 on the two-block "
        "random base graph (n=150, d=0.15)",
    )


def test_criterion_7_clique_threshold_and_exact_cap():
    start = time.time()
    n_part = 60
    cfg = theorem_preset(
        "thm2", 2 * n_part, {"r": 5, "r0": 2, "trials": 200, "master_seed": 2}
    )
    assert cfg.generator["params"]["parts"] == [n_part, n_part]
    res = run_sweep(cfg)
    est = estimate_threshold(res)
    assert 40 <= est.m_half <= 400, est.m_half
    # replay every trial graph: when neither part holds a triangle, the
    # clique number is at most r0 * (ceil(r/r0) - 1) = 4, checked exactly
    h = complete_multipartite([n_part, n_part])
    parts = (range(n_part), range(n_part, 2 * n_part))
    capped = 0
    for ti in range(cfg.trials):
        ts = cfg.master_seed.derive(ti)
        for m in cfg.grid:
            aug = augment_uniform(h, m, ts.stream(1))
            tri = any(
                contains_kr(induced_subgraph(aug.graph, p), 3).holds for p in parts
            )
            if not tri:
                assert clique_number(aug.graph) <= 4
                capped += 1
    assert capped > 0
    _report(
        7, time.time() - start, 600,
        f"K_5 threshold m_half={est.m_half:.0f} inside [40, 400]; "
        f"{capped} triangle-free-parts trial graphs all have clique "
        "number <= 4 exactly",
    )


def test_criterion_8_partition_into_highly_connected_parts():
    start = time.time()
    master = SeedSpec(808)
    densities = [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)]
    done = 0
    case = 0
    while done < 50:
        d = densities[done % 3]
        n = 60 + (done * 7) % 61
        q = float(d) + 0.13
        m_edges = round(q * n * (n - 1) / 2)
        g = gnm(n, m_edges, master.derive(case))
        case += 1
        if not is_dense(g, d):
            continue
        k = min_degree(g)
        assert k > 0
        result = dense_partition(g, k)
        size_bound = _ceil_div(k, 8)
        conn_bound = _ceil_div(k * k, 16 * n)
        covered = sorted(v for part in result.parts for v in part)
        assert covered == list(range(n))
        for part in result.parts:
            assert len(part) >= size_bound
            sub = induced_subgraph(g, part)
            assert is_k_connected(sub, conn_bound).holds
        done += 1
    _report(
        8, time.time() - start, 300,
        "50 seeded dense graphs (n in [60,120], d in {0.2,0.3,0.5}) "
        "partitioned; every part re-verified for size and connectivity "
        "bounds at k = min degree",
    )


def test_criterion_9_union_and_intersection_bounds():
    from sprinkle import (
        Graph,
        RegularityParams,
        count_intersection_violations,
        count_union_violations,
        is_eps_regular_exact,
        pair_density,
    )

    start = time.time()
    eps, delta = Fraction(45, 100), Fraction(2, 5)
    params = RegularityParams(eps, delta, 2)
    bound = 2 * eps * 10**2  # k * eps * |A|^k = 90
    master = SeedSpec(9)
    a_ids, b_ids = list(range(10)), list(range(10, 20))
    certified = 0
    attempt = 0
    while certified < 30:
        assert attempt < 200, "ran out of candidate seeds"
        rng = master.derive(attempt).generator()
        attempt += 1
        draws = rng.random(100)
        edges = [
            (u, v)
            for i, (u, v) in enumerate((u, v) for u in a_ids for v in b_ids)
            if draws[i] < 0.5
        ]
        g = Graph(20, edges)
        dens = pair_density(g, a_ids, b_ids)
        if not (Fraction(2, 5) <= dens <= Fraction(3, 5)):
            continue
        rep = is_eps_regular_exact(g, a_ids, b_ids, eps)
        if not rep.is_regular:
            continue
        union = count_union_violations(g, a_ids, b_ids, params)
        inter = count_intersection_violations(
            g, a_ids, b_ids, b_ids, params, check_hypotheses=False
        )
        assert union <= bound, union
        assert inter <= bound, inter
        certified += 1
    _report(
        9, time.time() - start, 300,
        f"30 certified 0.45-regular pairs (density in [0.4,0.6]); union "
        f"and intersection violation counts all within k*eps*|A|^k = {bound}",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    start = time.time()
    cfg = theorem_preset(
        "thm6",
        36,
        {
            "d": "0.25",
            "k": 3,
            "trials": 40,
            "master_seed": 12,
            "output_path": str(tmp_path / "a.csv"),
        },
    )
    run_sweep(cfg)
    cfg2 = theorem_preset(
        "thm6",
        36,
        {
            "d": "0.25",
            "k": 3,
            "trials": 40,
            "master_seed": 12,
            "output_path": str(tmp_path / "b.csv"),
        },
    )
    run_sweep(cfg2)
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b and len(a) > 0
    # a second family through the generic config path
    from sprinkle.harness import SweepConfig

    base = dict(
        generator={"name": "gnm", "params": {"n": 30, "M": 60}},
        model="uniform",
        grid=(0, 5, 20),
        trials=30,
        property={"name": "connected", "params": {}},
        master_seed=SeedSpec(77),
    )
    csv1 = run_sweep(SweepConfig(**base)).to_csv()
    csv2 = run_sweep(SweepConfig(**base)).to_csv()
    assert csv1 == csv2
    _report(
        10, time.time() - start, 120,
        "rerunning identical sweep configs reproduces the CSV byte for "
        "byte, through a preset and through the generic config path",
    )
