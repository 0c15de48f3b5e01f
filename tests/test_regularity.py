import itertools
from fractions import Fraction

import pytest

from sprinkle import (
    Graph,
    RegularityParams,
    SeedSpec,
    complete_multipartite,
    count_intersection_violations,
    count_union_violations,
    full_pair_report,
    is_eps_regular_exact,
    pair_density,
)

A8 = list(range(4))
B8 = list(range(4, 8))


def bipartite(n_a, n_b, cross):
    return Graph(n_a + n_b, [(u, n_a + v) for u, v in cross])


def seeded_bipartite(n_a, n_b, p, seed):
    rng = SeedSpec(seed).generator()
    draws = rng.random(n_a * n_b)
    cross = [
        (u, v)
        for i, (u, v) in enumerate(
            (u, v) for u in range(n_a) for v in range(n_b)
        )
        if draws[i] < p
    ]
    return bipartite(n_a, n_b, cross)


def test_pair_density_examples():
    kb = complete_multipartite([4, 4])
    assert pair_density(kb, A8, B8) == 1
    empty = Graph(8, [])
    assert pair_density(empty, A8, B8) == 0
    g = bipartite(2, 2, [(0, 0), (0, 1), (1, 0)])
    assert pair_density(g, [0, 1], [2, 3]) == Fraction(3, 4)


def test_pair_density_symmetry():
    g = seeded_bipartite(5, 6, 0.5, 3)
    assert pair_density(g, range(5), range(5, 11)) == pair_density(
        g, range(5, 11), range(5)
    )


def test_pair_density_errors():
    g = Graph(4, [])
    with pytest.raises(ValueError, match="overlap"):
        pair_density(g, [0, 1], [1, 2])
    with pytest.raises(ValueError, match="nonempty"):
        pair_density(g, [], [1])


def test_complete_bipartite_pair_is_regular():
    kb = complete_multipartite([4, 4])
    for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(3, 4)):
        rep = is_eps_regular_exact(kb, A8, B8, eps)
        assert rep.is_regular and rep.violating_pair is None
        assert rep.density == 1


def test_empty_pair_is_regular():
    g = Graph(8, [])
    rep = is_eps_regular_exact(g, A8, B8, Fraction(1, 5))
    assert rep.is_regular and rep.density == 0


def test_matching_pair_regression():
    # perfect matching between sides of size 4 at eps = 1/4: the
    # exhaustive scan itself is the oracle; the first qualifying
    # rectangle X={0,1}, Y={4,5} holds both matching edges, so its
    # density 1/2 already deviates from 1/4 by eps
    g = bipartite(4, 4, [(i, i) for i in range(4)])
    rep = is_eps_regular_exact(g, A8, B8, Fraction(1, 4))
    assert rep.density == Fraction(1, 4)
    assert rep.is_regular is False
    assert rep.violating_pair == ((0, 1), (4, 5))
    x, y = rep.violating_pair
    d_xy = pair_density(g, x, y)
    assert abs(d_xy - rep.density) >= Fraction(1, 4)
    assert len(x) * 4 > 4 and len(y) * 4 > 4  # |X| > eps|A|, |Y| > eps|B|


def test_regular_verdict_monotone_in_eps():
    # regular at eps implies regular at every eps' >= eps
    for seed in range(6):
        g = seeded_bipartite(6, 6, 0.5, seed)
        grid = [Fraction(k, 12) for k in range(1, 12)]
        verdicts = [
            is_eps_regular_exact(g, range(6), range(6, 12), e).is_regular
            for e in grid
        ]
        for lo, hi in itertools.combinations(range(len(grid)), 2):
            if verdicts[lo]:
                assert verdicts[hi]


def test_regularity_cap_enforced():
    g = Graph(40, [])
    with pytest.raises(ValueError, match="cap"):
        is_eps_regular_exact(g, range(20), range(20, 40), Fraction(1, 4))


def test_union_violations_complete_bipartite_zero():
    kb = complete_multipartite([4, 4])
    params = RegularityParams(Fraction(1, 4), Fraction(1, 2), 2)
    assert count_union_violations(kb, A8, B8, params) == 0


def test_intersection_violations_complete_bipartite_zero():
    kb = complete_multipartite([4, 4])
    params = RegularityParams(Fraction(1, 4), Fraction(1, 2), 2)
    assert (
        count_intersection_violations(kb, A8, B8, B8, params, check_hypotheses=False)
        == 0
    )


def test_k1_base_cases_on_regular_pairs():
    # k=1: the tuple count is exactly the number of x in A with a small
    # neighborhood, and regularity caps it at eps|A|
    eps, delta = Fraction(45, 100), Fraction(2, 5)
    params = RegularityParams(eps, delta, 1)
    hits = 0
    for seed in range(12):
        g = seeded_bipartite(10, 10, 0.5, seed)
        a, b = list(range(10)), list(range(10, 20))
        rep = is_eps_regular_exact(g, a, b, eps)
        if not rep.is_regular or rep.density < delta:
            continue
        hits += 1
        u = count_union_violations(g, a, b, params)
        i = count_intersection_violations(g, a, b, b, params)
        assert u <= eps * 10
        assert i <= eps * 10
    assert hits >= 5  # the sample must actually exercise the bound


def test_union_and_intersection_bounds_at_enumeration_scale():
    eps, delta = Fraction(45, 100), Fraction(2, 5)
    params = RegularityParams(eps, delta, 2)
    bound = 2 * eps * 10**2  # k * eps * |A|^k = 90
    for seed in range(8):
        g = seeded_bipartite(10, 10, 0.5, seed)
        a, b = list(range(10)), list(range(10, 20))
        dens = pair_density(g, a, b)
        if not (Fraction(2, 5) <= dens <= Fraction(3, 5)):
            continue
        rep = is_eps_regular_exact(g, a, b, eps)
        if not rep.is_regular:
            continue
        u = count_union_violations(g, a, b, params)
        ivio = count_intersection_violations(g, a, b, b, params, check_hypotheses=False)
        assert u <= bound and ivio <= bound


def test_hypothesis_gates():
    g = seeded_bipartite(6, 6, 0.9, 1)
    a, b = list(range(6)), list(range(6, 12))
    # intersection hypothesis (delta-eps)^{k-1} |Y| > eps |B| fails when
    # eps exceeds delta
    params = RegularityParams(Fraction(45, 100), Fraction(2, 5), 2)
    with pytest.raises(ValueError, match="hypothesis"):
        count_intersection_violations(g, a, b, b, params)
    # union hypothesis (1-delta+eps)^{k-1} >= eps fails at high density
    # and k = 3: (1 - 9/10 + 1/5)^2 = 0.09 < 1/5
    kb = complete_multipartite([6, 6])
    params2 = RegularityParams(Fraction(1, 5), Fraction(9, 10), 3)
    with pytest.raises(ValueError, match="hypothesis"):
        count_union_violations(kb, range(6), range(6, 12), params2)


def test_density_precondition():
    g = seeded_bipartite(6, 6, 0.2, 4)
    params = RegularityParams(Fraction(1, 10), Fraction(9, 10), 2)
    with pytest.raises(ValueError, match="density"):
        count_union_violations(g, range(6), range(6, 12), params)


def test_budget_guard():
    kb = complete_multipartite([4, 4])
    params = RegularityParams(Fraction(1, 4), Fraction(1, 2), 12)
    with pytest.raises(ValueError, match="budget"):
        count_union_violations(kb, A8, B8, params, budget=1000)


def test_intersection_requires_y_subset():
    kb = complete_multipartite([4, 4])
    params = RegularityParams(Fraction(1, 4), Fraction(1, 2), 2)
    with pytest.raises(ValueError, match="subset"):
        count_intersection_violations(kb, A8, B8, [0], params)


def test_full_pair_report_shape():
    g = seeded_bipartite(8, 8, 0.5, 9)
    params = RegularityParams(Fraction(45, 100), Fraction(2, 5), 2)
    rep = full_pair_report(g, range(8), range(8, 16), params)
    assert rep.is_regular is not None
    if rep.is_regular and rep.density >= params.delta:
        assert rep.union_bad_tuples is not None
        assert rep.intersection_bad_tuples is not None
