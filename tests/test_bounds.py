"""Constants pipeline: closed forms, feasibility, and the k grid search.

The scalar formulas are re-implemented inline here (independently of the
module, from the same written forms) and compared on random points, so a
transcription slip in either place shows up as a mismatch.
"""

import math
import random
import re

import pytest

from graphnodal import (
    BoundParams,
    GridSpec,
    ParameterError,
    alpha_beta,
    c_constant,
    exceptional_bound_k,
    feasibility,
    kp_formula,
    reference_k,
    tail_constants,
    substream,
)
from graphnodal import bounds
from graphnodal.bounds import REFERENCE_K_TABLE, ConstantsResult, binary_entropy
from bounds_reference import (
    feasible_ks,
    reference_bound_k,
    reference_kp,
    reference_largest_k,
    reference_largest_k_exact,
)


def test_c_constant_values():
    # at p=1/2, q=1/2 and C = (1/16)/(128/16) = 1/128
    assert math.isclose(c_constant(0.5), 1.0 / 128.0, rel_tol=1e-15)
    # C is symmetric under p -> 1-p since both p(1-p) and q are
    for p in (0.1, 0.22, 0.38, 0.47):
        assert math.isclose(c_constant(p), c_constant(1.0 - p), rel_tol=1e-14)
    with pytest.raises(ValueError):
        c_constant(0.0)
    with pytest.raises(ValueError):
        c_constant(1.0)


def test_tail_constants_hand_values():
    # delta=1: ratio (2+1)/(1+1) = 3/2, so a2 = 4.5 ln 9 and
    # a1 = (18q/4) sqrt(3 ln 9); at q=1/2 that is 2.25 sqrt(3 ln 9)
    t, a1, a2 = tail_constants(0.5, 1.0)
    assert math.isclose(a2, 4.5 * math.log(9.0), rel_tol=1e-15)
    assert math.isclose(a1, 2.25 * math.sqrt(3.0 * math.log(9.0)), rel_tol=1e-15)
    assert math.isclose(t, math.sqrt(3.0 * math.log(9.0)), rel_tol=1e-15)
    # delta -> infinity: ratio -> 1, a2 -> 3 ln 9
    _, _, a2_inf = tail_constants(0.5, 1e12)
    assert math.isclose(a2_inf, 3.0 * math.log(9.0), rel_tol=1e-9)
    # t and a1 scale linearly in q = max(p, 1-p)
    t3, a13, _ = tail_constants(0.75, 2.0)
    t6, a16, _ = tail_constants(0.25, 2.0)
    assert math.isclose(t3, t6, rel_tol=1e-15) and math.isclose(a13, a16, rel_tol=1e-15)
    with pytest.raises(ValueError):
        tail_constants(0.5, 0.0)


def test_alpha_beta_limits():
    # theta near 1 kills the positive term, leaving alpha negative
    alpha, _ = alpha_beta(0.5, 10.0, 0.999999, 0.5)
    assert alpha < 0.0
    # beta never exceeds a2
    for gamma in (1e-6, 1e-3, 0.5, 1.0):
        _, _, a2 = tail_constants(0.5, 10.0)
        _, beta = alpha_beta(0.5, 10.0, 0.5, gamma)
        assert beta <= a2
    with pytest.raises(ValueError):
        alpha_beta(0.5, 1.0, 1.5, 0.5)
    with pytest.raises(ValueError):
        alpha_beta(0.5, 1.0, 0.5, 0.0)


def test_positivity_threshold_for_delta():
    # delta must be large before both alpha > 0 and beta > 0 can happen at
    # p=1/2: beta <= 4C/9 - ln(3/gamma)/(1+delta) and making gamma small to
    # help beta eventually kills alpha.  A fine sweep at 1+delta = 1000 finds
    # no positive pair; 1+delta = 10000 does.
    def any_positive(delta):
        for theta_i in range(1, 40):
            theta = theta_i / 40.0
            for g_i in range(1, 60):
                gamma = math.exp(-g_i / 4.0)  # 0.78 down to ~3e-7
                alpha, beta = alpha_beta(0.5, delta, theta, gamma)
                if alpha > 0.0 and beta > 0.0:
                    return True
        return False

    assert not any_positive(999.0)
    assert any_positive(9999.0)


def test_formulas_match_independent_reimplementation():
    # same written forms, typed a second time without reference to the module
    def ref_constants(p, delta, theta, gamma, epsilon, xi1, xi2):
        q = max(p, 1.0 - p)
        ratio = (2.0 + delta) / (1.0 + delta)
        root = math.sqrt(2.0 * ratio * math.log(9.0))
        t = 2.0 * q * root
        a1 = 4.5 * q * root
        a2 = 3.0 * ratio * math.log(9.0)
        c = (p * (1.0 - p)) ** 2 / (128.0 * q**4)
        alpha = (1.0 - theta) * (2.0 / 3.0) * math.sqrt(p * (1.0 - p) * c / 3.0) - gamma * a1
        beta = min(
            a2,
            (4.0 * c / 9.0) * (1.0 + (1.0 - theta) ** 2 * (2.0 * math.log(1.0 - theta) - 1.0))
            - math.log(3.0 / gamma) / (1.0 + delta),
        )
        half = 0.5 + epsilon
        dd = 2.0 * math.sqrt(p * (1.0 - p)) * (1.0 + math.sqrt(half)) + xi1 + xi2 * math.sqrt(half)
        r = alpha * math.sqrt(half) / (2.0 * dd)
        return t, a1, a2, c, alpha, beta, dd, r

    gen = substream(424242, "formula-check").generator()
    for _ in range(1000):
        p = float(gen.uniform(0.05, 0.95))
        delta = float(gen.uniform(0.5, 1e6))
        theta = float(gen.uniform(0.01, 0.99))
        gamma = float(gen.uniform(1e-6, 1.0))
        epsilon = float(gen.uniform(0.01, 0.499))
        xi1 = float(gen.uniform(0.1, 4.0))
        xi2 = float(gen.uniform(0.1, 4.0))
        res = feasibility(BoundParams(p, delta, theta, gamma, epsilon, xi1, xi2))
        want = ref_constants(p, delta, theta, gamma, epsilon, xi1, xi2)
        got = (res.t, res.a1, res.a2, res.c, res.alpha, res.beta, res.d, res.r)
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-15)


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0
    assert math.isclose(binary_entropy(0.5), 1.0, rel_tol=1e-15)
    assert math.isclose(binary_entropy(0.25), binary_entropy(0.75), rel_tol=1e-14)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_feasibility_marks_entropy_violations():
    # generous alpha/beta but tiny xi1 fails H(1/2+eps) < xi1^2/32
    res = feasibility(BoundParams(0.5, 9999.0, 0.9, 1.8e-4, 0.499997, 1e-4, 2.0))
    assert res.alpha > 0.0 and res.beta > 0.0
    assert not res.feasible


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(1.2, 1.0, 0.5, 0.5, 0.4, 1.0, 1.0)
    with pytest.raises(ValueError):
        BoundParams(0.5, -1.0, 0.5, 0.5, 0.4, 1.0, 1.0)
    with pytest.raises(ValueError):
        BoundParams(0.5, 1.0, 0.5, 0.5, 0.6, 1.0, 1.0)


def test_refusals_of_theta_xi_and_p():
    with pytest.raises(ParameterError, match=r"^theta must lie in \(0,1\), got 1\.0$"):
        BoundParams(0.5, 1.0, 1.0, 0.5, 0.4, 1.0, 1.0)
    with pytest.raises(ParameterError, match=r"^xi1, xi2 must be positive, got 1\.0, 0\.0$"):
        BoundParams(0.5, 1.0, 0.5, 0.5, 0.4, 1.0, 0.0)
    with pytest.raises(ParameterError, match=r"^p must lie in \(0,1\), got 0$"):
        tail_constants(0, 1.0)


def test_bound_params_refuses_a_xi_without_a_finite_square():
    # the union-bound condition squares each xi, so BoundParams takes
    # GridSpec's rule
    with pytest.raises(ParameterError,
                       match=r"^xi1, xi2 must have a finite square, got 1e\+200, 1\.0$"):
        BoundParams(0.5, 999.0, 0.5, 1e-6, 0.4, 1e200, 1.0)
    with pytest.raises(ParameterError,
                       match=r"^xi1, xi2 must have a finite square, got 2\.0, inf$"):
        BoundParams(0.5, 9999.0, 0.9, 1.8e-4, 0.499997, 2.0, math.inf)
    assert feasibility(BoundParams(0.5, 999.0, 0.5, 1e-6, 0.4, 1e154, 1.0)).k > 0
    # r = 0 leaves no k: the k search returns 0 before it looks at any k
    assert bounds._largest_k(0.5, 0.499997, 0.0) == 0


def test_grid_search_skips_cells_without_a_feasible_xi():
    # xi1 = 0.01 fails H(1/2+eps) < xi1^2/32 at every epsilon of the grid
    with pytest.raises(RuntimeError, match=r"^no feasible grid point with a positive k at p=0\.5$"):
        exceptional_bound_k(0.5, GridSpec(xi1s=(0.01,)))


def test_grid_search_at_half():
    res = exceptional_bound_k(0.5)
    assert res.feasible
    assert 23 <= res.k <= 92
    # self-certification: the defining inequality holds at k and fails at k+1
    u = 0.5 - res.params.epsilon
    for k, expect in ((res.k, True), (res.k + 1, False)):
        wk = (1.0 - 0.5) ** k
        holds = wk < u and math.sqrt(wk) >= res.r * (u - wk)
        assert holds == expect
    # cross-check k by direct scan from 1 upward using only the returned r
    best = 0
    for k in range(1, 500):
        wk = 0.5**k
        if wk < u and math.sqrt(wk) >= res.r * (u - wk):
            best = k
    assert best == res.k


def test_grid_search_monotone_over_reference_points():
    results = {p: exceptional_bound_k(p) for p, _ in REFERENCE_K_TABLE}
    ps = sorted(results)
    ks = [results[p].k for p in ps]
    # k decreases as p grows: a denser graph pins down exceptional vertices harder
    assert all(a >= b for a, b in zip(ks, ks[1:]))
    assert all(results[p].feasible for p in ps)
    # report form: every tabulated p has a reference to compare against
    assert reference_k(0.5) == 46
    assert reference_k(0.18) == 277
    assert reference_k(0.37) is None
    # the default grid lands within a factor 2 of the reference at p = 1/2
    assert 23 <= results[0.5].k <= 92


def test_smallest_feasible_k_fits_the_published_table_better_than_the_largest():
    # the search returns the largest k over the feasible points of the
    # default grid; the smallest k over the same points is the other reading
    # of "the bound k" that the published table is weighed against
    exact_min, near_min, attained, exact_max = [], 0, 0, 0
    for p, published in REFERENCE_K_TABLE:
        ks = feasible_ks(p)
        assert max(ks) == exceptional_bound_k(p).k, p
        if min(ks) == published:
            exact_min.append(p)
        near_min += abs(min(ks) - published) <= 1
        attained += published in ks
        exact_max += max(ks) == published
    assert exact_min == [0.66, 0.62, 0.50, 0.38]
    assert (near_min, attained, exact_max) == (9, 13, 0)


def test_grid_spec_refuses_entries_the_search_cannot_use():
    for ranges, message in (
        ({"deltas": (1.0, math.inf)}, "deltas entries must be finite, got (1.0, inf)"),
        ({"gamma_fractions": (math.nan,)}, "gamma_fractions entries must be finite, got (nan,)"),
        ({"gamma_fractions": (0.5, 0.0)}, "gamma_fractions entries must be > 0, got (0.5, 0.0)"),
        # 0.5 - 1e-20 is 0.5 in floating point, an epsilon of 1/2
        ({"epsilon_gaps": (1e-20,)}, "epsilon_gaps entries must lie in (0,1/2), got (1e-20,)"),
        ({"xi2s": (0.5, -1.0)}, "xi2s entries must be > 0, got (0.5, -1.0)"),
        # the union-bound condition squares xi, and 1e200**2 overflows
        ({"xi1s": (1e200,)}, "xi1s entries must have a finite square, got (1e+200,)"),
    ):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            GridSpec(**ranges)
    # the extremes it accepts search as the point-by-point reference does;
    # at p = 1 - 1e-12 the winner's r, the smallest met on extreme grids,
    # is still far from 0, which the bisection on r relies on
    top = 1.0 - 2.0**-53
    grid = GridSpec(deltas=(1e300,), thetas=(top,), gamma_fractions=(top,),
                    epsilon_gaps=(2.8e-17,), xi1s=(1.3e154,), xi2s=(1.3e154,))
    for p in (1e-13, 0.01, 0.5, 1.0 - 1e-12):
        assert (search_outcome(exceptional_bound_k, p, grid)
                == search_outcome(reference_bound_k, p, grid)), p
    assert 0.0 < exceptional_bound_k(1.0 - 1e-12, grid).r < 1e-200
    # (1-p)^k underflows long before the root on this grid (`**` stopped
    # at 74140 for p = 0.01 and 26 for 1 - 1e-12); the reference's running
    # product is too slow to reach the domain of k at the smallest p
    for p, k in ((2.0**-42, 4517595732509913), (1e-12, 1023023462783684),
                 (1e-5, 97449828), (0.01, 94893), (1.0 - 1e-12, 37)):
        res = exceptional_bound_k(p, grid)
        assert res.k == reference_largest_k_exact(p, res.params.epsilon, res.r) == k, p


def test_grid_search_respects_custom_grid():
    # a deliberately infeasible grid raises instead of inventing a k
    tiny = GridSpec(deltas=(1.0,), thetas=(0.5,), gamma_fractions=(0.5,),
                    epsilon_gaps=(0.1,), xi1s=(1.0,), xi2s=(1.0,))
    with pytest.raises(RuntimeError):
        exceptional_bound_k(0.5, tiny)
    with pytest.raises(ValueError):
        exceptional_bound_k(1.5)
    with pytest.raises(ValueError):
        GridSpec(deltas=())


def search_outcome(search, p, grid):
    try:
        return search(p, grid)
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)


def test_grid_search_matches_point_by_point_reference():
    for p, _ in REFERENCE_K_TABLE:
        assert exceptional_bound_k(p) == reference_bound_k(p), p
    # the default grid widened as in CI: epsilon gaps down to 1e-8, gamma
    # fractions up to 0.99
    wide = GridSpec(epsilon_gaps=(1e-3, 1e-4, 1e-5, 3e-6, 1e-8),
                    gamma_fractions=(0.05, 0.1, 0.25, 0.5, 0.99))
    for p in (0.5, 0.3, 0.18):
        assert exceptional_bound_k(p, wide) == reference_bound_k(p, wide), p
    # unsorted ranges with duplicates: ties go by parameter value, not by
    # position in the grid
    unsorted = GridSpec(deltas=(99999.0, 999.0, 9999.0), thetas=(0.9, 0.1, 0.5),
                        gamma_fractions=(0.5, 0.05, 0.5), epsilon_gaps=(3e-6, 1e-3, 1e-5),
                        xi1s=(2.0, 0.5, 2.0), xi2s=(1.0, 0.25, 1.0))
    for p in (0.5, 0.37, 0.22):
        assert exceptional_bound_k(p, unsorted) == reference_bound_k(p, unsorted), p
    rng = random.Random(17)
    ranges = {
        "deltas": (9.0, 999.0, 1e4, 1e6, 1e9),
        "thetas": (0.1, 0.3, 0.5, 0.9, 0.99),
        "gamma_fractions": (0.01, 0.05, 0.5, 0.9, 0.99),
        "epsilon_gaps": (1e-3, 1e-4, 1e-5, 3e-6, 1e-8),
        "xi1s": (0.25, 0.5, 1.0, 2.0, 8.0),
        "xi2s": (0.25, 0.5, 1.0, 2.0, 8.0),
    }
    found = 0
    for _ in range(60):
        grid = GridSpec(**{name: tuple(rng.sample(values, rng.randint(1, 3)))
                           for name, values in ranges.items()})
        p = rng.choice([rng.uniform(0.1, 0.9), rng.choice(REFERENCE_K_TABLE)[0]])
        got = search_outcome(exceptional_bound_k, p, grid)
        assert got == search_outcome(reference_bound_k, p, grid), (p, grid)
        found += isinstance(got, ConstantsResult)
    assert found >= 20  # most random grids have a feasible point


@pytest.mark.parametrize("bad", [
    {"thetas": (0.5, 1.0)}, {"thetas": (1.5, 0.5)}, {"epsilon_gaps": (1e-3, 0.5)},
    {"epsilon_gaps": (0.7,)}, {"thetas": (0.5, 1.0), "epsilon_gaps": (1e-4, 0.6)},
    {"thetas": (2.0,), "epsilon_gaps": (0.5,)}, {"gamma_fractions": (0.5, 1e12)},
])
def test_grid_search_raises_the_reference_error_on_invalid_grids(bad):
    ranges = {**vars(GridSpec()), **bad}
    # a theta or an epsilon gap out of range fails as the grid is built,
    # thetas first, so neither search runs
    for name, rule in (("thetas", "(0,1)"), ("epsilon_gaps", "(0,1/2)")):
        if name in bad:
            message = f"{name} entries must lie in {rule}, got {bad[name]}"
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                GridSpec(**ranges)
            return
    # gamma depends on p: both searches refuse it at the same point
    grid = GridSpec(**ranges)
    got = search_outcome(exceptional_bound_k, 0.5, grid)
    assert got[0] is ParameterError
    assert got == search_outcome(reference_bound_k, 0.5, grid)


def test_grid_search_searches_k_at_feasible_points_only(monkeypatch):
    # at p = 1e-5 no point is feasible, so no k is searched; the
    # point-by-point search walks k at each of the 6400 points, from a
    # domain of k that starts past 690,000
    calls = []
    monkeypatch.setattr(bounds, "_largest_k", lambda *args: calls.append(args))
    with pytest.raises(RuntimeError, match="^no feasible grid point"):
        exceptional_bound_k(1e-5)
    assert calls == []


@pytest.mark.parametrize("fractions", [(0.5, 1e12), (1e12, 0.5)])
def test_grid_search_refuses_in_loop_order(fractions):
    # a feasible point whose domain of k starts past 1.2 million comes
    # before a gamma above 1 in one order and after it in the other; no
    # error comes out of a k search, so both orders raise the gamma refusal
    # that a point-by-point search meets
    grid = GridSpec(deltas=(1e300,), epsilon_gaps=(2.8e-17,), gamma_fractions=fractions)
    got = search_outcome(exceptional_bound_k, 3e-5, grid)
    assert got[0] is ParameterError
    assert got == search_outcome(reference_bound_k, 3e-5, grid)


def test_largest_k_falls_as_r_rises():
    # the grid search's bisection on r rests on k being nonincreasing in r
    rng = random.Random(23)
    gaps = (0.1, 1e-2, 1e-3, 1e-4, 1e-5, 3e-6, 1e-8)
    ps = [p for p, _ in REFERENCE_K_TABLE] + [rng.uniform(0.01, 0.99) for _ in range(24)]
    for p in ps:
        for gap in gaps:
            epsilon = 0.5 - gap
            u = 0.5 - epsilon
            rs = [10.0 ** rng.uniform(-14.0, 3.0) for _ in range(40)]
            # the r at which the root passes an integer k in the domain,
            # and 6 ulps either side of it
            k = math.floor(math.log(u) / math.log1p(-p)) + rng.randint(1, 40)
            wk = math.exp(k * math.log1p(-p))
            root = math.sqrt(wk) / (u - wk)
            for side in (0.0, math.inf):
                r = root
                for _ in range(6):
                    r = math.nextafter(r, side)
                    rs.append(r)
            rs = sorted(rs + [root])
            ks = [bounds._largest_k(p, epsilon, r) for r in rs]
            assert all(a >= b for a, b in zip(ks, ks[1:])), (p, gap)
            assert ks == [reference_largest_k(p, epsilon, r) for r in rs], (p, gap)
    # below 2^-42 a k can pass 2^53, where k+1 is k as a double: such a p is
    # refused before any k search
    below = math.nextafter(2.0**-42, 0.0)
    message = re.escape(f"p must be at least 2^-42 for the bound k, got {below}")
    for refused in (lambda: exceptional_bound_k(below),
                    lambda: BoundParams(below, 999.0, 0.5, 1e-6, 0.4, 1.0, 1.0),
                    lambda: reference_largest_k(below, 0.499, 1.0)):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            refused()
    # at the floor the largest k, at the smallest u and r, is the root and
    # below 2^53
    extreme = (2.0**-42, 0.5 - 2.0**-54, 5e-324)
    assert bounds._largest_k(*extreme) == reference_largest_k_exact(*extreme) < 2**53


def test_largest_k_where_a_power_rounds_onto_the_domain_edge():
    # (1-p)^3 rounds to exactly 1/2-eps here, so the domain of k starts at
    # 4, where a running product of 1-p would start it at 3; k = 4 meets
    # both conditions and k = 5 fails the second
    case = (0.2674916869125672, 0.10695916540607925, 5.0)
    assert bounds._largest_k(*case) == 4
    assert reference_largest_k(*case) == reference_largest_k_exact(*case) == 4


def certify_largest_k(p, epsilon, r):
    u, base, log_base = 0.5 - epsilon, 1.0 - p, math.log1p(-p)

    def meets(k):
        # sqrt((1-p)^k) >= r (u - (1-p)^k) in logs, as the search tests it
        x = k * log_base
        wk = math.exp(x)
        return wk >= u or x / 2.0 >= math.log(r) + math.log(u - wk)

    k = bounds._largest_k(p, epsilon, r)
    if k >= 1:
        assert base**k < u and meets(k) and not meets(k + 1), (p, epsilon, r, k)
    else:
        assert k == 0
        first = 1
        while not base**first < u:
            first += 1
        assert not meets(first), (p, epsilon, r)
    return k


def random_k_inputs(rng):
    """3000 (p, epsilon, r) from rng: p uniform in [0.01, 0.99], 1/2-eps and
    r log-uniform in [1e-16, 1/2] and [1e-200, 1e3]."""
    for _ in range(3000):
        p = rng.uniform(0.01, 0.99)
        epsilon = 0.5 - 10.0 ** rng.uniform(-16.0, math.log10(0.5))
        yield p, epsilon, 10.0 ** rng.uniform(-200.0, 3.0)


def test_largest_k_is_the_exact_root():
    # (1-p)^k underflows below the root for most of these r; a test of the
    # inequality through (1-p)**k gave 715 of them wrong
    for args in random_k_inputs(random.Random(29)):
        assert bounds._largest_k(*args) == reference_largest_k_exact(*args), args
    # where (1-p)^k underflows the `**` test stopped at 1074 and 7,450,959
    assert bounds._largest_k(0.5, 0.5 - 2.8e-17, 1e-206) == 1476
    assert bounds._largest_k(1e-4, 0.5 - 2.8e-17, 1e-192) == 9_590_046
    assert reference_largest_k_exact(1e-4, 0.5 - 2.8e-17, 1e-192) == 9_590_046


def test_largest_k_certifies_itself():
    rng = random.Random(29)
    ks = [certify_largest_k(*args) for args in random_k_inputs(rng)]
    assert min(ks) == 0 and max(ks) > 10_000
    # u and r on the boundaries: u a power of 1-p and r its root at some k,
    # each nudged an ulp either way
    edge_ks = []
    for _ in range(1000):
        p = rng.uniform(0.01, 0.99)
        base = 1.0 - p
        edge = 0.5 - base ** rng.randint(1, 30)
        for epsilon in (edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0)):
            if not 0.0 < epsilon < 0.5:
                continue
            u = 0.5 - epsilon
            wk = base ** rng.randint(1, 60)
            if wk < u:
                r = math.sqrt(wk) / (u - wk)
                for rr in (r, math.nextafter(r, 0.0), math.nextafter(r, math.inf)):
                    edge_ks.append(certify_largest_k(p, epsilon, rr))
            edge_ks.append(certify_largest_k(p, epsilon, 10.0 ** rng.uniform(-3.0, 3.0)))
    assert min(edge_ks) == 0 and max(edge_ks) >= 60


def test_grid_search_skips_cells_that_cannot_win(monkeypatch):
    calls = 0
    largest_k = bounds._largest_k

    def counted(*args):
        nonlocal calls
        calls += 1
        return largest_k(*args)

    want = exceptional_bound_k(0.5)
    monkeypatch.setattr(bounds, "_largest_k", counted)
    assert exceptional_bound_k(0.5) == want
    # one k search per epsilon at its smallest r, then a bisection on r at
    # each epsilon reaching the best k; a k search at every feasible point
    # made 1777 calls
    assert calls <= 64
    # the bisection needs r > 0 at every feasible point, since k = 0 at
    # r = 0 breaks k's fall in r; an infinite xi would give r = 0, and
    # GridSpec refuses one
    with pytest.raises(ParameterError, match=r"^xi1s entries must be finite, got \(2\.0, inf\)$"):
        GridSpec(xi1s=(2.0, math.inf))


def test_kp_formula_values():
    # floor(1/log2(1/(1-p))): 1 for p in (0.29289..., 0.5], 0 above 1/2
    assert kp_formula(0.5) == 1
    assert kp_formula(0.3) == 1
    assert kp_formula(0.29) == 2
    assert kp_formula(0.21) == 2
    assert kp_formula(0.75) == 0
    # threshold check: 1 - 2^(-1/2) = 0.29289...
    edge = 1.0 - 2 ** (-0.5)
    assert kp_formula(edge + 1e-9) == 1
    assert kp_formula(edge - 1e-9) == 2
    with pytest.raises(ValueError):
        kp_formula(0.0)


def test_kp_formula_matches_a_decimal_reference():
    # log-uniform p in [1e-12, 1); 1/log2(1/(1-p)) was wrong on about a third
    rng = random.Random(25)
    for p in (10.0 ** rng.uniform(-12.0, 0.0) for _ in range(2000)):
        if p < 1.0:
            assert kp_formula(p) == reference_kp(p), p
    assert kp_formula(1e-10) == reference_kp(1e-10) == 6931471805
    # 1 - p rounds to 1 below 2^-54; past 2^52 the value is a double's
    exact = reference_kp(1e-17)
    assert abs(kp_formula(1e-17) - exact) <= exact * 2.0**-52
