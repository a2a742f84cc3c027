"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime. Criteria run at their stated tolerances.

Note: the narrow-ratio scaled family (means 1 and 3) at positive cost is a
full-extraction region, so surplus figures are reproduced only on verifiably
admissible parameterizations (mean ratio 12, or zero cost); criterion 5
covers those plus the property suites.
"""

import time

import numpy as np
import pytest

from conftest import mixture_slice, narrow_slice, random_c1_slices, scaled12_slice
from helpers import star_oracle_gap
from fairprice.cutoffs import classify_region, fixed_point_residual, kappa_bracket, solve_kappa
from fairprice.dist import Exponential, MarketSlice, ScaledFamily, gap_profile
from fairprice.duality import build_duals, check_complementary_slackness, check_feasibility, dual_value
from fairprice.matching import build_rho_star, coupling_welfare, mix_for_target_surplus
from fairprice.oracle import oracle_gap_tilde
from fairprice.pricing import (
    build_p_anti,
    build_p_ass,
    build_p_star,
    build_p_tilde_star,
    build_perfect_discrimination,
    check_nondiscrimination,
    q_star,
)
from fairprice.welfare import (
    _weak_bound_from_r,
    surplus_closed_forms,
    uniform_price_revenue,
    welfare_report,
)


def _announce(capsys, label, passed, elapsed, detail=""):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[{label}] {status} ({elapsed:.2f}s) {detail}".rstrip())


@pytest.fixture(scope="module")
def c1_slices_25():
    return random_c1_slices(25)


def region_spanning_slices():
    e13 = (Exponential(1.0), Exponential(3.0))
    return [
        MarketSlice(c=0.0, alpha=0.5, f_l=e13[0], f_h=e13[1]),
        MarketSlice(c=0.0, alpha=0.3, f_l=e13[0], f_h=e13[1]),
        MarketSlice(c=0.0, alpha=0.6, f_l=Exponential(0.8), f_h=Exponential(4.0)),
        MarketSlice(c=0.0, alpha=0.4, f_l=Exponential(1.0), f_h=Exponential(6.0)),
        scaled12_slice(1.0),
        mixture_slice(seed=3),
        MarketSlice(c=0.8, alpha=0.5, f_l=e13[0], f_h=e13[1]),   # C2
        MarketSlice(c=1.0, alpha=0.5,
                    f_l=ScaledFamily(Exponential(1.0), 1.0),
                    f_h=ScaledFamily(Exponential(3.0), 1.0)),    # C2
        MarketSlice(c=1.7, alpha=0.5, f_l=e13[0], f_h=e13[1]),   # C3
        MarketSlice(c=2.0, alpha=0.5, f_l=e13[0], f_h=e13[1]),   # C3
    ]


def test_criterion_1_cutoff_correctness(c1_slices_25, capsys):
    """Residuals of the cutoff system at 1e-8 plus fixed-point uniqueness on
    25 randomized C1 slices, within 5 seconds."""
    t0 = time.perf_counter()
    for s in c1_slices_25:
        assert classify_region(s).value == "C1"
        k = solve_kappa(s)
        assert k.max_residual <= 1e-8
        h_lo, h_hi = kappa_bracket(s)
        res = np.asarray(fixed_point_residual(s, np.linspace(h_lo, h_hi, 2000)))
        signs = np.sign(res)
        signs = signs[signs != 0]
        assert int(np.sum(signs[:-1] != signs[1:])) == 1
    elapsed = time.perf_counter() - t0
    _announce(capsys, "criterion 1", True, elapsed,
              "cutoff residuals <= 1e-8 + unique fixed point on 25 slices")
    assert elapsed <= 5.0


def test_criterion_2_dual_certification(c1_slices_25, capsys):
    """Dual feasibility on 500x500 grids, complementary slackness on 10,000
    atoms, and strong duality at 1e-5 relative, within 30 seconds."""
    t0 = time.perf_counter()
    for s in c1_slices_25:
        cert = build_duals(s)
        assert check_feasibility(cert, s, 500) >= -1e-6
        assert check_complementary_slackness(cert, build_rho_star(s, 10_000)) <= 1e-6
        profit = welfare_report(build_p_star(s), s).profit
        assert dual_value(cert) == pytest.approx(profit, rel=1e-5)
    elapsed = time.perf_counter() - t0
    _announce(capsys, "criterion 2", True, elapsed,
              "feasibility >= -1e-6, slackness <= 1e-6, duality gap <= 1e-5")
    assert elapsed <= 30.0


def test_criterion_3_oracle_equivalence(capsys):
    """Assignment oracle within 1% at n = 400 with a shrinking trend for 10
    slices spanning all regions; noisy-value variant within 1% on 3 slices;
    within 2 minutes."""
    t0 = time.perf_counter()
    slices = region_spanning_slices()
    regions = [classify_region(s).value for s in slices]
    assert regions.count("C2") == 2 and regions.count("C3") == 2
    for s in slices:
        gaps = {n: star_oracle_gap(s, n) for n in (200, 400, 800)}
        assert gaps[400] <= 0.01
        assert gaps[800] <= gaps[200] * 1.1
    for f_h_mean in (2.0, 3.0, 5.0):
        s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(f_h_mean))
        assert oracle_gap_tilde(s, 400) <= 0.01
    elapsed = time.perf_counter() - t0
    _announce(capsys, "criterion 3", True, elapsed,
              "oracle gap <= 1% at n=400, decreasing 200->800; noisy variant <= 1%")
    assert elapsed <= 120.0


def test_criterion_4_nondiscrimination(exp13, c2_slice, c3_slice, capsys):
    """Price-cdf gap at most 1e-6 for every constructed rule on every tested
    slice; the perfect-discrimination benchmark is flagged at the total
    variation distance."""
    t0 = time.perf_counter()
    from fairprice.dist import delta

    for s in (exp13, c2_slice, c3_slice):
        rules = [build_p_star(s), build_p_ass(s),
                 build_p_anti(s, q_star(s)), build_p_anti(s, 1.0)]
        if s is exp13:
            rules.append(build_p_tilde_star(s))
        for rule in rules:
            assert check_nondiscrimination(rule, s) <= 1e-6, rule.name
        flagged = check_nondiscrimination(build_perfect_discrimination(s), s)
        gp = gap_profile(s)
        # clamping at cost caps the reachable gap at the post-cost supremum
        expected = gp.tv if s.c <= gp.v_star else float(delta(s, s.c))
        assert flagged > 1e-6
        assert flagged == pytest.approx(expected, abs=1e-3 * expected)
    elapsed = time.perf_counter() - t0
    _announce(capsys, "criterion 4", True, elapsed,
              "cdf gap <= 1e-6 for p*, p~*, p_ass, p_anti; benchmark flagged at tv")


def test_criterion_5_headline_numbers(c2_slice, c3_slice, capsys):
    """Desk-scale numbers: the 7/9 ratio bound, profit shares across the mean
    ratio grid, zero surplus under full extraction, and cost linearity of the
    cutoffs for the wide-mean-ratio scaled family."""
    t0 = time.perf_counter()
    # (a) ratio bound at r = 0.4
    assert abs(_weak_bound_from_r(0.4) - 7.0 / 9.0) <= 1e-12
    # (b) profit shares over the mean-ratio grid
    for m in np.arange(1.5, 10.01, 0.5):
        s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(float(m)))
        rep = welfare_report(build_p_star(s), s)
        _, revenue = uniform_price_revenue(s)
        assert rep.share >= 0.95
        assert revenue / rep.gains < 0.40
    # (c) full extraction leaves nothing on the table
    for s in (c2_slice, c3_slice):
        rep = welfare_report(build_p_star(s), s)
        assert max(abs(rep.cs_l), abs(rep.cs_h), abs(rep.wl_l), abs(rep.wl_h)) <= 1e-8
    # (d) scaled-family linearity of the cutoffs
    k1 = np.asarray(solve_kappa(scaled12_slice(1.0)).as_tuple())
    for c in (0.5, 1.0, 2.0):
        kc = np.asarray(solve_kappa(scaled12_slice(c)).as_tuple())
        assert np.max(np.abs(kc - c * k1) / (c * k1)) <= 1e-6
    elapsed = time.perf_counter() - t0
    _announce(capsys, "criterion 5", True, elapsed,
              "7/9 bound exact; p* share >= 0.95; uniform < 0.40; zero CS/WL; linear cutoffs")


def test_criterion_6_population_share_statics(capsys):
    """Surplus monotonicity in the high-group share across the alpha grid for
    five C1 slices, and vanishing endpoint surpluses."""
    t0 = time.perf_counter()
    families = [
        (Exponential(1.0), Exponential(3.0)),
        (Exponential(1.0), Exponential(6.0)),
        (Exponential(0.8), Exponential(4.0)),
        (Exponential(1.5), Exponential(4.5)),
        (mixture_slice(seed=5).f_l, mixture_slice(seed=5).f_h),
    ]
    alphas = np.round(np.arange(0.05, 0.951, 0.05), 2)
    for f_l, f_h in families:
        cs_l, cs_h = [], []
        for a in alphas:
            s = MarketSlice(c=0.0, alpha=float(a), f_l=f_l, f_h=f_h)
            rep = welfare_report(build_p_star(s), s)
            cs_l.append(rep.cs_l)
            cs_h.append(rep.cs_h)
        assert np.all(np.diff(cs_h) <= 1e-9)
        assert np.all(np.diff(cs_l) >= -1e-9)
    for a, key in ((1e-3, "cs_l"), (1 - 1e-3, "cs_h")):
        s = MarketSlice(c=0.0, alpha=a, f_l=Exponential(1.0), f_h=Exponential(3.0))
        rep = welfare_report(build_p_star(s), s)
        assert getattr(rep, key) <= 1e-3
    elapsed = time.perf_counter() - t0
    _announce(capsys, "criterion 6", True, elapsed,
              "cs_h nonincreasing, cs_l nondecreasing over alpha; endpoints <= 1e-3")


def test_criterion_7_outcome_fairness_comparison(exp13, capsys):
    """The optimal rule beats the assortative one exactly when the surplus
    condition holds, and the assortative rule shifts surplus to the high
    group."""
    t0 = time.perf_counter()
    star = welfare_report(build_p_star(exp13), exp13)
    ass = welfare_report(build_p_ass(exp13), exp13)
    assert star.profit > ass.profit + 1e-8      # alpha*(hi-c) > lo-c holds
    assert ass.cs_h >= star.cs_h - 1e-9
    assert ass.cs_l == pytest.approx(0.0, abs=1e-10)

    below = narrow_slice(alpha=0.25)            # alpha*(hi-c) < lo-c fails
    star_b = welfare_report(build_p_star(below), below)
    ass_b = welfare_report(build_p_ass(below), below)
    assert star_b.profit == pytest.approx(ass_b.profit, abs=1e-8)

    above = narrow_slice(alpha=0.6)
    star_a = welfare_report(build_p_star(above), above)
    ass_a = welfare_report(build_p_ass(above), above)
    assert star_a.profit > ass_a.profit + 1e-8
    elapsed = time.perf_counter() - t0
    _announce(capsys, "criterion 7", True, elapsed,
              "p* > p_ass iff the surplus condition holds; cs_h higher under p_ass; cs_l(p_ass)=0")


def test_criterion_8_outcome_range(exp13, capsys):
    """Kernel mixtures hit every targeted low-group surplus within 1% while
    high-group surplus and profit stay put."""
    t0 = time.perf_counter()
    cs_l_star, cs_h_star = surplus_closed_forms(exp13)
    profit_star = welfare_report(build_p_star(exp13), exp13).profit
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        target = frac * cs_l_star
        mix = mix_for_target_surplus(exp13, target, 10_000)
        profit, cs_l, cs_h = coupling_welfare(exp13, mix)
        assert abs(cs_l - target) <= 0.01 * cs_l_star
        assert abs(cs_h - cs_h_star) <= 0.01 * cs_h_star
        assert abs(profit - profit_star) <= 0.01 * profit_star
    elapsed = time.perf_counter() - t0
    _announce(capsys, "criterion 8", True, elapsed,
              "mixtures hit {0, 1/4, 1/2, 3/4, 1} x CS* within 1%; profit and cs_h constant")
