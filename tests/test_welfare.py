import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import narrow_slice, scaled12_slice
from fairprice.cutoffs import Region, classify_region, solve_kappa
from fairprice.dist import (
    Exponential,
    ExponentialMixture,
    Market,
    MarketSlice,
    PiecewiseLinearCdf,
    ScaledFamily,
    gap_profile,
)
from fairprice.duality import build_duals, dual_value
from fairprice.errors import UnsupportedConfiguration, ValidationError, ZeroGains
from fairprice.pricing import (
    PricingRule,
    Segment,
    build_p_anti,
    build_p_ass,
    build_p_star,
    build_perfect_discrimination,
    check_nondiscrimination,
    q_star,
    sale_pieces,
)
from fairprice.welfare import (
    _bound_from_r,
    _piece_welfare,
    _weak_bound_from_r,
    bbm_triangle,
    optimal_pair_price,
    pair_profit,
    profit_share_bound,
    surplus_closed_forms,
    uniform_price_revenue,
    welfare_report,
)


class TestPairProfit:
    def test_high_only_sale_dominates(self, exp13):
        assert pair_profit(exp13, 3.0, 9.0) == pytest.approx(4.5)

    def test_diagonal_pair_pays_common_value(self, exp13):
        assert pair_profit(exp13, 2.0, 2.0) == pytest.approx(2.0)

    def test_worthless_low_value(self, exp13):
        assert pair_profit(exp13, 0.0, 4.0) == pytest.approx(2.0)

    def test_never_negative(self, c3_slice):
        rng = np.random.default_rng(5)
        vl, vh = rng.uniform(0, 1.5, 200), rng.uniform(0, 1.5, 200)
        assert np.all(np.asarray(pair_profit(c3_slice, vl, vh)) >= 0.0)


class TestOptimalPairPrice:
    def test_targets_high_value(self, exp13):
        assert optimal_pair_price(exp13, 3.0, 9.0) == pytest.approx(9.0)

    def test_sells_to_both_when_spread_is_small(self, exp13):
        assert optimal_pair_price(exp13, 4.0, 5.0) == pytest.approx(4.0)

    def test_diagonal(self, exp13):
        assert optimal_pair_price(exp13, 2.5, 2.5) == pytest.approx(2.5)

    def test_tie_breaks_toward_selling_to_both(self):
        s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(3.0))
        # price 2 sells to both (profit 2); price 4 sells to one (profit 2)
        assert optimal_pair_price(s, 2.0, 4.0) == pytest.approx(2.0)

    def test_infeasible_pair_quotes_cost(self, c3_slice):
        assert optimal_pair_price(c3_slice, 0.5, 1.0) == pytest.approx(c3_slice.c)

    def test_price_attains_pair_profit(self, exp13):
        rng = np.random.default_rng(9)
        vl, vh = rng.uniform(0, 8, 500), rng.uniform(0, 8, 500)
        p = np.asarray(optimal_pair_price(exp13, vl, vh))
        realized = (p - exp13.c) * (0.5 * (vl >= p) + 0.5 * (vh >= p))
        assert np.allclose(realized, pair_profit(exp13, vl, vh), atol=1e-12)


class TestWelfareReport:
    def test_assortative_extracts_low_group_gains(self, exp13):
        rep = welfare_report(build_p_ass(exp13), exp13)
        assert rep.profit == pytest.approx(exp13.f_l.gains_above(0.0), abs=1e-8)
        assert rep.cs_l == pytest.approx(0.0, abs=1e-10)
        assert rep.cs_h > 0

    def test_full_split_extracts_high_group(self, exp13):
        rep = welfare_report(build_p_anti(exp13, 1.0), exp13)
        assert rep.profit == pytest.approx(0.5 * exp13.f_h.gains_above(0.0), abs=1e-8)
        assert rep.cs_h == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("fixture", ["c2_slice", "c3_slice"])
    def test_full_extraction_regions_leave_nothing(self, fixture, request):
        s = request.getfixturevalue(fixture)
        rep = welfare_report(build_p_star(s), s)
        for val in (rep.cs_l, rep.cs_h, rep.wl_l, rep.wl_h):
            assert abs(val) <= 1e-8
        assert rep.profit == pytest.approx(rep.gains, rel=1e-9)

    def test_closed_forms_match_integration(self, exp13):
        rep = welfare_report(build_p_star(exp13), exp13)
        cf_l, cf_h = surplus_closed_forms(exp13)
        assert rep.cs_l == pytest.approx(cf_l, rel=1e-6)
        assert rep.cs_h == pytest.approx(cf_h, rel=1e-6)

    @pytest.mark.parametrize("builder", [
        build_p_star,
        build_p_ass,
        lambda s: build_p_anti(s, q_star(s)),
        lambda s: build_p_anti(s, 1.0),
        build_perfect_discrimination,
    ])
    def test_accounting_identity(self, exp13, builder):
        rep = welfare_report(builder(exp13), exp13)
        assert abs(rep.accounting_residual()) <= 1e-6

    def test_accounting_identity_other_regions(self, c2_slice, c3_slice):
        for s in (c2_slice, c3_slice):
            rep = welfare_report(build_p_star(s), s)
            assert abs(rep.accounting_residual()) <= 1e-6


class TestOptimality:
    def test_star_beats_alternatives(self, exp13):
        star = welfare_report(build_p_star(exp13), exp13).profit
        for rule in (build_p_ass(exp13), build_p_anti(exp13, q_star(exp13)),
                     build_p_anti(exp13, 1.0)):
            assert star >= welfare_report(rule, exp13).profit - 1e-8

    def test_strictly_beats_assortative_when_condition_holds(self, exp13):
        # unbounded support: alpha*(hi - c) > lo - c always
        star = welfare_report(build_p_star(exp13), exp13).profit
        ass = welfare_report(build_p_ass(exp13), exp13).profit
        assert star > ass + 1e-6

    def test_matches_assortative_below_the_boundary(self):
        s = narrow_slice(alpha=0.25)  # alpha*(hi-c) < lo-c
        star = welfare_report(build_p_star(s), s).profit
        ass = welfare_report(build_p_ass(s), s).profit
        assert star == pytest.approx(ass, abs=1e-8)

    def test_surplus_split_vs_outcome_fair_rule(self, exp13):
        star = welfare_report(build_p_star(exp13), exp13)
        ass = welfare_report(build_p_ass(exp13), exp13)
        assert ass.cs_h >= star.cs_h - 1e-9
        assert ass.cs_l == pytest.approx(0.0, abs=1e-10)
        assert star.cs_l >= 0.0


@pytest.mark.parametrize("mean_l, ratio, alpha", [
    (0.013281432336258323, 1.3258379222341419, 0.5140804006666485),
    (0.011334494700346821, 1.2628757791976368, 0.45041686983972684),
])
def test_small_scale_surplus_matches_closed_form(mean_l, ratio, alpha):
    """Surpluses of about 4e-7: at an absolute quadrature tolerance of 1e-10
    the closed form missed the integrated value by 2e-6 relative."""
    s = MarketSlice(c=0.0, alpha=alpha, f_l=Exponential(mean_l), f_h=Exponential(mean_l * ratio))
    rep = welfare_report(build_p_star(s), s)
    cf_l, cf_h = surplus_closed_forms(s)
    assert rep.cs_l == pytest.approx(cf_l, rel=1e-6)
    assert rep.cs_h == pytest.approx(cf_h, rel=1e-6)


def test_mixture_share_is_scale_free_at_scale_one_fifth():
    """0.5 exp(1) + 0.5 exp(2) vs 0.5 exp(2) + 0.5 exp(5) with every mean
    scaled by 0.2 is certified with the unit-scale profit share (it used to
    raise OutOfRange on a negative gap level)."""
    def mix_slice(scale):
        return MarketSlice(
            c=0.0, alpha=0.5,
            f_l=ExponentialMixture(weights=(0.5, 0.5), means=(scale, 2.0 * scale)),
            f_h=ExponentialMixture(weights=(0.5, 0.5), means=(2.0 * scale, 5.0 * scale)))

    shares = []
    for s in (mix_slice(1.0), mix_slice(0.2)):
        rule = build_p_star(s)
        rep = welfare_report(rule, s)
        assert check_nondiscrimination(rule, s) <= 1e-6
        assert abs(rep.accounting_residual()) <= 1e-8
        assert abs(dual_value(build_duals(s)) - rep.profit) <= 1e-5 * rep.profit
        shares.append(rep.share)
    assert shares[1] == pytest.approx(shares[0], abs=1e-9)


def _probe_slice(kind, ratio, scale):
    """C1 slices of the small-scale robustness probe, at value scale `scale`."""
    if kind == "exp":
        return MarketSlice(c=0.0, alpha=0.31, f_l=Exponential(scale), f_h=Exponential(ratio * scale))
    if kind == "cost":
        return MarketSlice(c=scale, alpha=0.31, f_l=ScaledFamily(Exponential(1.0), scale),
                           f_h=ScaledFamily(Exponential(ratio), scale))
    means = (0.7 * scale, 0.7 * ratio * scale)
    return MarketSlice(c=0.0, alpha=0.31, f_l=ExponentialMixture(weights=(0.66, 0.34), means=means),
                       f_h=ExponentialMixture(weights=(0.29, 0.71), means=means))


def _certified_share_and_k5(s):
    assert classify_region(s) is Region.C1
    assert solve_kappa(s).max_residual <= 1e-8
    rule = build_p_star(s)
    rep = welfare_report(rule, s)
    assert check_nondiscrimination(rule, s) <= 1e-6
    assert abs(rep.accounting_residual()) <= 1e-8
    assert abs(dual_value(build_duals(s)) - rep.profit) <= 1e-5 * rep.profit
    return rep.share, solve_kappa(s).k5


@pytest.mark.parametrize("kind, ratio, scale", [
    ("exp", 12.0, 1e-6), ("cost", 12.0, 1e-6), ("mix", 12.0, 1e-6), ("mix", 1.5, 1e-6),
    ("mix", 1.5, 1e-4),
])
def test_small_scale_slice_certifies_with_unit_scale_answers(kind, ratio, scale):
    """These raised NoConvergence (1e-6) or ConsistencyError (mix/1.5 at
    1e-4) while Brent stopped at an absolute 1e-12 and gap inverses were
    bisected."""
    share, k5 = _certified_share_and_k5(_probe_slice(kind, ratio, scale))
    unit_share, unit_k5 = _certified_share_and_k5(_probe_slice(kind, ratio, 1.0))
    assert share == pytest.approx(unit_share, abs=1e-9)
    assert k5 / scale == pytest.approx(unit_k5, rel=1e-12)


def _mix_slice(scale):
    return MarketSlice(
        c=0.0, alpha=0.5,
        f_l=ScaledFamily(ExponentialMixture(weights=(0.5, 0.5), means=(1.0, 2.0)), scale),
        f_h=ScaledFamily(ExponentialMixture(weights=(0.5, 0.5), means=(2.0, 5.0)), scale))


def test_mixture_at_scale_1e6_certifies_in_under_a_second():
    """Simpson's absolute tolerance could not be met on surplus integrals of
    size 1e6, and welfare_report ran for minutes on this slice."""
    start = time.perf_counter()
    share, _ = _certified_share_and_k5(_mix_slice(1e6))
    assert time.perf_counter() - start < 1.0
    unit_share, _ = _certified_share_and_k5(_mix_slice(1.0))
    assert share == pytest.approx(unit_share, abs=1e-9)


# The default figures.m_grid at c = 0, a cost of 0.2 at two group shares,
# and the scaled-family pair of the surplus-by-gains figure.
ACCOUNTING_SLICES = (
    [MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(1.5 + 0.5 * i))
     for i in range(18)]
    + [MarketSlice(c=0.2, alpha=a, f_l=Exponential(1.0), f_h=Exponential(5.0)) for a in (0.3, 0.5)]
    + [scaled12_slice(c) for c in (0.5, 1.0, 2.0)])


@pytest.mark.parametrize("s", ACCOUNTING_SLICES, ids=lambda s: (
    f"c={s.c:g}-alpha={s.alpha:g}-m={getattr(s.f_h, 'mean_value', None) or s.f_h.base.mean_value:g}"))
def test_benchmark_rules_close_the_accounting_identity(s):
    """Simpson accepted its first level on p_anti(q*)'s sale piece from mean
    ratio 4.5 up: the profit integrand is 0 at the piece's cost-clamped left
    end and the density is negligible at the other nodes, so the low group's
    profit came out as 0 and the identity missed by up to 0.39 of gains."""
    for rule in (build_p_star(s), build_p_ass(s), build_p_anti(s, q_star(s)), build_p_anti(s, 1.0)):
        rep = welfare_report(rule, s)
        assert abs(rep.accounting_residual()) <= 1e-12 * rep.gains


def test_anti_assortative_share_at_ratio_4_5():
    """`fairprice figures` wrote 0.8182 here while Simpson missed the sale piece."""
    s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(4.5))
    assert welfare_report(build_p_anti(s, q_star(s)), s).share == pytest.approx(0.9403, abs=5e-5)


def test_gap_inverse_sale_pieces_match_quadrature():
    """No constructed rule sells on a gap-inverse segment, so this rule is
    built to: the low group's upper-branch price dips below value near the
    gap maximizer and in the tail, and the high group's lower-branch price
    (clamped at cost from below) stays under value on its whole segment."""
    s = MarketSlice(c=0.2, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(3.0))
    tv = gap_profile(s).tv
    level = 1.21
    a_l = float(s.f_l.quantile(level - tv))
    a_h = 2.0
    b_h = float(s.f_h.quantile(float(s.f_h.cdf(a_h)) + tv))
    rule = PricingRule(name="synthetic", slice=s, segments=(
        Segment("l", 0.0, a_l, "identity"),
        Segment("l", a_l, 6.0, "delta_upper_inverse_of_complement", (("level", level),)),
        Segment("l", 6.0, math.inf, "identity"),
        Segment("h", 0.0, a_h, "identity"),
        Segment("h", a_h, b_h, "delta_lower_inverse_shift", (("offset", -float(s.f_h.cdf(a_h))),)),
        Segment("h", b_h, math.inf, "identity"),
    ))
    checked = []
    for theta, dist in (("l", s.f_l), ("h", s.f_h)):
        for piece in sale_pieces(rule, s, theta):
            a, b, seg, sale = piece
            if not (sale and seg.formula.startswith("delta")):
                continue
            price = lambda v, theta=theta: float(rule.price(theta, v))
            # QUADPACK's adaptive Gauss-Kronrod as the reference
            kw = dict(epsabs=0.0, epsrel=1e-12, limit=500)
            cs_ref = quad(lambda v: (v - price(v)) * float(dist.pdf(v)), a, b, **kw)[0]
            profit_ref = quad(lambda v: (price(v) - s.c) * float(dist.pdf(v)), a, b, **kw)[0]
            cs, profit = _piece_welfare(s, theta, piece)
            assert cs == pytest.approx(cs_ref, rel=1e-10)
            assert profit == pytest.approx(profit_ref, rel=1e-10)
            checked.append(seg.formula)
    assert checked.count("delta_upper_inverse_of_complement") == 2
    assert checked.count("delta_lower_inverse_shift") == 1


class TestSurplusSigns:
    def test_c1_surplus_and_losses_positive(self, exp13):
        rep = welfare_report(build_p_star(exp13), exp13)
        assert rep.cs_h > 0
        assert rep.wl_h > 0  # support floor at or below cost
        assert rep.cs_l > 0 and rep.wl_l > 0  # alpha*(hi-c) > lo-c

    def test_low_group_surplus_vanishes_below_boundary(self):
        s = narrow_slice(alpha=0.25)
        rep = welfare_report(build_p_star(s), s)
        assert rep.cs_l == pytest.approx(0.0, abs=1e-10)
        assert rep.wl_l == pytest.approx(0.0, abs=1e-10)

    def test_population_share_monotonicity(self):
        f_l, f_h = Exponential(1.0), Exponential(3.0)
        cs_l, cs_h = [], []
        for a in np.linspace(0.1, 0.9, 9):
            s = MarketSlice(c=0.0, alpha=float(a), f_l=f_l, f_h=f_h)
            rep = welfare_report(build_p_star(s), s)
            cs_l.append(rep.cs_l)
            cs_h.append(rep.cs_h)
        assert np.all(np.diff(cs_l) >= -1e-9)
        assert np.all(np.diff(cs_h) <= 1e-9)


class TestProfitShareBound:
    def test_weak_bound_at_canonical_ratio(self):
        assert _weak_bound_from_r(0.4) == pytest.approx(7.0 / 9.0, abs=1e-12)

    def test_equal_gains_pins_bound_to_one(self):
        assert _bound_from_r(0.0, 0.3) == pytest.approx(1.0)

    def test_branches_coincide_at_balancing_share(self):
        r = 1.7
        alpha = 1.0 / (r + 1.0)
        assert _bound_from_r(r, alpha) == pytest.approx(_weak_bound_from_r(r), abs=1e-12)

    def test_bound_holds_on_slices(self, exp13, exp112):
        for s in (exp13, exp112):
            rep = welfare_report(build_p_star(s), s)
            sb = profit_share_bound(s)
            assert rep.share >= sb.bound - 1e-9
            assert sb.bound >= sb.weak_bound - 1e-12
            assert sb.weak_bound > 0.5

    def test_zero_low_gains_raises(self):
        f_l = PiecewiseLinearCdf(knots=((0.1, 0.0), (0.9, 1.0)))
        f_h = PiecewiseLinearCdf(knots=((0.1, 0.0), (0.5, 0.25), (0.9, 1.0)))
        s = MarketSlice(c=1.0, alpha=0.5, f_l=f_l, f_h=f_h)
        with pytest.raises(ZeroGains):
            profit_share_bound(s)


class TestUniformPricing:
    def test_single_exponential_closed_form(self):
        s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(1.0))
        price, revenue = uniform_price_revenue(s)
        assert price == pytest.approx(1.0, abs=1e-5)
        assert revenue == pytest.approx(1.0 / math.e, abs=1e-8)

    def test_never_beats_the_optimal_rule(self, exp13):
        _, revenue = uniform_price_revenue(exp13)
        assert revenue <= welfare_report(build_p_star(exp13), exp13).profit + 1e-12

    def test_share_stays_below_forty_percent(self):
        s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(3.0))
        _, revenue = uniform_price_revenue(s)
        assert revenue / welfare_report(build_p_star(s), s).gains < 0.40

    def test_market_level_single_price(self, exp13, exp112):
        market = Market(slices=((exp13, 0.5), (exp112, 0.5)))
        price, revenue = uniform_price_revenue(market)
        p1, r1 = uniform_price_revenue(exp13)
        assert revenue >= r1 * 0.5  # market revenue at its optimum beats slice-wise at p1

    def test_revenue_function_evaluated_at_optimum(self, exp13):
        price, revenue = uniform_price_revenue(exp13)
        mix = 0.5 * np.asarray(exp13.f_h.cdf(price)) + 0.5 * np.asarray(exp13.f_l.cdf(price))
        assert revenue == pytest.approx(float(price * (1 - mix)), abs=1e-12)


@given(v_l=st.floats(0.0, 20.0), v_h=st.floats(0.0, 20.0),
       alpha=st.floats(0.05, 0.95), c=st.floats(0.0, 5.0))
@settings(deadline=None, max_examples=200)
def test_pair_price_attains_pair_profit_property(v_l, v_h, alpha, c):
    s = MarketSlice(c=c, alpha=alpha, f_l=Exponential(1.0), f_h=Exponential(3.0))
    p = float(optimal_pair_price(s, v_l, v_h))
    realized = (p - c) * ((1 - alpha) * (v_l >= p) + alpha * (v_h >= p))
    assert p >= c
    assert realized == pytest.approx(float(pair_profit(s, v_l, v_h)), abs=1e-12)


class TestSurplusTriangle:
    def test_mixture_mean_and_vertex_structure(self, exp13):
        market = Market(slices=((exp13, 1.0),))
        (v1, v2, v3) = bbm_triangle(market)
        assert v1 == (pytest.approx(2.0), 0.0)
        _, r_star = uniform_price_revenue(market)
        assert v2 == (pytest.approx(r_star), 0.0)
        assert v3[0] == pytest.approx(r_star)
        assert v3[1] == pytest.approx(2.0 - r_star)

    def test_degenerate_single_distribution(self):
        s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(1.0))
        market = Market(slices=((s, 1.0),))
        (v1, v2, _) = bbm_triangle(market)
        assert v1[0] == pytest.approx(1.0)
        assert v2[0] == pytest.approx(1.0 / math.e, abs=1e-8)

    def test_positive_cost_unsupported(self, c2_slice):
        with pytest.raises(UnsupportedConfiguration):
            bbm_triangle(Market(slices=((c2_slice, 1.0),)))

    def test_empty_market_rejected(self):
        with pytest.raises(ValidationError):
            Market(slices=())
