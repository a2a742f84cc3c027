import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import narrow_slice
from fairprice.dist import Exponential, ExponentialMixture, Market, MarketSlice, PiecewiseLinearCdf
from fairprice.duality import build_duals, dual_value
from fairprice.errors import UnsupportedConfiguration, ValidationError, ZeroGains
from fairprice.pricing import (
    build_p_anti,
    build_p_ass,
    build_p_star,
    build_perfect_discrimination,
    check_nondiscrimination,
    q_star,
)
from fairprice.welfare import (
    _bound_from_r,
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
