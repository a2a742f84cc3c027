import math

import numpy as np
import pytest

from conftest import mixture_slice, narrow_slice, random_c1_slices, scaled12_slice
from fairprice.cutoffs import (
    Kappa,
    Region,
    classify_region,
    fixed_point_residual,
    kappa_bracket,
    solve_eta,
    solve_kappa,
    solve_kappa_tilde,
)
from fairprice.dist import Exponential, MarketSlice, ScaledFamily, delta, gap_profile
from fairprice.errors import NoConvergence, UnsupportedConfiguration, WrongRegion


class TestClassifyRegion:
    def test_zero_cost_is_c1(self, exp13):
        assert classify_region(exp13) is Region.C1

    def test_wide_ratio_scaled_family_is_c1_at_any_cost(self):
        # F_l(c) = 1 - 1/e ~ 0.632 stays below tv ~ 0.731 for mean ratio 12
        for c in (0.5, 1.0, 2.0, 5.0):
            assert classify_region(scaled12_slice(c)) is Region.C1

    def test_narrow_ratio_scaled_family_is_c2(self, c2_slice):
        # F_l(1) ~ 0.632 >= tv ~ 0.385 and c < v*
        assert classify_region(c2_slice) is Region.C2

    def test_high_cost_is_c3(self, c3_slice):
        assert classify_region(c3_slice) is Region.C3

    def test_tie_classifies_weakly(self, exp13):
        gp = gap_profile(exp13)
        c_tie = float(exp13.f_l.quantile(gp.tv))
        s = MarketSlice(c=c_tie, alpha=0.5, f_l=exp13.f_l, f_h=exp13.f_h)
        assert classify_region(s) in (Region.C2, Region.C3)
        assert classify_region(s) is Region.C2  # c_tie < v*


class TestKappaResiduals:
    @pytest.mark.parametrize("i", range(5))
    def test_nan_residual_fails_the_tolerance(self, i):
        residuals = [0.0] * 5
        residuals[i] = math.nan
        k = Kappa(1.0, 2.0, 3.0, 4.0, 5.0, residuals=tuple(residuals))
        assert math.isnan(k.max_residual)
        assert not k.max_residual <= 1e-8

    @pytest.mark.parametrize("i", range(5))
    def test_solve_kappa_rejects_nan_residual(self, i, exp13, monkeypatch):
        import fairprice.cutoffs as cutoffs

        real = cutoffs._standard_residuals

        def poisoned(*args):
            residuals = list(real(*args))
            residuals[i] = math.nan
            return tuple(residuals)

        monkeypatch.setattr(cutoffs, "_standard_residuals", poisoned)
        with pytest.raises(NoConvergence):
            solve_kappa.__wrapped__(exp13)


class TestSolveKappa:
    def test_residuals_within_tolerance(self, exp13):
        k = solve_kappa(exp13)
        assert k.max_residual <= 1e-8
        assert k.k1 <= k.k2 <= k.k3 <= k.k4 < gap_profile(exp13).v_star < k.k5

    def test_top_cutoff_matches_dense_grid_search(self, exp13):
        """Grid-search oracle: the best chord length on a dense scan of the
        bracket must coincide with the solved k5 - k4."""
        k = solve_kappa(exp13)
        h_lo, h_hi = kappa_bracket(exp13)
        grid = np.linspace(h_lo, h_hi, 20_001)
        res = np.abs(np.asarray(fixed_point_residual(exp13, grid)))
        best = grid[int(np.argmin(res))]
        assert abs(best - (k.k5 - k.k4)) <= 2 * (h_hi - h_lo) / 20_000

    def test_scaled_family_cutoffs_linear_in_cost(self):
        k1 = np.asarray(solve_kappa(scaled12_slice(1.0)).as_tuple())
        for c in (0.5, 2.0):
            kc = np.asarray(solve_kappa(scaled12_slice(c)).as_tuple())
            assert np.max(np.abs(kc - c * k1) / (c * k1)) <= 1e-6

    def test_narrow_support_boundary_case(self):
        """At alpha*(hi-c) = lo-c the cutoffs collapse onto the support ends."""
        s = narrow_slice(alpha=1.0 / 3.0)
        k = solve_kappa(s)
        assert k.max_residual <= 1e-8
        assert k.k2 == pytest.approx(1.0, abs=1e-9)
        assert k.k3 == pytest.approx(1.0, abs=1e-9)
        assert k.k4 == pytest.approx(1.0, abs=1e-9)
        assert k.k5 == pytest.approx(2.0, abs=1e-9)

    def test_wrong_region_raises(self, c2_slice, c3_slice):
        with pytest.raises(WrongRegion):
            solve_kappa(c2_slice)
        with pytest.raises(WrongRegion):
            solve_kappa(c3_slice)

    def test_single_group_unsupported(self):
        s = MarketSlice(c=0.0, alpha=1.0, f_l=Exponential(1.0), f_h=Exponential(3.0))
        with pytest.raises(UnsupportedConfiguration):
            solve_kappa(s)

    def test_fixed_point_root_is_unique_on_bracket(self):
        for s in random_c1_slices(20, seed=7):
            h_lo, h_hi = kappa_bracket(s)
            res = np.asarray(fixed_point_residual(s, np.linspace(h_lo, h_hi, 2000)))
            signs = np.sign(res)
            signs = signs[signs != 0]
            assert int(np.sum(signs[:-1] != signs[1:])) == 1

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("ratio", [1.5, 3.0, 12.0])
    def test_cutoffs_scale_with_values(self, ratio, alpha):
        """The model is homogeneous in the value scale. k1 and k3 are exact
        in the chord length h, so no cancellation in k5 - k4 blurs them: a
        value-scaled pair gives the scaled cutoffs to 1e-13 relative."""
        def cutoffs(lam):
            s = MarketSlice(c=0.0, alpha=alpha, f_l=Exponential(lam), f_h=Exponential(lam * ratio))
            return np.asarray(solve_kappa(s).as_tuple())

        base = cutoffs(1.0)
        for lam in (1e-6, 1e-3, 1e3, 1e6):
            assert np.max(np.abs(cutoffs(lam) / lam - base) / base) <= 1e-13

    @pytest.mark.parametrize("solve, alpha, tol", [(solve_kappa, 0.37, 1e-8),
                                                    (solve_kappa_tilde, 0.5, 1e-7)],
                             ids=["standard", "noisy-value"])
    def test_solve_evaluates_no_gap_inverse(self, solve, alpha, tol, monkeypatch):
        """Both chord solves need the gap alone: a fresh C1 slice calls no
        gap inverse and builds no gap table."""
        import fairprice.dist as dist

        calls = []
        real_inverse, real_table = dist.delta_inverse, dist._gap_table

        def counted_inverse(*args):
            calls.append("delta_inverse")
            return real_inverse(*args)

        def counted_table(*args):
            calls.append("_gap_table")
            return real_table(*args)

        monkeypatch.setattr(dist, "delta_inverse", counted_inverse)
        monkeypatch.setattr(dist, "_gap_table", counted_table)
        s = MarketSlice(c=0.0, alpha=alpha, f_l=Exponential(1.2345), f_h=Exponential(4.321))
        assert classify_region(s) is Region.C1
        assert solve.__wrapped__(s).max_residual <= tol
        assert calls == []

    def test_monotone_comparative_statics_in_alpha(self):
        f_l, f_h = Exponential(1.0), Exponential(3.0)
        k5s, k4s, d3s = [], [], []
        for a in np.linspace(0.02, 0.98, 50):
            s = MarketSlice(c=0.0, alpha=float(a), f_l=f_l, f_h=f_h)
            k = solve_kappa(s)
            k5s.append(k.k5)
            k4s.append(k.k4)
            d3s.append(float(delta(s, k.k3)))
        assert np.all(np.diff(k5s) <= 1e-9)
        assert np.all(np.diff(k4s) >= -1e-9)
        assert np.all(np.diff(d3s) >= -1e-9)

    def test_alpha_limits(self):
        """Both extreme-share limits drive the relevant cutoffs to cost; the
        rate near alpha -> 0 is alpha*log(1/alpha), so the checks assert the
        trend plus explicit bounds rather than a flat 1e-3 at alpha = 1e-3."""
        f_l, f_h = Exponential(1.0), Exponential(3.0)

        gaps = []
        for a in (1e-2, 1e-3, 1e-4):
            k = solve_kappa(MarketSlice(c=0.0, alpha=a, f_l=f_l, f_h=f_h))
            assert k.k1 <= k.k2 <= k.k3
            gaps.append(k.k3)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 5e-3

        shrink = []
        # at 1 - 1e-8 the chord is too short to rise above the rounding of
        # the gap's flat top, and its start stays where its solve started
        for a in (1 - 1e-2, 1 - 1e-3, 1 - 1e-4, 1 - 1e-8):
            s = MarketSlice(c=0.0, alpha=a, f_l=f_l, f_h=f_h)
            k = solve_kappa(s)
            assert k.k1 <= (1 - a) * gap_profile(s).v_star + 1e-12
            shrink.append(k.k5 - k.k4)
        assert shrink[0] > shrink[1] > shrink[2] > shrink[3]
        assert shrink[2] <= 2e-4


BRACKET_FAMILIES = {
    "exponential": lambda a: MarketSlice(c=0.0, alpha=a, f_l=Exponential(1.0), f_h=Exponential(3.0)),
    "mixture": lambda a: mixture_slice(3, alpha=a),
    "cost-scaled": lambda a: scaled12_slice(1.5, alpha=a),
    "narrow": narrow_slice,
}


def _value_scaled(s: MarketSlice, lam: float) -> MarketSlice:
    return MarketSlice(c=s.c * lam, alpha=s.alpha,
                       f_l=ScaledFamily(s.f_l, lam), f_h=ScaledFamily(s.f_h, lam))


class TestKappaBracket:
    @pytest.mark.parametrize("alpha", [0.02, 0.5, 0.98])
    @pytest.mark.parametrize("family", sorted(BRACKET_FAMILIES))
    def test_ends_solve_their_equations_in_closed_form_brackets(self, family, alpha):
        """The chord-length interval is closed-form: k3 = alpha/(1-alpha) h + c
        runs from the support floor (h = 0 where the cost lies above it) to
        the gap maximizer. The fixed-point residual is nonnegative at the
        lower end and nonpositive at the upper one, and both ends scale with
        the values."""
        base = kappa_bracket(BRACKET_FAMILIES[family](alpha))
        for lam in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            s = _value_scaled(BRACKET_FAMILIES[family](alpha), lam)
            h_lo, h_hi = kappa_bracket(s)
            k3_lo, k3_hi = (alpha / (1 - alpha) * h + s.c for h in (h_lo, h_hi))
            assert k3_hi == pytest.approx(gap_profile(s).v_star, rel=1e-14)
            if s.support_lo <= s.c:
                assert h_lo == 0.0
            else:
                assert k3_lo == pytest.approx(s.support_lo, rel=1e-14)
            assert fixed_point_residual(s, h_lo) >= 0.0 >= fixed_point_residual(s, h_hi)
            assert np.asarray((h_lo, h_hi)) / lam == pytest.approx(np.asarray(base), rel=1e-13)

    def test_flat_gap_at_the_lower_end(self):
        """Above the narrow supports the gap vanishes, so a chord as long as
        the lower end starts on the support floor and ends above the support."""
        s = narrow_slice(alpha=0.3)
        h_lo, h_hi = kappa_bracket(s)
        assert h_lo == pytest.approx(0.35 / 0.3, rel=1e-14)
        assert h_hi == pytest.approx(0.7 / 0.3, rel=1e-14)
        assert solve_kappa(s).max_residual <= 1e-8

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_single_group_unsupported(self, alpha):
        s = MarketSlice(c=0.0, alpha=alpha, f_l=Exponential(1.0), f_h=Exponential(3.0))
        with pytest.raises(UnsupportedConfiguration):
            kappa_bracket(s)


class TestChordLengthNewton:
    @pytest.mark.parametrize("family", ["exponential", "mixture", "cost-scaled"])
    def test_cold_solve_evaluation_count(self, family, monkeypatch):
        """Newton in the chord length, each chord solve started from the last
        one: a cold solve evaluates at most 90 scalar cdf pairs (69-82 on
        these slices). Nested Brent solves in h and in the chord start
        evaluated 242-280."""
        s = BRACKET_FAMILIES[family](0.37)
        gap_profile(s)
        cls = type(s.f_l)
        assert type(s.f_h) is cls
        real = cls.cdf
        calls = []

        def counted(self, v):
            if isinstance(v, float):
                calls.append(v)
            return real(self, v)

        monkeypatch.setattr(cls, "cdf", counted)
        assert solve_kappa.__wrapped__(s).max_residual <= 1e-8
        assert len(calls) / 2 <= 90

    @pytest.mark.parametrize("alpha", [0.02, 0.37, 0.98])
    @pytest.mark.parametrize("family", sorted(BRACKET_FAMILIES))
    def test_cutoffs_scale_bit_exactly_by_powers_of_two(self, family, alpha):
        """Scaling every value and the cost by 2^k is exact in floating point,
        and the solve's stop rules are dimensionless, so each cutoff is the
        base cutoff times 2^k to the bit."""
        base = solve_kappa(BRACKET_FAMILIES[family](alpha)).as_tuple()
        for k in (-20, -10, 10):
            lam = 2.0 ** k
            scaled = solve_kappa(_value_scaled(BRACKET_FAMILIES[family](alpha), lam)).as_tuple()
            assert scaled == tuple(lam * x for x in base)


class TestSolveEta:
    def test_values_and_residuals(self, c2_slice):
        gp = gap_profile(c2_slice)
        eta = solve_eta(c2_slice)
        f_l, f_h = c2_slice.f_l, c2_slice.f_h
        assert abs(float(f_l.cdf(c2_slice.c)) - float(f_l.cdf(eta.eta_l)) - gp.tv) <= 1e-8
        assert abs(float(f_h.cdf(eta.eta_h)) - float(f_l.cdf(eta.eta_l))) <= 1e-8
        # the high threshold sits between the low one and cost (equal-quantile
        # image under first-order stochastic dominance)
        assert eta.eta_l <= eta.eta_h <= c2_slice.c

    def test_exact_numbers(self, c2_slice):
        eta = solve_eta(c2_slice)
        tv = gap_profile(c2_slice).tv
        want_l = -math.log(1 - ((1 - math.exp(-1)) - tv))
        assert eta.eta_l == pytest.approx(want_l, abs=1e-9)
        assert eta.eta_h == pytest.approx(-3 * math.log(1 - (1 - math.exp(-want_l))), abs=1e-6)

    def test_tie_pins_low_threshold_to_floor(self, exp13):
        gp = gap_profile(exp13)
        c_tie = float(exp13.f_l.quantile(gp.tv))
        s = MarketSlice(c=c_tie, alpha=0.5, f_l=exp13.f_l, f_h=exp13.f_h)
        eta = solve_eta(s)
        assert eta.eta_l <= 1e-6

    def test_wrong_region(self, exp13, c3_slice):
        with pytest.raises(WrongRegion):
            solve_eta(exp13)
        with pytest.raises(WrongRegion):
            solve_eta(c3_slice)


class TestSolveKappaTilde:
    def test_residuals_and_ordering(self, exp13):
        k = solve_kappa_tilde(exp13)
        gp = gap_profile(exp13)
        assert k.variant == "tilde"
        assert k.max_residual <= 1e-7
        assert k.k1 <= k.k2 <= k.k3 <= k.k4 < gp.v_star < k.k5

    def test_harmonic_ordering_facts(self, exp13):
        k = solve_kappa_tilde(exp13)
        assert k.k2 <= 3 * k.k1 + 1e-9
        assert 3 * k.k1 <= k.k3 + 1e-9
        assert k.k5 >= 3 * k.k2 - 1e-9

    def test_unsupported_configuration(self):
        with pytest.raises(UnsupportedConfiguration):
            solve_kappa_tilde(MarketSlice(c=0.5, alpha=0.5,
                                          f_l=Exponential(1.0), f_h=Exponential(3.0)))
        with pytest.raises(UnsupportedConfiguration):
            solve_kappa_tilde(MarketSlice(c=0.0, alpha=0.4,
                                          f_l=Exponential(1.0), f_h=Exponential(3.0)))

    # Cutoffs of exp(1) vs exp(m), c = 0, alpha = 1/2, as solved with an
    # adaptive quadrature inside the solve loop and plain bisection; the
    # fixed-rule solve with its relative band walk must reproduce them.
    PINNED = {
        2.0: (0.09047877058477537, 0.20989213869562937, 0.3874429077507191,
              0.5852117562706246, 2.743333514398069),
        3.0: (0.14495755287581896, 0.3615002498962009, 0.5522025503913518,
              0.7357804903364112, 3.200297539719584),
        4.0: (0.18674508939377624, 0.48138019721031244, 0.6780044372583633,
              0.854118834561288, 3.5619785815076437),
        5.0: (0.22112993368201975, 0.5812826763287584, 0.7814072864329888,
              0.9527221240467798, 3.8628117396814927),
    }

    @pytest.mark.parametrize("m", sorted(PINNED))
    def test_exponential_family_regression(self, m, monkeypatch):
        import fairprice.cutoffs as cutoffs

        calls = []
        real = cutoffs.adaptive_gauss_legendre

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(cutoffs, "adaptive_gauss_legendre", counting)
        solve_kappa_tilde.cache_clear()
        s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(m))
        k = solve_kappa_tilde(s)
        assert k.max_residual <= 1e-7
        assert k.k1 <= k.k2 <= k.k3 <= k.k4 < gap_profile(s).v_star < k.k5
        assert np.max(np.abs(np.asarray(k.as_tuple()) - self.PINNED[m])) <= 1e-8
        # only the residual certificate runs the adaptive quadrature
        assert len(calls) <= 2

    def test_outer_solve_needs_no_band_search(self, monkeypatch):
        """Newton in the chord length h on [0, cap - lo] and in each k3, every
        integral taken with its shift slope: over 61 m in [2, 5] and the
        pinned m below, each solve makes at most 10 band evaluations (4-6
        here) and 40 fixed-rule passes (18-28). Nested Brent solves made
        14-24 and 112-224; a walk up from v* to bracket the band made 36-41
        band evaluations."""
        import fairprice.cutoffs as cutoffs

        calls = {"band": 0, "rule": 0}
        real_band, real_rule = cutoffs._tilde_band, cutoffs.gauss_legendre

        def counting_band(*args):
            calls["band"] += 1
            return real_band(*args)

        def counting_rule(*args, **kwargs):
            calls["rule"] += 1
            return real_rule(*args, **kwargs)

        monkeypatch.setattr(cutoffs, "_tilde_band", counting_band)
        monkeypatch.setattr(cutoffs, "gauss_legendre", counting_rule)
        for m in [*np.linspace(2.0, 5.0, 61), 2.1213818192835876]:
            calls.update(band=0, rule=0)
            s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(float(m)))
            assert solve_kappa_tilde.__wrapped__(s).max_residual <= 1e-7
            assert calls["band"] <= 10 and calls["rule"] <= 40, (m, calls)

    def test_residual_integrals_use_the_value_row_alone(self):
        """The residual check integrates the value row without the shift
        slope row, with the bits of the value row of the two-row integrand,
        over the 61 m of the sweep above."""
        from fairprice.cutoffs import _tilde_integral, _tilde_integrand
        from fairprice.numerics import adaptive_gauss_legendre

        for m in np.linspace(2.0, 5.0, 61):
            s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(float(m)))
            k = solve_kappa_tilde(s)
            for top, a, b in ((k.k3, k.k2, k.k3), (k.k5, k.k4, k.k5)):
                shift = float(delta(s, top))
                rows = _tilde_integrand(s, shift)
                kink = float(s.f_l.quantile(min(max(shift, 0.0), 1.0)))
                want = adaptive_gauss_legendre(lambda z: rows(z)[0], a, b, split=kink)
                assert _tilde_integral(s, shift, a, b, adaptive=True) == want

    @pytest.mark.parametrize("m", [2.0, 3.0, 5.0])
    def test_closed_form_slopes_match_central_differences(self, m):
        """The Newton slopes against central differences of the same
        fixed-rule functions: each integral's shift-slope row, the middle
        equation's slope in k3 and the outer R'(h). A wrong slope would only
        slow the safeguarded Newton runs, so nothing else catches it."""
        from fairprice.cutoffs import _tilde_band, _tilde_integral, _tilde_middle

        def central(f, x):
            step = 1e-5 * x
            return (f(x + step) - f(x - step)) / (2.0 * step)

        s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(m))
        k1, k2, k3, k4, k5 = solve_kappa_tilde(s).as_tuple()
        v_star = gap_profile(s).v_star
        for shift, a, b in [(float(delta(s, k5)), k4, k5), (float(delta(s, k3)), k2, k3),
                            (float(delta(s, k3)), k2, v_star)]:
            want = central(lambda x: _tilde_integral(s, x, a, b)[0], shift)
            assert _tilde_integral(s, shift, a, b)[1] == pytest.approx(want, rel=1e-6)
        harmonic = k1 * k2 / (k1 + k2)
        for x in (k3, 0.5 * (k2 + v_star), 0.9 * v_star):
            want = central(lambda y: _tilde_middle(s, k2, harmonic, y)[0], x)
            assert _tilde_middle(s, k2, harmonic, x)[2] == pytest.approx(want, rel=1e-6)
        for h in ((k5 - k4), 0.99 * (k5 - k4), 1.01 * (k5 - k4)):
            band = _tilde_band(s, h)
            assert not isinstance(band, str)
            assert band[3] == pytest.approx(central(lambda x: _tilde_band(s, x)[1], h), rel=1e-6)

    @pytest.mark.parametrize("m", [2.0, 2.8, 4.1])
    def test_cutoffs_scale_bit_exactly_by_powers_of_two(self, m):
        """exp(lam) vs exp(m lam) for lam = 2^k: the solve's starts, rounding
        floors and stop rules are dimensionless, so each cutoff is the unit
        scale's cutoff times lam to the bit."""
        def cutoffs(lam):
            s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(lam), f_h=Exponential(m * lam))
            return solve_kappa_tilde(s).as_tuple()

        base = cutoffs(1.0)
        for k in (-20, -10, 10, 20):
            lam = 2.0 ** k
            assert cutoffs(lam) == tuple(lam * x for x in base)

    @pytest.mark.parametrize("m", [2.0, 2.1213818192835876, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0])
    def test_certificate_integral_is_tight(self, m):
        """The middle equation's residual is recomputed by the adaptive
        Gauss-Legendre rule, so it reports solver error, not quadrature error.
        At m = 2.12138..., a quadrature at 1e-10 reported 1.4e-7 and the
        solve failed."""
        s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(m))
        assert abs(solve_kappa_tilde(s).residuals[3]) <= 1e-15
