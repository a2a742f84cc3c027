import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fairprice import numerics
from fairprice.dist import (
    Exponential,
    ExponentialMixture,
    Market,
    MarketSlice,
    PiecewiseLinearCdf,
    ScaledFamily,
    _cap,
    _check_likelihood_ratio_order,
    _gap_table,
    _pair_gap_profile,
    delta,
    delta_inverse,
    gap_profile,
)
from fairprice.errors import DegenerateSlice, OutOfRange, ValidationError
from fairprice.numerics import EPS, invert_monotone
from fairprice.pricing import build_p_star
from fairprice.welfare import welfare_report

V_STAR_13 = 1.5 * math.log(3.0)
TV_13 = 2.0 / (3.0 * math.sqrt(3.0))


def all_families():
    return [
        Exponential(1.0),
        Exponential(3.0),
        ExponentialMixture(weights=(0.3, 0.7), means=(1.0, 4.0)),
        ScaledFamily(Exponential(2.0), 1.7),
        PiecewiseLinearCdf(knots=((1.0, 0.0), (1.5, 0.25), (2.0, 1.0))),
    ]


class TestDelta:
    def test_zero_at_support_floor(self, exp13):
        assert delta(exp13, 0.0) == 0.0

    def test_closed_form_at_one(self, exp13):
        assert delta(exp13, 1.0) == pytest.approx(math.exp(-1 / 3) - math.exp(-1), abs=1e-12)

    def test_value_at_maximizer(self, exp13):
        gp = gap_profile(exp13)
        assert delta(exp13, gp.v_star) == pytest.approx(TV_13, abs=1e-12)

    def test_bounded_on_grid(self, exp13):
        vals = np.asarray(delta(exp13, np.linspace(exp13.support_lo, exp13.cap(), 10_001)))
        assert np.all(vals >= -1e-12) and np.all(vals <= 1.0)


class TestGapProfile:
    def test_exponential_pair(self, exp13):
        gp = gap_profile(exp13)
        assert gp.v_star == pytest.approx(V_STAR_13, abs=1e-9)
        assert gp.tv == pytest.approx(TV_13, abs=1e-12)

    def test_wide_ratio_total_variation(self, exp112):
        # gamma = 12: tv = (gamma - 1) * gamma^(-gamma/(gamma-1))
        assert gap_profile(exp112).tv == pytest.approx(11.0 * 12.0 ** (-12.0 / 11.0), abs=1e-9)

    def test_identical_distributions_degenerate(self):
        s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(1.0))
        with pytest.raises(DegenerateSlice):
            gap_profile(s)

    def test_tv_matches_grid_supremum(self, exp13):
        grid_sup = float(np.max(delta(exp13, np.linspace(exp13.support_lo, exp13.cap(), 10_001))))
        assert abs(gap_profile(exp13).tv - grid_sup) <= 1e-6

    def test_quasiconcave_on_grid(self, exp13):
        vals = np.asarray(delta(exp13, np.linspace(exp13.support_lo, exp13.cap(), 2001)))
        rng = np.random.default_rng(3)
        idx = np.sort(rng.choice(len(vals), size=(500, 3), replace=True), axis=1)
        i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
        assert np.all(vals[j] >= np.minimum(vals[i], vals[k]) - 1e-10)


def test_gap_work_is_shared_across_an_alpha_and_cost_sweep():
    """The gap depends on the value pair alone: over 9 alphas and two costs
    of one pair, every slice gets the same profile, and each branch table
    of the pair is built once (misses read from the lru_cache counters)."""
    f_l, f_h = Exponential(0.83), Exponential(2.9)
    _gap_table.cache_clear()
    _pair_gap_profile.cache_clear()
    profiles = []
    for c in (0.0, 0.1):
        for alpha in np.linspace(0.1, 0.9, 9):
            s = MarketSlice(c=c, alpha=float(alpha), f_l=f_l, f_h=f_h)
            profiles.append(gap_profile(s))
            welfare_report(build_p_star(s), s)
            for branch in ("lower", "upper"):
                delta_inverse(s, 0.5 * profiles[-1].tv, branch)
    assert all(gp == profiles[0] for gp in profiles)
    assert _pair_gap_profile.cache_info().misses == 1
    assert _gap_table.cache_info().misses == 2


def test_working_cap_is_solved_once_per_distribution(monkeypatch):
    """cap() is memoised per distribution: repeated MarketSlice.cap() calls
    on a mixture pair solve each group's tail quantile once."""
    f_l = ExponentialMixture(weights=(0.7, 0.3), means=(0.9, 3.1))
    f_h = ExponentialMixture(weights=(0.2, 0.8), means=(0.9, 3.1))
    expected = max(float(f_l.quantile(1.0 - 1e-10)), float(f_h.quantile(1.0 - 1e-10)))
    _cap.cache_clear()
    calls = []
    quantile = ExponentialMixture.quantile
    monkeypatch.setattr(ExponentialMixture, "quantile",
                        lambda self, q: calls.append(q) or quantile(self, q))
    caps = [MarketSlice(c=0.0, alpha=float(a), f_l=f_l, f_h=f_h).cap()
            for a in np.linspace(0.1, 0.9, 9)]
    assert len(calls) == 2
    assert caps == [expected] * 9


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_gap_maximizer_is_found_to_adjacent_floats(scale):
    """The gap (exp(-v/scale) - exp(-2v/scale)) / 2 peaks at v* = scale * ln 2
    with tv = 1/8. An absolute 1e-12 stop left v* 3.6e-7 low (relative) at
    scale 1e-6, and tv low by 8e-15."""
    means = (0.5 * scale, scale)
    s = MarketSlice(c=0.0, alpha=0.5, f_l=ExponentialMixture(weights=(0.75, 0.25), means=means),
                    f_h=ExponentialMixture(weights=(0.25, 0.75), means=means))
    gp = gap_profile(s)
    assert gp.v_star == pytest.approx(math.log(2.0) * scale, rel=1e-13)
    assert gp.tv == pytest.approx(0.125, abs=1e-15)


def test_near_identical_gap_maximizer_is_not_rounding_noise():
    """For exp(1) vs exp(1 + 1e-11) the gap varies by less than its rounding
    over the grid cells around v*, so a grid argmax of the gap lands on
    noise (it bracketed v* in [0.99472, 0.99932]); the sign change of the
    slope f_l - f_h still sits at the analytic maximizer
    m_l m_h ln(m_h / m_l) / (m_h - m_l)."""
    m_l, m_h = 1.0, 1.0 + 1e-11
    s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(m_l), f_h=Exponential(m_h))
    v_star = m_l * m_h * math.log(m_h / m_l) / (m_h - m_l)
    assert abs(gap_profile(s).v_star - v_star) <= 1e-5


def _piecewise_pair(knots_l, knots_h):
    return MarketSlice(c=0.0, alpha=0.5, f_l=PiecewiseLinearCdf(knots=knots_l),
                       f_h=PiecewiseLinearCdf(knots=knots_h))


def test_gap_maximizer_at_a_density_jump():
    """The densities jump across each other at the knot v = 1 (0.6 -> 0.4
    against 0.3 -> 0.7), so the gap's slope changes sign by a jump there:
    the sign bisection lands within 2 ulps of the knot, and tv = 0.6 - 0.3."""
    s = _piecewise_pair(((0.0, 0.0), (1.0, 0.6), (2.0, 1.0)), ((0.0, 0.0), (1.0, 0.3), (2.0, 1.0)))
    gp = gap_profile(s)
    assert abs(gp.v_star - 1.0) <= 2.0 * EPS
    assert gp.tv == pytest.approx(0.3, abs=2.0 * EPS)


def test_flat_topped_gap_settles_on_its_top():
    """The densities agree on [0.5, 1], so the gap is flat at 0.25 there and
    its slope has no sign change: the bisection clamps onto the flat top."""
    s = _piecewise_pair(((0.0, 0.0), (0.5, 0.5), (1.0, 0.75), (2.0, 1.0)),
                        ((0.0, 0.0), (0.5, 0.25), (1.0, 0.5), (2.0, 1.0)))
    gp = gap_profile(s)
    assert 0.5 <= gp.v_star <= 1.0
    assert gp.tv == 0.25


class TestDeltaInverse:
    def test_at_total_variation_both_branches(self, exp13):
        gp = gap_profile(exp13)
        assert delta_inverse(exp13, gp.tv, "lower") == pytest.approx(gp.v_star, abs=1e-6)
        assert delta_inverse(exp13, gp.tv, "upper") == pytest.approx(gp.v_star, abs=1e-6)

    def test_zero_lower_is_support_floor(self, exp13):
        assert delta_inverse(exp13, 0.0, "lower") == pytest.approx(0.0, abs=1e-9)

    def test_roundtrip_both_branches(self, exp13):
        gp = gap_profile(exp13)
        lo = delta_inverse(exp13, 0.2, "lower")
        hi = delta_inverse(exp13, 0.2, "upper")
        assert lo < gp.v_star < hi
        assert delta(exp13, lo) == pytest.approx(0.2, abs=1e-10)
        assert delta(exp13, hi) == pytest.approx(0.2, abs=1e-10)

    def test_rejects_levels_above_tv(self, exp13):
        with pytest.raises(OutOfRange):
            delta_inverse(exp13, gap_profile(exp13).tv + 1e-6, "lower")

    def test_rejects_unknown_branch(self, exp13):
        with pytest.raises(ValidationError):
            delta_inverse(exp13, 0.1, "middle")


class TestDistributionContracts:
    @pytest.mark.parametrize("dist", all_families(), ids=lambda d: type(d).__name__)
    def test_quantile_cdf_roundtrip(self, dist):
        rng = np.random.default_rng(11)
        q = rng.uniform(1e-6, 1 - 1e-6, size=1000)
        assert np.max(np.abs(np.asarray(dist.cdf(dist.quantile(q))) - q)) <= 1e-9

    @pytest.mark.parametrize("dist", all_families(), ids=lambda d: type(d).__name__)
    def test_cdf_quantile_roundtrip_on_values(self, dist):
        # stay where the survival is representable: beyond survival ~ 1e-8 the
        # cdf itself destroys the information a double can carry
        lo = dist.support_lo
        hi = float(dist.quantile(1.0 - 1e-6))
        v = np.linspace(lo + 1e-4 * (hi - lo), hi, 257)
        back = np.asarray(dist.quantile(dist.cdf(v)))
        assert np.max(np.abs(back - v) / np.maximum(np.abs(v), 1e-12)) <= 1e-9

    @pytest.mark.parametrize("dist", all_families(), ids=lambda d: type(d).__name__)
    def test_cdf_monotone_and_normalized(self, dist):
        v = np.linspace(dist.support_lo, dist.cap(), 2001)
        cdf = np.asarray(dist.cdf(v))
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] <= 1e-12 and cdf[-1] >= 1.0 - 1e-9

    def test_pdf_integrates_to_one_on_finite_support(self):
        dist = PiecewiseLinearCdf(knots=((1.0, 0.0), (1.5, 0.25), (2.0, 1.0)))
        total = quad(lambda v: float(dist.pdf(v)), 1.0, 2.0, points=[1.5])[0]
        assert total == pytest.approx(float(dist.cdf(2.0)) - float(dist.cdf(1.0)), abs=1e-12)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_partial_mean_matches_quadrature(self):
        dist = ExponentialMixture(weights=(0.4, 0.6), means=(0.8, 3.5))
        got = dist.partial_mean(0.5, 4.0)
        # int_a^b v e^{-v/m} / m dv = (a + m) e^{-a/m} - (b + m) e^{-b/m}
        want = sum(w * ((0.5 + m) * math.exp(-0.5 / m) - (4.0 + m) * math.exp(-4.0 / m))
                   for w, m in zip(dist.weights, dist.means))
        assert got == pytest.approx(want, rel=1e-14)
        integral = quad(lambda v: v * float(dist.pdf(v)), 0.5, 4.0, epsabs=0.0, epsrel=1e-13)[0]
        assert integral == pytest.approx(want, abs=1e-12)

    def test_gains_above_closed_form(self):
        m, c = 2.5, 0.7
        assert Exponential(m).gains_above(c) == pytest.approx(m * math.exp(-c / m), rel=1e-12)


MIX3_L = ExponentialMixture(weights=(0.5, 0.3, 0.2), means=(0.5, 2.0, 6.0))
MIX3_H = ExponentialMixture(weights=(0.1, 0.3, 0.6), means=(0.5, 2.0, 6.0))
MIX2_L = ExponentialMixture(weights=(0.7, 0.3), means=(1.0, 4.0))
MIX2_H = ExponentialMixture(weights=(0.2, 0.8), means=(1.0, 4.0))


def _bits(x):
    return np.float64(x).tobytes()


def _scalar_points(dist):
    """The edge cases plus 64 interior points, where an ulp-level change of
    rounding path (math.expm1 for np.expm1, say) would show."""
    return [-1.0, 0.0, -0.0, dist.support_lo, dist.support_hi, dist.cap(), 1e300, math.inf,
            math.nan, np.float64(1.25)] + np.linspace(0.0, dist.cap(), 66)[1:-1].tolist()


def _assert_scalar_path_matches_array(fn, points):
    """fn of each float is a float with the bits of its element of fn(array)."""
    batch = fn(np.array(points, dtype=float))
    for x, want in zip(points, batch):
        got = fn(x)
        assert type(got) is float, (x, type(got))
        assert _bits(got) == _bits(want), (x, got, want)


@pytest.mark.parametrize("dist", all_families() + [MIX3_L, ScaledFamily(MIX2_L, 2.5)],
                         ids=lambda d: type(d).__name__)
def test_scalar_cdf_and_pdf_give_the_array_bits(dist):
    """A float takes the scalar path: same bits, NaN and signed zeros included."""
    for fn in (dist.cdf, dist.pdf):
        _assert_scalar_path_matches_array(fn, _scalar_points(dist))


SCALAR_PAIRS = pytest.mark.parametrize("f_l, f_h", [
    (Exponential(1.0), Exponential(3.0)),
    (MIX2_L, MIX2_H),
    (MIX3_L, MIX3_H),
    (ScaledFamily(Exponential(1.0), 1.7), ScaledFamily(Exponential(3.0), 1.7)),
    (ScaledFamily(MIX2_L, 2.5), ScaledFamily(MIX2_H, 2.5)),
    (PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.6), (2.0, 1.0))),
     PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.3), (2.0, 1.0)))),
], ids=["exp", "mixture", "mixture3", "scaled", "scaled-mixture", "piecewise"])


@SCALAR_PAIRS
def test_scalar_gap_gives_the_array_bits(f_l, f_h):
    s = MarketSlice(c=0.0, alpha=0.5, f_l=f_l, f_h=f_h)
    points = _scalar_points(f_l) + [s.cap(), gap_profile(s).v_star]
    _assert_scalar_path_matches_array(lambda v: delta(s, v), points)


@SCALAR_PAIRS
@pytest.mark.parametrize("branch", ["lower", "upper"])
def test_scalar_delta_inverse_gives_the_array_bits(f_l, f_h, branch):
    """A float level takes the table lookup of an array level and then
    Newton on floats: the bits of its element of an array call, at the
    table's own levels, both clips and a level below the upper table's outer
    end (clamped there)."""
    s = MarketSlice(c=0.0, alpha=0.5, f_l=f_l, f_h=f_h)
    tv = gap_profile(s).tv
    levels = _gap_table(f_l, f_h, branch)[1].tolist()
    upper_end = float(_gap_table(f_l, f_h, "upper")[1][0])
    points = ([0.0, -0.0, 1e-300] + levels + np.linspace(0.0, tv, 66)[1:-1].tolist()
              + [tv, tv + 5e-13, 0.5 * upper_end])
    _assert_scalar_path_matches_array(lambda q: delta_inverse(s, q, branch), points)


QUANTILE_FAMILIES = [Exponential(3.0), MIX2_L, MIX3_L, ScaledFamily(Exponential(2.0), 1.7),
                     ScaledFamily(MIX2_L, 2.5)]


@pytest.mark.parametrize("dist", QUANTILE_FAMILIES, ids=lambda d: type(d).__name__)
def test_scalar_quantile_gives_the_array_bits(dist):
    levels = [0.0, -0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0, 2.0, math.nan]
    with np.errstate(invalid="ignore"):  # an exponential's log1p(-q) is NaN for q > 1
        _assert_scalar_path_matches_array(dist.quantile, levels + np.linspace(0.0, 1.0, 66)[1:-1].tolist())


@pytest.mark.parametrize("dist", all_families() + [MIX3_L, ScaledFamily(MIX2_L, 2.5)],
                         ids=lambda d: type(d).__name__)
def test_scalar_partial_mean_and_gains_give_the_array_bits(dist):
    points = _scalar_points(dist)
    for a in (0.5, -math.inf):
        _assert_scalar_path_matches_array(lambda b: dist.partial_mean(a, b), points)
    _assert_scalar_path_matches_array(lambda a: dist.partial_mean(a, math.inf), points)
    # gains_above takes no array; its formula on arrays gives the bits to match
    cs = np.array([max(x, 0.0) for x in points])
    with np.errstate(invalid="ignore"):  # inf * 0 at c = inf
        want = (np.asarray(dist.partial_mean(cs, np.full(len(cs), math.inf)))
                - cs * (1.0 - np.asarray(dist.cdf(cs))))
    for x, w in zip(points, want):
        got = dist.gains_above(x)
        assert type(got) is float and _bits(got) == _bits(w), (x, got, w)


class TestScaledFamily:
    def test_cdf_is_base_at_rescaled_argument(self):
        base = Exponential(3.0)
        scaled = ScaledFamily(base, 2.0)
        v = np.linspace(0.0, 20.0, 101)
        assert np.allclose(scaled.cdf(v), base.cdf(v / 2.0), atol=0.0)

    def test_total_variation_is_scale_invariant(self):
        tvs = []
        for c in (0.5, 1.0, 2.0, 5.0):
            s = MarketSlice(c=0.0, alpha=0.5,
                            f_l=ScaledFamily(Exponential(1.0), c),
                            f_h=ScaledFamily(Exponential(3.0), c))
            tvs.append(gap_profile(s).tv)
        assert np.ptp(tvs) <= 1e-10


class TestValidation:
    def test_likelihood_ratio_violation(self):
        with pytest.raises(ValidationError):
            MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(3.0), f_h=Exponential(1.0))

    def test_likelihood_ratio_check_is_cached_per_pair(self):
        """A valid pair is checked once for every slice that shares it; an
        invalid one raises on every build, as lru_cache keeps no exception."""
        f_l, f_h = Exponential(1.125), Exponential(3.375)
        MarketSlice(c=0.0, alpha=0.5, f_l=f_l, f_h=f_h)
        hits = _check_likelihood_ratio_order.cache_info().hits
        MarketSlice(c=0.5, alpha=0.25, f_l=f_l, f_h=f_h)
        assert _check_likelihood_ratio_order.cache_info().hits == hits + 1
        for _ in range(2):
            with pytest.raises(ValidationError, match="likelihood-ratio"):
                MarketSlice(c=0.0, alpha=0.5, f_l=f_h, f_h=f_l)

    def test_support_mismatch(self):
        with pytest.raises(ValidationError):
            MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0),
                        f_h=PiecewiseLinearCdf(knots=((1.0, 0.0), (2.0, 1.0))))

    def test_alpha_range(self):
        with pytest.raises(ValidationError):
            MarketSlice(c=0.0, alpha=1.5, f_l=Exponential(1.0), f_h=Exponential(3.0))

    @pytest.mark.parametrize("c, alpha", [(math.nan, 0.5), (math.inf, 0.5),
                                          (0.0, math.nan), (0.0, math.inf)])
    def test_non_finite_cost_or_share(self, c, alpha):
        with pytest.raises(ValidationError):
            MarketSlice(c=c, alpha=alpha, f_l=Exponential(1.0), f_h=Exponential(3.0))

    def test_market_weights_must_be_finite(self, exp13):
        with pytest.raises(ValidationError):
            Market(slices=((exp13, math.nan),))

    def test_market_weights_must_sum_to_one(self, exp13):
        with pytest.raises(ValidationError):
            Market(slices=((exp13, 0.5),))

    def test_market_must_be_nonempty(self):
        with pytest.raises(ValidationError):
            Market(slices=())

    def test_mixture_weights_validated(self):
        with pytest.raises(ValidationError):
            ExponentialMixture(weights=(0.5, 0.6), means=(1.0, 2.0))

    @pytest.mark.parametrize("weights, means", [
        ((math.nan, 1.0), (1.0, 2.0)),
        ((0.5, 0.5), (1.0, math.inf)),
        ((0.5, 0.5), (math.nan, 2.0)),
        ((math.inf, -math.inf), (1.0, 2.0)),
    ], ids=["weight-nan", "mean-inf", "mean-nan", "weights-inf"])
    def test_mixture_parameters_must_be_finite(self, weights, means):
        with pytest.raises(ValidationError, match="finite"):
            ExponentialMixture(weights=weights, means=means)

    @pytest.mark.parametrize("knots", [
        ((0.0, 0.0), (math.nan, 0.8), (2.0, 1.0)),
        ((0.0, 0.0), (1.0, math.nan), (2.0, 1.0)),
        ((0.0, 0.0), (1.0, 0.5), (math.inf, 1.0)),
    ], ids=["value-nan", "probability-nan", "value-inf"])
    def test_piecewise_knots_must_be_finite(self, knots):
        with pytest.raises(ValidationError, match="finite"):
            PiecewiseLinearCdf(knots=knots)

    def test_piecewise_needs_full_support(self):
        with pytest.raises(ValidationError):
            PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.5), (2.0, 0.5), (3.0, 1.0)))


@given(mean_l=st.floats(0.3, 3.0), ratio=st.floats(1.3, 9.0), q=st.floats(1e-6, 1 - 1e-6))
@settings(deadline=None, max_examples=60)
def test_mixture_roundtrip_property(mean_l, ratio, q):
    dist = ExponentialMixture(weights=(0.5, 0.5), means=(mean_l, mean_l * ratio))
    assert float(dist.cdf(dist.quantile(q))) == pytest.approx(q, abs=1e-9)


@given(mean_l=st.floats(0.3, 2.0), ratio=st.floats(1.5, 8.0), level=st.floats(0.0, 1.0))
@settings(deadline=None, max_examples=40)
def test_delta_inverse_roundtrip_property(mean_l, ratio, level):
    s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(mean_l), f_h=Exponential(mean_l * ratio))
    gp = gap_profile(s)
    q = level * gp.tv
    for branch in ("lower", "upper"):
        root = delta_inverse(s, q, branch)
        assert type(root) is float
        assert float(delta(s, root)) == pytest.approx(q, abs=1e-10)


def _bisection_inverse(s, q, branch):
    """delta_inverse's contract by derivative-free bisection, run to adjacent floats."""
    gp = gap_profile(s)
    if branch == "lower":
        lo, hi = s.support_lo, gp.v_star
    else:
        lo = gp.v_star
        hi = s.support_hi if math.isfinite(s.support_hi) else max(
            float(s.f_l.quantile(1.0 - 1e-13)), float(s.f_h.quantile(1.0 - 1e-13)))
    with pytest.MonkeyPatch.context() as mp:  # subnormal roots take over 1,000 halvings
        mp.setattr(numerics, "MAX_ITER", 2000)
        return np.array([invert_monotone(lambda v: delta(s, v), level, lo, hi,
                                         increasing=branch == "lower")
                         for level in np.clip(q, 0.0, gp.tv).tolist()])


@st.composite
def gap_slices(draw):
    kind = draw(st.sampled_from(["exp", "mix", "scaled", "piecewise"]))
    if kind == "piecewise":
        f_l = PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.6), (2.0, 0.9), (3.0, 1.0)))
        f_h = PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.2), (2.0, 0.5), (3.0, 1.0)))
        return MarketSlice(c=0.0, alpha=0.5, f_l=f_l, f_h=f_h)
    mean, ratio = draw(st.floats(0.3, 3.0)), draw(st.floats(1.05, 12.0))
    if kind == "exp":
        f_l, f_h = Exponential(mean), Exponential(mean * ratio)
    else:
        w_l, w_h = draw(st.floats(0.55, 0.9)), draw(st.floats(0.05, 0.35))
        f_l = ExponentialMixture(weights=(w_l, 1.0 - w_l), means=(mean, mean * ratio))
        f_h = ExponentialMixture(weights=(w_h, 1.0 - w_h), means=(mean, mean * ratio))
    if kind == "scaled":
        scale = 10.0 ** draw(st.floats(-6.0, 6.0))
        f_l, f_h = ScaledFamily(f_l, scale), ScaledFamily(f_h, scale)
    return MarketSlice(c=0.0, alpha=0.5, f_l=f_l, f_h=f_h)


@given(s=gap_slices(), fractions=st.lists(st.floats(0.0, 1.0), max_size=12))
@settings(deadline=None, max_examples=80)
def test_delta_inverse_matches_bisection_property(s, fractions):
    tv = gap_profile(s).tv
    q = np.array(sorted({0.0, tv, tv * (1.0 - 1e-12)} | {f * tv for f in fractions}))
    for branch in ("lower", "upper"):
        x = delta_inverse(s, q, branch)
        assert [delta_inverse(s, float(v), branch) for v in q] == x.tolist()
        assert np.all(np.abs(delta(s, x) - q) <= 1e-10)
        ref = _bisection_inverse(s, q, branch)
        # within 1e-12 relative (subnormal roots: one smallest normal float),
        # or both are roots at rounding level: the gap stays within a few
        # ulps of its cdfs of q between them (ill-conditioned, as near v*)
        close = np.abs(x - ref) <= 1e-12 * np.abs(ref) + np.finfo(float).tiny
        between = np.linspace(x, ref, 9)
        floor = 32.0 * EPS * np.maximum(s.f_l.cdf(between), s.f_h.cdf(between))
        flat = np.all(np.abs(delta(s, between) - q) <= floor, axis=0)
        assert np.all(close | flat)


@pytest.mark.parametrize("s", [
    MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(3.0)),
    MarketSlice(c=0.0, alpha=0.5, f_l=ExponentialMixture(weights=(0.5, 0.5), means=(1.0, 2.0)),
                f_h=ExponentialMixture(weights=(0.5, 0.5), means=(2.0, 5.0))),
], ids=["exp13", "mix"])
@pytest.mark.parametrize("branch", ["lower", "upper"])
def test_delta_inverse_evaluates_the_gap_a_few_times(s, branch, monkeypatch):
    # the table start plus Newton needs 3-7 evaluations; bisection needs ~50
    q = np.linspace(0.0, gap_profile(s).tv, 1000)
    delta_inverse(s, q[1], branch)  # build the cached gap profile and table
    calls = []
    cdf = type(s.f_l).cdf

    def counted(self, v):
        if self is s.f_l:
            calls.append(v)
        return cdf(self, v)

    monkeypatch.setattr(type(s.f_l), "cdf", counted)
    delta_inverse(s, q, branch)
    assert 1 <= len(calls) <= 8
    calls.clear()
    delta_inverse(s, float(q[617]), branch)  # a float level
    assert 1 <= len(calls) <= 8


@pytest.mark.parametrize("s", [
    MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(3.0)),
    MarketSlice(c=0.0, alpha=0.5, f_l=MIX2_L, f_h=MIX2_H),
], ids=["exp13", "mix"])
def test_float_level_skips_the_array_newton(s, monkeypatch):
    """A float level runs Newton on floats; only an array level reaches the
    vector Newton."""
    import fairprice.numerics as numerics

    def array_newton(*args):
        raise AssertionError("a float level reached the array Newton")

    monkeypatch.setattr(numerics, "_safeguarded_newton", array_newton)
    tv = gap_profile(s).tv
    for branch in ("lower", "upper"):
        for q in (0.0, 0.3 * tv, tv):
            x = delta_inverse(s, q, branch)
            assert type(x) is float
            assert abs(delta(s, x) - q) <= 1e-10
    with pytest.raises(AssertionError, match="array Newton"):
        delta_inverse(s, np.array([0.3 * tv]), "lower")


ONE_PASS_PAIRS = [
    (Exponential(1.0), Exponential(3.0)),
    (MIX2_L, MIX2_H),
    (ScaledFamily(Exponential(1.0), 1.7), ScaledFamily(Exponential(3.0), 1.7)),
    (PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.6), (2.0, 1.0))),
     PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.3), (2.0, 1.0)))),
]
ONE_PASS_IDS = ["exp", "mixture", "scaled", "piecewise"]


@pytest.mark.parametrize("f_l, f_h", ONE_PASS_PAIRS, ids=ONE_PASS_IDS)
def test_gap_profile_bisects_on_floats_in_the_scan_cell(f_l, f_h, monkeypatch):
    """v* is bisected on floats inside the cell of the likelihood-ratio
    scan, so a cold profile makes one grid pass per pair: no cdf is
    evaluated on an array of 1,000 points or more."""
    sizes = []
    for cls in (Exponential, ExponentialMixture, ScaledFamily, PiecewiseLinearCdf):
        monkeypatch.setattr(cls, "cdf", lambda self, v, cdf=cls.cdf: sizes.append(np.size(v)) or cdf(self, v))
    _check_likelihood_ratio_order.cache_clear()
    _pair_gap_profile.cache_clear()
    gp = _pair_gap_profile(f_l, f_h)
    assert sizes and max(sizes) < 1000
    monkeypatch.undo()
    assert type(gp.v_star) is float and type(gp.tv) is float
    grid = np.linspace(f_l.support_lo, max(f_l.cap(), f_h.cap()), 1001)
    assert gp.tv >= float(np.max(f_l.cdf(grid) - f_h.cdf(grid))) - 1e-15


def _scan_grid(f_l, f_h):
    return np.linspace(f_l.support_lo, max(f_l.cap(), f_h.cap()), 10_001)


@pytest.mark.parametrize("f_l, f_h", ONE_PASS_PAIRS, ids=ONE_PASS_IDS)
def test_scan_cell_is_the_grid_cell_where_f_h_reaches_f_l(f_l, f_h):
    """The cell is two adjacent grid nodes: f_h < f_l at its interior left
    end, f_h >= f_l at its interior right end, and v* lies inside it."""
    grid = _scan_grid(f_l, f_h)
    lo, hi = _check_likelihood_ratio_order(f_l, f_h)
    j = int(np.searchsorted(grid, lo))
    assert (grid[j], grid[j + 1]) == (lo, hi)
    if j > 0:
        assert f_h.pdf(lo) < f_l.pdf(lo)
    if j + 1 < grid.size - 1:
        assert f_h.pdf(hi) >= f_l.pdf(hi)
    assert lo <= _pair_gap_profile(f_l, f_h).v_star <= hi


def test_scan_cell_is_the_last_when_no_interior_node_crosses():
    """f_h outweighs f_l only past the last interior node: the cell is the
    last one, and v* is the knot where f_h's density jumps up."""
    f_l = PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 1.0)))
    f_h = PiecewiseLinearCdf(knots=((0.0, 0.0), (0.99995, 0.5), (1.0, 1.0)))
    grid = _scan_grid(f_l, f_h)
    assert _check_likelihood_ratio_order(f_l, f_h) == (grid[-2], grid[-1])
    gp = _pair_gap_profile(f_l, f_h)
    assert gp.v_star == pytest.approx(0.99995, abs=1e-12)
    assert gp.tv == pytest.approx(0.99995 - 0.5, abs=1e-12)


def test_identical_pair_scan_cell_is_the_first():
    """f_h >= f_l already at the first interior node, so the cell is the
    first one; the gap at v* is 0 there and the profile is degenerate."""
    f = Exponential(1.0)
    grid = _scan_grid(f, f)
    assert _check_likelihood_ratio_order(f, f) == (grid[0], grid[1])
    with pytest.raises(DegenerateSlice):
        _pair_gap_profile(f, f)


class TestMixtureNewtonQuantile:
    EPS = float(np.finfo(float).eps)

    def test_rounding_floor_stops_oscillating_steps(self):
        # near the root the steps alternate in sign by a few ulps of x
        dist = ExponentialMixture(weights=(0.0853, 0.9147), means=(63.45, 411.63))
        q = 0.10586
        x = dist.quantile(q)
        assert abs(float(dist.cdf(x)) - q) <= 8 * self.EPS * q
        assert dist.quantile(np.array([q, 0.5])).tolist()[0] == x

    def test_small_level_keeps_relative_accuracy(self):
        # log-sum-exp alone loses eps*|log w| absolute and stalls here
        dist = ExponentialMixture(weights=(0.855, 0.145), means=(1.29, 11.12))
        q = 1.6e-14
        assert abs(float(dist.cdf(dist.quantile(q))) - q) <= 8 * self.EPS * q

    def test_edge_levels(self):
        dist = ExponentialMixture(weights=(0.3, 0.7), means=(1.0, 4.0))
        assert dist.quantile(0.0) == 0.0
        assert dist.quantile(-0.5) == 0.0
        top = dist.quantile(1.0 - 1e-16)
        assert math.isfinite(top)
        assert dist.quantile(1.0) == top
        assert dist.quantile(2.0) == top
        assert math.isnan(dist.quantile(math.nan))


@st.composite
def mixtures(draw):
    n = draw(st.integers(2, 3))
    raw = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    log_means = np.asarray(draw(st.lists(st.floats(-2.0, 4.0), min_size=n, max_size=n)))
    return ExponentialMixture(weights=tuple(raw / raw.sum()), means=tuple(10.0 ** log_means))


EDGE_LEVELS = (0.0, 1e-300, 1e-16, 1.0 - 1e-16, 1.0)


@given(dist=mixtures(), levels=st.lists(st.floats(0.0, 1.0), max_size=24))
@settings(deadline=None, max_examples=100)
def test_mixture_quantile_property(dist, levels):
    eps = float(np.finfo(float).eps)
    q = np.array(sorted(set(levels) | set(EDGE_LEVELS)))
    x = dist.quantile(q)
    assert np.all(np.isfinite(x))
    assert np.all(np.diff(x) >= 0.0)
    assert [dist.quantile(float(v)) for v in q] == x.tolist()
    # relative accuracy in F needs q and x to be normal floats
    tiny = np.finfo(float).tiny
    low = (q >= tiny) & (x >= tiny) & (q < 0.5)
    assert np.all(np.abs(np.asarray(dist.cdf(x[low])) - q[low]) <= 8 * eps * q[low])
    high = (q >= 0.5) & (q < 1.0)
    surv = sum(w * np.exp(-x[high] / m) for w, m in zip(dist.weights, dist.means))
    assert np.all(np.abs(surv - (1.0 - q[high])) <= 1e-13 * (1.0 - q[high]))
