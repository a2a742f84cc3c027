import math

import numpy as np
import pytest
from scipy.integrate import quad

import fairprice.numerics as numerics
from fairprice.cutoffs import _tilde_band, _tilde_integrand
from fairprice.dist import Exponential, MarketSlice, delta, gap_profile
from fairprice.errors import NoConvergence
from fairprice.numerics import (
    EPS,
    MAX_INTERVALS,
    MAX_ITER,
    adaptive_gauss_legendre,
    bisect,
    gauss_legendre,
    invert_monotone,
)


class TestBrentBisect:
    def test_exact_endpoint_roots_are_returned(self):
        assert bisect(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert bisect(lambda x: x - 3.0, 1.0, 3.0) == 3.0

    def test_same_sign_bracket_raises(self):
        with pytest.raises(NoConvergence):
            bisect(lambda x: x * x + 1.0, -1.0, 2.0)

    @pytest.mark.parametrize("f, root", [
        (lambda x: math.exp(x) - 2.0, math.log(2.0)),
        (lambda x: (x - 0.3) ** 9, 0.3),
        (lambda x: 1.0 if x < 0.3 else -1.0, 0.3),
    ], ids=["smooth", "flat-x9", "sign-step"])
    def test_lands_within_xtol(self, f, root):
        """The stop tolerance on x is a few ulps of the root."""
        assert abs(bisect(f, -1.0, 2.0) - root) <= 8.0 * EPS * abs(root)

    def test_decreasing_function(self):
        assert bisect(lambda x: 2.0 - x ** 3, 0.0, 5.0) == pytest.approx(2.0 ** (1 / 3), abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-6, 1e-4])
    def test_tolerance_is_relative_below_unit_scale(self, scale):
        # an absolute 1e-12 stop left 1.9e-10 relative error here
        root = scale * math.log(2.0)
        assert bisect(lambda x: math.expm1(x / scale) - 1.0, 0.0, 10.0 * scale) == \
            pytest.approx(root, rel=1e-12, abs=0.0)


def _invert_without_early_exit(f, t, lo, hi, increasing):
    """invert_monotone's bisection run to its iteration cap only."""
    a = np.broadcast_to(np.asarray(lo, dtype=float), t.shape).copy()
    b = np.broadcast_to(np.asarray(hi, dtype=float), t.shape).copy()
    for _ in range(MAX_ITER):
        mid = 0.5 * (a + b)
        fm = np.asarray(f(mid), dtype=float)
        below = (fm < t) if increasing else (fm > t)
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return 0.5 * (a + b)


class TestInvertMonotone:
    @pytest.mark.parametrize("increasing", [True, False], ids=["increasing", "decreasing"])
    def test_early_exit_keeps_result_bits(self, increasing):
        # roots near 1e5: the plain loop runs to the iteration cap
        roots = 1e5 * (1.0 + np.random.default_rng(3).uniform(-0.3, 0.3, 64))
        sign = 1.0 if increasing else -1.0
        f = lambda x: sign * np.log1p(np.asarray(x) / 7e4)
        t = f(roots)
        evals = []

        def counted(x):
            evals.append(1)
            return f(x)

        got = invert_monotone(counted, t, 1.0, 1e6, increasing=increasing)
        want = _invert_without_early_exit(f, t, 1.0, 1e6, increasing)
        assert got.tobytes() == want.tobytes()
        assert len(evals) < MAX_ITER
        assert invert_monotone(f, float(t[0]), 1.0, 1e6, increasing=increasing) == want[0]


def _nan_above_half(x):
    return float(x) if x < 0.5 else math.nan


@pytest.mark.parametrize("f, t, lo, hi, increasing, max_iter", [
    (lambda x: np.log1p(x / 7.0), 0.3, 0.0, 10.0, True, MAX_ITER),
    (lambda x: -np.log1p(x / 7.0), -0.3, 0.0, 10.0, False, MAX_ITER),
    (lambda x: np.log1p(x / 7.0), -1.0, 0.0, 10.0, True, MAX_ITER),
    (lambda x: np.log1p(x / 7.0), 5.0, 0.0, 10.0, True, MAX_ITER),
    (lambda x: -np.log1p(x / 7.0), 1.0, 0.0, 10.0, False, MAX_ITER),
    (lambda x: -np.log1p(x / 7.0), -5.0, 0.0, 10.0, False, MAX_ITER),
    (_nan_above_half, 0.7, 0.0, 1.0, True, MAX_ITER),
    (lambda x: np.log(x), math.log(1.234567e6), 1e6, 3e6, True, MAX_ITER),
    (lambda x: x * x * x, 1e-9, -1e-3, 2e-3, True, MAX_ITER),
    (lambda x: x, 0.0, -1e-3, 2e-3, True, MAX_ITER),
    (lambda x: x, 0.5, 2.0, 2.0, True, MAX_ITER),
    (lambda x: np.log1p(x / 7.0), 0.3, 0.0, 10.0, True, 3),
], ids=["increasing", "decreasing", "clamp-lo", "clamp-hi", "decreasing-clamp-lo",
        "decreasing-clamp-hi", "nan", "scale-1e6", "straddles-0", "cap-at-0", "lo-equals-hi",
        "max-iter-3"])
def test_float_bisection_gives_the_array_bits(f, t, lo, hi, increasing, max_iter, monkeypatch):
    """A float target and bracket bisect on floats (f sees Python floats) and
    give the bytes of the same call with a 0-d target, which takes the array
    path: the ulp floor, stop test, NaN side and iteration cap agree."""
    monkeypatch.setattr(numerics, "MAX_ITER", max_iter)
    seen = []

    def traced(x):
        seen.append(type(x))
        return f(x)

    got = invert_monotone(traced, t, lo, hi, increasing=increasing)
    want = invert_monotone(f, np.asarray(t), lo, hi, increasing=increasing)
    assert type(got) is float and type(want) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert set(seen) <= {float}


class TestInvertMonotoneNewton:
    @staticmethod
    def cubic(x):
        x = np.asarray(x)
        return x ** 3 + x, 4.0 * EPS * np.abs(x ** 3 + x)

    def test_matches_bisection_in_a_few_evaluations(self):
        t = np.linspace(0.0, 30.0, 257)[1:-1]  # interior roots; clamps are tested below
        evals = []

        def counted(x):
            evals.append(1)
            return self.cubic(x)

        got = invert_monotone(counted, t, 0.0, 3.0, fprime=lambda x: 3.0 * x ** 2 + 1.0, x0=1.5)
        want = invert_monotone(lambda x: self.cubic(x)[0], t, 0.0, 3.0)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        assert len(evals) <= 12
        assert [invert_monotone(self.cubic, float(v), 0.0, 3.0, fprime=lambda x: 3.0 * x ** 2 + 1.0,
                                x0=1.5) for v in t] == got.tolist()

    def test_newton_mode_needs_a_start(self):
        with pytest.raises(ValueError, match="x0"):
            invert_monotone(self.cubic, 1.0, 0.0, 3.0, fprime=lambda x: 3.0 * x ** 2 + 1.0)

    @pytest.mark.parametrize("increasing", [True, False], ids=["increasing", "decreasing"])
    def test_out_of_bracket_targets_clamp_in_one_evaluation(self, increasing):
        sign = 1.0 if increasing else -1.0
        f = lambda x: (sign * np.asarray(x), np.zeros(np.shape(x)))
        evals = []

        def counted(x):
            evals.append(1)
            return f(x)

        t = sign * np.array([-5.0, 5.0])
        got = invert_monotone(counted, t, -1.0, 1.0, increasing=increasing,
                              fprime=lambda x: np.full(np.shape(x), sign), x0=[-1.0, 1.0])
        assert got.tolist() == [-1.0, 1.0]
        assert len(evals) == 1

    def test_vanishing_derivative_falls_back_to_bisection(self):
        # Newton creeps towards the triple root of x**3 at 2/3 per step and
        # divides by zero on it; both become bisection steps
        got = invert_monotone(lambda x: (np.asarray(x) ** 3, 0.0), [0.0, 1e-30], -1.0, 2.0,
                              fprime=lambda x: 3.0 * np.asarray(x) ** 2, x0=[0.0, 1.0])
        assert got[0] == 0.0
        assert got[1] == pytest.approx(1e-10, rel=1e-12)


class TestGaussLegendre:
    @pytest.mark.parametrize("degree", [0, 1, 7, 31, 62, 63])
    def test_exact_on_polynomials(self, degree):
        coef = np.random.default_rng(degree).uniform(-1.0, 1.0, degree + 1)
        poly = np.polynomial.Polynomial(coef)
        exact = poly.integ()(0.7) - poly.integ()(-0.4)
        assert gauss_legendre(poly, -0.4, 0.7) == pytest.approx(exact, abs=1e-14)
        # a split inside the interval keeps exactness on each side
        assert gauss_legendre(poly, -0.4, 0.7, split=0.1) == pytest.approx(exact, abs=1e-14)

    def test_empty_interval_is_zero(self):
        assert gauss_legendre(np.exp, 1.0, 1.0) == 0.0
        assert gauss_legendre(np.exp, 2.0, 1.0) == 0.0

    def test_break_outside_interval_is_ignored(self):
        plain = gauss_legendre(np.exp, 0.0, 1.0)
        for split in (-1.0, 0.0, 1.0, 2.0, None):
            assert gauss_legendre(np.exp, 0.0, 1.0, split=split) == plain
        assert plain == pytest.approx(math.e - 1.0, abs=1e-14)

    def test_kink_split_handles_clipped_integrand(self):
        # max(x - 0.3, 0)^2 has a kink at 0.3; split there, the rule is exact
        f = lambda x: np.maximum(np.asarray(x) - 0.3, 0.0) ** 2
        assert gauss_legendre(f, 0.0, 1.0, split=0.3) == pytest.approx(0.7 ** 3 / 3, abs=1e-15)

    @pytest.mark.parametrize("m", [2.0, 3.5, 5.0])
    def test_matches_scipy_quad_on_noisy_value_integrand(self, m):
        """The solve-loop integrals of the noisy-value cutoffs, the right one
        on [k4, k5] and the middle one on [k2, k3], for chord lengths
        h = k5 - k4 across the band on which the middle equation is solvable;
        QUADPACK's adaptive Gauss-Kronrod, split at the same kink, is the
        reference. k5 >= h, so the h grid reaches every top cutoff in
        [v*, 2 v* + 2]."""
        s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(m))
        v_star = gap_profile(s).v_star
        band = [b for h in np.linspace(0.0, 2.0 * v_star + 2.0, 201)
                if not isinstance(b := _tilde_band(s, h), str)]
        assert len(band) >= 10
        for k2, k4, k5, d5, _, _ in band[::3]:
            cases = [(d5, k4, k5)]
            cases += [(float(delta(s, k3)), k2, k3) for k3 in np.linspace(k2, v_star, 4)[1:]]
            for shift, a, b in cases:
                f = _tilde_integrand(s, shift)
                kink = float(s.f_l.quantile(shift))
                got = gauss_legendre(f, a, b, split=kink)
                want = quad(lambda z: float(f(z)), a, b, points=[kink] if a < kink < b else None,
                            epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                assert got == pytest.approx(want, abs=1e-13)
                assert adaptive_gauss_legendre(f, a, b, split=kink) == pytest.approx(want, abs=1e-13)


class TestAdaptiveGaussLegendre:
    @pytest.mark.parametrize("degree", [0, 3, 31, 63])
    def test_exact_on_polynomials(self, degree):
        # the rule is exact on each half too, so the first comparison accepts
        coef = np.random.default_rng(degree).uniform(-1.0, 1.0, degree + 1)
        poly = np.polynomial.Polynomial(coef)
        exact = poly.integ()(0.7) - poly.integ()(-0.4)
        assert adaptive_gauss_legendre(poly, -0.4, 0.7) == pytest.approx(exact, abs=1e-14)
        assert adaptive_gauss_legendre(poly, -0.4, 0.7, split=0.1) == pytest.approx(exact, abs=1e-14)

    def test_empty_interval_is_zero(self):
        assert adaptive_gauss_legendre(np.exp, 1.0, 1.0) == 0.0
        assert adaptive_gauss_legendre(np.exp, 2.0, 1.0) == 0.0

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_tolerance_is_relative(self, scale):
        # sqrt's error near 0 never vanishes; the panels there keep halving
        # until the difference is below QUAD_RTOL of the total at any scale
        got = adaptive_gauss_legendre(lambda x: scale * np.sqrt(x), 0.0, 1.0)
        assert got == pytest.approx(2.0 / 3.0 * scale, rel=1e-12)

    def test_unconverged_integrand_fails_fast_at_the_cap(self):
        # noise never agrees with its halves: the pending panels double each
        # level until more than MAX_INTERVALS are pending
        rng = np.random.default_rng(0)
        with pytest.raises(NoConvergence, match="interval cap") as info:
            adaptive_gauss_legendre(lambda x: rng.uniform(size=np.shape(x)), 0.0, 1.0)
        assert info.value.diagnostics["pending"] > MAX_INTERVALS

    def test_cap_is_the_module_constant(self, monkeypatch):
        # |sin(20 x)| has six kinks in [0, 1]: the panels around them stay
        # pending together, more than four of them
        f = lambda x: np.abs(np.sin(20.0 * np.asarray(x)))
        exact = (13.0 - math.cos(20.0 - 6.0 * math.pi)) / 20.0
        assert adaptive_gauss_legendre(f, 0.0, 1.0) == pytest.approx(exact, rel=1e-12)
        monkeypatch.setattr(numerics, "MAX_INTERVALS", 4)
        assert adaptive_gauss_legendre(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)
        with pytest.raises(NoConvergence) as info:
            adaptive_gauss_legendre(f, 0.0, 1.0)
        assert info.value.diagnostics["max_intervals"] == 4
