"""Cost-region classification and the cutoff systems.

A slice falls into one of three regions depending on whether the low-group
cdf at cost stays below the total variation distance between the groups, and
on which side of the gap maximizer the cost sits. Region C1 admits a
five-cutoff vector pinned by a one-dimensional fixed point in the chord
length h = k5 - k4 (k4 and k5 share one gap level on either side of the
maximizer), which gives every cutoff by gap evaluations alone; C2 admits a
pair of exclusion thresholds; C2/C3 both allow full surplus extraction.

The imperfect-observation variant (noisy willingness-to-pay, uniform on
[0, 2v]) replaces the linear value equations with quadratic-integral ones and
is solved for the zero-cost, equal-shares specialization only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dist import MarketSlice, delta, gap_profile
from .errors import NoConvergence, UnsupportedConfiguration, WrongRegion
from .numerics import adaptive_gauss_legendre, bisect, gauss_legendre, invert_monotone

KAPPA_TOL = 1e-8
KAPPA_TILDE_TOL = 1e-7


class Region(enum.Enum):
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"


@dataclass(frozen=True)
class Kappa:
    """Five-cutoff vector with the residuals of its defining equalities."""

    k1: float
    k2: float
    k3: float
    k4: float
    k5: float
    residuals: tuple
    variant: str = "standard"

    def as_tuple(self):
        return (self.k1, self.k2, self.k3, self.k4, self.k5)

    @property
    def max_residual(self) -> float:
        """Largest |residual|; NaN if any residual is NaN. Test it with
        `not max_residual <= tol` so that a NaN fails the tolerance."""
        return float(np.max(np.abs(self.residuals)))


@dataclass(frozen=True)
class Eta:
    """Exclusion thresholds for region C2: eta_l <= eta_h <= c."""

    eta_l: float
    eta_h: float


def classify_region(slice_: MarketSlice) -> Region:
    """C1 when F_l(c) < tv; otherwise C2 below the gap maximizer, C3 at or
    above it. Ties F_l(c) = tv classify as C2/C3 (weak inequality)."""
    gp = gap_profile(slice_)
    if float(slice_.f_l.cdf(slice_.c)) < gp.tv:
        return Region.C1
    return Region.C2 if slice_.c < gp.v_star else Region.C3


def _chord_start(slice_: MarketSlice, h):
    """Start g of the gap chord of length h >= 0: Delta(g + h) = Delta(g) on
    [max(lo, v* - h), v*], where Delta(g + h) - Delta(g) falls in g. A scalar
    h takes one Brent solve to a few ulps, an array h one vector bisection;
    both clamp to an end where the ends differ by rounding alone (a chord
    much shorter than the flat top of the gap)."""
    v_star = gap_profile(slice_).v_star
    lo = np.maximum(slice_.support_lo, v_star - np.asarray(h, dtype=float))

    def chord(g):  # for a scalar g, two scalar gaps cost less than one 2-element array gap
        return delta(slice_, g + h) - delta(slice_, g)

    if lo.shape:
        return invert_monotone(chord, np.zeros(lo.shape), lo, v_star, increasing=False)
    try:
        return bisect(chord, float(lo), v_star)
    except NoConvergence as exc:
        return float(lo) if exc.diagnostics["f_lo"] < 0.0 else v_star


def fixed_point_residual(slice_: MarketSlice, h):
    """Residual R(h) = Delta(k5) - Delta(k3) - F_h(k1) of the scalar equation
    pinning the chord length h = k5 - k4; vectorized. Positive at the lower
    end of kappa_bracket and negative at the upper one, with a single sign
    change between them."""
    alpha, c = slice_.alpha, slice_.c
    h = np.asarray(h, dtype=float)
    k5 = _chord_start(slice_, h) + h
    out = (np.asarray(delta(slice_, k5))
           - np.asarray(delta(slice_, alpha / (1.0 - alpha) * h + c))
           - np.asarray(slice_.f_h.cdf(alpha * h + c)))
    return out if out.shape else float(out)


def kappa_bracket(slice_: MarketSlice):
    """The chord-length interval on which the fixed point has exactly one
    root, in closed form: k3 = alpha/(1 - alpha) h + c runs from the larger
    of the support floor and the cost (there h = 0) to the gap maximizer,
    [max(0, (1 - alpha)(lo - c)/alpha), (1 - alpha)(v* - c)/alpha]."""
    alpha, c = slice_.alpha, slice_.c
    if not (0.0 < alpha < 1.0):
        raise UnsupportedConfiguration("cutoff system needs both groups present (0 < alpha < 1)")
    v_star = gap_profile(slice_).v_star
    return (max(0.0, (1.0 - alpha) * (slice_.support_lo - c) / alpha),
            (1.0 - alpha) * (v_star - c) / alpha)


@lru_cache(maxsize=512)
def solve_kappa(slice_: MarketSlice) -> Kappa:
    """Solve the five-cutoff system on a C1 slice.

    Constructive route: one Brent solve for the chord length h = k5 - k4 on
    its closed-form interval (kappa_bracket), each step placing the chord
    of length h across the gap maximizer; then k4 = g, k5 = g + h,
    k1 = alpha h + c and k3 = alpha/(1 - alpha) h + c, exact in h, and k2
    from the gap level at k5.
    """
    region = classify_region(slice_)
    if region is not Region.C1:
        raise WrongRegion(f"cutoff system requires region C1, slice is {region.value}")
    alpha, c = slice_.alpha, slice_.c
    h_lo, h_hi = kappa_bracket(slice_)

    r_lo = fixed_point_residual(slice_, h_lo)
    r_hi = fixed_point_residual(slice_, h_hi)
    if r_lo < -KAPPA_TOL or r_hi > KAPPA_TOL:
        raise NoConvergence("fixed-point bracket has the wrong signs",
                            lo=h_lo, hi=h_hi, f_lo=r_lo, f_hi=r_hi)
    if r_lo <= 0.0:
        h = h_lo  # boundary root (narrow-support configurations)
    elif r_hi >= 0.0:
        h = h_hi
    else:
        h = bisect(lambda x: fixed_point_residual(slice_, x), h_lo, h_hi)

    k2, k4, k5, _ = _chord_cutoffs(slice_, h)
    k1 = alpha * h + c
    k3 = alpha / (1.0 - alpha) * h + c
    kappa = Kappa(k1=k1, k2=k2, k3=k3, k4=k4, k5=k5,
                  residuals=_standard_residuals(slice_, k1, k2, k3, k4, k5))
    if not kappa.max_residual <= KAPPA_TOL:
        raise NoConvergence("cutoff residuals exceed tolerance after bisection",
                            residuals=kappa.residuals, kappa=kappa.as_tuple())
    return kappa


def _chord_cutoffs(slice_: MarketSlice, h: float):
    """The cutoffs that a chord length h fixes in the five-cutoff layout:
    k2 = F_l^{-1}(Delta(k5)), k4 = g and k5 = g + h at one gap level across
    the maximizer, and that level Delta(k5)."""
    k4 = _chord_start(slice_, h)
    k5 = k4 + h
    d5 = float(delta(slice_, k5))
    return float(slice_.f_l.quantile(np.clip(d5, 0.0, 1.0))), k4, k5, d5


def _standard_residuals(slice_, k1, k2, k3, k4, k5):
    alpha, c = slice_.alpha, slice_.c
    return _gap_residuals(slice_, k1, k2, k3, k4, k5) + (
        (k1 - c) - (1.0 - alpha) * (k3 - c), (k1 - c) - alpha * (k5 - k4))


def _gap_residuals(slice_: MarketSlice, k1, k2, k3, k4, k5):
    """The three gap-level equalities of the five-cutoff layout:
    F_l(k2) = Delta(k3) + F_h(k1) = Delta(k4) = Delta(k5)."""
    fl_k2 = float(slice_.f_l.cdf(k2))
    return (
        fl_k2 - float(delta(slice_, k3)) - float(slice_.f_h.cdf(k1)),
        fl_k2 - float(delta(slice_, k4)),
        fl_k2 - float(delta(slice_, k5)),
    )


def solve_eta(slice_: MarketSlice) -> Eta:
    """Exclusion thresholds on a C2 slice: the low threshold leaves exactly
    the total-variation mass between it and the cost; the high threshold is
    its equal-quantile image."""
    region = classify_region(slice_)
    if region is not Region.C2:
        raise WrongRegion(f"eta thresholds require region C2, slice is {region.value}")
    gp = gap_profile(slice_)
    fl_c = float(slice_.f_l.cdf(slice_.c))
    eta_l = float(slice_.f_l.quantile(max(fl_c - gp.tv, 0.0)))
    eta_h = float(slice_.f_h.quantile(float(slice_.f_l.cdf(eta_l))))
    return Eta(eta_l=eta_l, eta_h=eta_h)


def _tilde_integrand(slice_: MarketSlice, shift: float):
    """Integrand z -> (b/(z+b))^2 with b the shifted equal-quantile image."""
    f_l, f_h = slice_.f_l, slice_.f_h

    def integrand(z):
        q = np.clip(np.asarray(f_l.cdf(z)) - shift, 0.0, 1.0 - 1e-15)
        b = np.asarray(f_h.quantile(q))
        with np.errstate(invalid="ignore", divide="ignore"):
            val = np.where(z + b > 0, (b / (z + b)) ** 2, 0.0)
        return val

    return integrand


def _tilde_integral(slice_: MarketSlice, shift: float, a: float, b: float,
                    quad=gauss_legendre) -> float:
    """The tilde integrand on [a, b] by the rule quad, split at the kink
    F_l^{-1}(shift) where the clipped quantile leaves zero."""
    kink = float(slice_.f_l.quantile(min(max(shift, 0.0), 1.0)))
    return quad(_tilde_integrand(slice_, shift), a, b, split=kink)


def _tilde_band(slice_: MarketSlice, h: float):
    """Given a candidate chord length h, with k2, k4 and k5 from _chord_cutoffs,
    return (k2, k4, k5, d5, harmonic, middle) or report why the middle
    equation has no usable root: 'small' below the band of such lengths (the
    right integral is too small), 'large' above it (the k3 root would pass
    the gap maximizer).

    The harmonic level is pinned by continuity of the low-side dual at the
    top cutoff: harmonic = (right integral) - h/4. The right integrand stays
    above 1/4 on [k4, k5], so the level is nonnegative.
    """
    gp = gap_profile(slice_)
    k2, k4, k5, d5 = _chord_cutoffs(slice_, h)
    harmonic = _tilde_integral(slice_, d5, k4, k5) - h / 4.0

    def middle(k3):
        return k3 / 4.0 - _tilde_integral(slice_, float(delta(slice_, k3)), k2, k3) - harmonic

    if middle(k2) > 0.0:
        return "small"
    if middle(gp.v_star) < 0.0 or harmonic >= k2:
        return "large"
    return k2, k4, k5, d5, harmonic, middle


@lru_cache(maxsize=128)
def solve_kappa_tilde(slice_: MarketSlice) -> Kappa:
    """Cutoffs for the noisy-value variant (values uniform on [0, 2v]),
    solved for the c = 0, alpha = 1/2 specialization only.

    Brent's method solves the outer residual for the chord length h = k5 - k4
    on [0, cap - lo] (lo the support floor), reading k2, k4 and k5 from h as
    solve_kappa does. Each evaluation solves the middle quadratic-integral
    equation for k3, reads k1 from the harmonic identity, and scores the
    remaining gap-level equality. Off the band of h on which the middle
    equation is solvable, the outer function is +1 below (h = 0 gives
    k4 = k5 = v*) and -1 above (h = cap - lo puts k5 at or beyond the cap);
    inside, the residual falls through zero, so the interval brackets one
    sign change. The solve loop integrates with the fixed Gauss-Legendre
    rule; the residuals reported and checked are recomputed by its adaptive
    composite, which is relative.
    """
    if abs(slice_.c) > 1e-12 or abs(slice_.alpha - 0.5) > 1e-12:
        raise UnsupportedConfiguration(
            "noisy-value cutoffs are only derived for c = 0 and alpha = 1/2")
    if classify_region(slice_) is not Region.C1:
        raise WrongRegion("noisy-value cutoffs require region C1")
    gp = gap_profile(slice_)

    def outer(h):
        """(k1..k5) and the outer residual; a point off the band gets its
        side's sign ('small' positive, 'large' negative)."""
        band = _tilde_band(slice_, h)
        if isinstance(band, str):
            return None, 1.0 if band == "small" else -1.0
        k2, k4, k5, d5, harmonic, middle = band
        k3 = bisect(middle, k2, gp.v_star)
        k1 = harmonic * k2 / (k2 - harmonic)
        return (k1, k2, k3, k4, k5), d5 - float(delta(slice_, k3)) - float(slice_.f_h.cdf(k1))

    h = bisect(lambda x: outer(x)[1], 0.0, slice_.cap() - slice_.support_lo)
    sol, _ = outer(h)
    if sol is None:
        raise NoConvergence("outer root collapsed onto an infeasible point", h=h)
    k1, k2, k3, k4, k5 = sol

    inner = _tilde_integral(slice_, float(delta(slice_, k3)), k2, k3, adaptive_gauss_legendre)
    right = _tilde_integral(slice_, float(delta(slice_, k5)), k4, k5, adaptive_gauss_legendre)
    harmonic = k1 * k2 / (k1 + k2)
    kappa = Kappa(
        k1=k1, k2=k2, k3=k3, k4=k4, k5=k5,
        residuals=_gap_residuals(slice_, k1, k2, k3, k4, k5) + (
            harmonic - (k3 / 4.0 - inner),
            harmonic - (right - (k5 - k4) / 4.0),
        ),
        variant="tilde",
    )
    if not kappa.max_residual <= KAPPA_TILDE_TOL:
        raise NoConvergence("noisy-value cutoff residuals exceed tolerance",
                            residuals=kappa.residuals, kappa=kappa.as_tuple())
    return kappa
