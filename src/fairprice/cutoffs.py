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
from .numerics import EPS, adaptive_gauss_legendre, gauss_legendre, invert_monotone

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


def _chord_start(slice_: MarketSlice, h: float, g0=None):
    """Start g of the gap chord of length h >= 0: Delta(g + h) = Delta(g) on
    [max(lo, v* - h), v*], where Delta(g + h) - Delta(g) falls in g. Found by
    invert_monotone's safeguarded Newton with slope d(g + h) - d(g),
    d = f_l - f_h, from g0 or else v* - h/2. Newton stops once the chord is
    within the rounding of its cdfs, so a chord too short to rise above the
    rounding of the gap's flat top keeps its start."""
    v_star = gap_profile(slice_).v_star
    f_l, f_h, h = slice_.f_l, slice_.f_h, float(h)
    lo = float(max(slice_.support_lo, v_star - h))

    def chord_and_floor(g):
        fl_end, fl_start = f_l.cdf(g + h), f_l.cdf(g)
        return ((fl_end - f_h.cdf(g + h)) - (fl_start - f_h.cdf(g)),
                4.0 * EPS * (fl_end + fl_start))

    def slope(g):
        return (f_l.pdf(g + h) - f_h.pdf(g + h)) - (f_l.pdf(g) - f_h.pdf(g))

    x0 = v_star - 0.5 * h if g0 is None else g0
    return invert_monotone(chord_and_floor, 0.0, lo, v_star, increasing=False,
                           fprime=slope, x0=min(max(x0, lo), v_star))


def fixed_point_residual(slice_: MarketSlice, h):
    """Residual R(h) = Delta(k5) - Delta(k3) - F_h(k1) of the scalar equation
    pinning the chord length h = k5 - k4; an array h is solved element by
    element. Positive at the lower end of kappa_bracket and negative at the
    upper one, with a single sign change between them."""
    alpha, c = slice_.alpha, slice_.c
    h = np.asarray(h, dtype=float)
    k5 = np.reshape([_chord_start(slice_, x) for x in h.ravel()], h.shape) + h
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

    Constructive route: the chord length h = k5 - k4 is the root of the
    fixed-point residual R on its closed-form interval (kappa_bracket),
    found by invert_monotone's safeguarded Newton from the secant of R at
    the interval's ends. Each residual places the chord of length h across
    the gap maximizer (_chord_start, started from the previous iterate's
    chord start g moved along its tangent dg/dh); then k4 = g, k5 = g + h,
    k1 = alpha h + c and k3 = alpha/(1 - alpha) h + c, exact in h, and k2
    from the gap level at k5. With d = f_l - f_h, the chord equation gives
    dk5/dh = d(g)/(d(g) - d(k5)), so
    R'(h) = d(k5) dk5/dh - d(k3) alpha/(1 - alpha) - f_h(k1) alpha.
    """
    region = classify_region(slice_)
    if region is not Region.C1:
        raise WrongRegion(f"cutoff system requires region C1, slice is {region.value}")
    alpha, c, f_l, f_h = slice_.alpha, slice_.c, slice_.f_l, slice_.f_h
    h_lo, h_hi = kappa_bracket(slice_)

    r_lo = fixed_point_residual(slice_, h_lo)
    r_hi = fixed_point_residual(slice_, h_hi)
    if r_lo < -KAPPA_TOL or r_hi > KAPPA_TOL:
        raise NoConvergence("fixed-point bracket has the wrong signs",
                            lo=h_lo, hi=h_hi, f_lo=r_lo, f_hi=r_hi)
    last = {"h": None, "g": None}  # last length evaluated, its chord start, dg/dh and R'(h)

    def residual_and_floor(x):
        g0 = None if last["h"] is None else last["g"] + last["dg"] * (x - last["h"])
        g = _chord_start(slice_, x, g0)
        k1, k3, k5 = alpha * x + c, alpha / (1.0 - alpha) * x + c, g + x
        d_g, d5 = f_l.pdf(g) - f_h.pdf(g), f_l.pdf(k5) - f_h.pdf(k5)
        dg = d5 / (d_g - d5) if d_g != d5 else 0.0  # dg/dh along Delta(g + h) = Delta(g)
        last.update(h=x, g=g, dg=dg, slope=d5 * (1.0 + dg) - f_h.pdf(k1) * alpha
                    - (f_l.pdf(k3) - f_h.pdf(k3)) * alpha / (1.0 - alpha))
        fl5, fl3, fh1 = f_l.cdf(k5), f_l.cdf(k3), f_h.cdf(k1)
        return ((fl5 - f_h.cdf(k5)) - (fl3 - f_h.cdf(k3)) - fh1,
                4.0 * EPS * (fl5 + fl3 + fh1))

    if r_lo <= 0.0:
        h = h_lo  # boundary root (narrow-support configurations)
    elif r_hi >= 0.0:
        h = h_hi
    else:  # fprime is called at the length f was just evaluated at
        h = invert_monotone(residual_and_floor, 0.0, h_lo, h_hi, increasing=False,
                            fprime=lambda x: last["slope"],
                            x0=h_lo + (h_hi - h_lo) * (r_lo / (r_lo - r_hi)))

    k2, k4, k5, _ = _chord_cutoffs(slice_, h, last["g"])
    k1 = alpha * h + c
    k3 = alpha / (1.0 - alpha) * h + c
    kappa = Kappa(k1=k1, k2=k2, k3=k3, k4=k4, k5=k5,
                  residuals=_standard_residuals(slice_, k1, k2, k3, k4, k5))
    if not kappa.max_residual <= KAPPA_TOL:
        raise NoConvergence("cutoff residuals exceed tolerance after the chord-length solve",
                            residuals=kappa.residuals, kappa=kappa.as_tuple())
    return kappa


def _chord_cutoffs(slice_: MarketSlice, h: float, g0=None):
    """The cutoffs that a chord length h fixes in the five-cutoff layout:
    k2 = F_l^{-1}(Delta(k5)), k4 = g and k5 = g + h at one gap level across
    the maximizer, and that level Delta(k5); g0 starts the chord solve."""
    k4 = _chord_start(slice_, h, g0)
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


def _tilde_integrand(slice_: MarketSlice, shift: float, with_slope=True):
    """Integrand z -> the rows (I, dI/ds), or I alone without the slope:
    I(z; s) = (b/(z+b))^2 with b the shifted equal-quantile image
    F_h^{-1}(F_l(z) - s), and its shift slope dI/ds = -2bz/((z+b)^3 f_h(b)),
    as db/ds = -1/f_h(b) where the level is not clipped and 0 where it is."""
    f_l, f_h = slice_.f_l, slice_.f_h

    def integrand(z):
        level = np.asarray(f_l.cdf(z)) - shift
        q = np.clip(level, 0.0, 1.0 - 1e-15)
        b = np.asarray(f_h.quantile(q))
        zb = z + b
        with np.errstate(invalid="ignore", divide="ignore"):
            val = np.where(zb > 0, (b / zb) ** 2, 0.0)
            if not with_slope:
                return val
            slope = np.where((zb > 0) & (q == level), -2.0 * b * z / (zb ** 3 * f_h.pdf(b)), 0.0)
        return np.array([val, slope])

    return integrand


def _tilde_integral(slice_: MarketSlice, shift: float, a: float, b: float, adaptive=False):
    """The tilde integrand on [a, b], split at the kink F_l^{-1}(shift) where
    the clipped quantile leaves zero: both rows, the integral and its shift
    slope, by the fixed rule in one pass, or the integral alone by the
    adaptive rule on the value row alone."""
    integrand = _tilde_integrand(slice_, shift, with_slope=not adaptive)
    kink = float(slice_.f_l.quantile(min(max(shift, 0.0), 1.0)))
    if adaptive:
        return adaptive_gauss_legendre(integrand, a, b, split=kink)
    return gauss_legendre(integrand, a, b, split=kink) if b > a else np.zeros(2)


def _tilde_middle(slice_: MarketSlice, k2: float, harmonic: float, k3: float):
    """The middle equation at k3, k3/4 - (integral on [k2, k3] at shift
    Delta(k3)) - harmonic, with its rounding floor and its slope in k3,
    1/4 - I(k3; Delta(k3)) - d(k3) (shift slope's integral), d = f_l - f_h.
    The first two terms of the slope cancel: b(k3) = F_h^{-1}(F_h(k3)) = k3."""
    inner, dinner = _tilde_integral(slice_, float(delta(slice_, k3)), k2, k3)
    d3 = float(slice_.f_l.pdf(k3)) - float(slice_.f_h.pdf(k3))
    return k3 / 4.0 - inner - harmonic, 4.0 * EPS * (k3 / 4.0 + inner + harmonic), -d3 * dinner


def _tilde_band(slice_: MarketSlice, h: float, g0=None, k3_0=None):
    """Given a candidate chord length h, with k2, k4 and k5 from _chord_cutoffs
    (its chord solve started at g0), solve the middle equation for k3 by
    Newton from k3_0 (else v*) and read k1 from the harmonic identity.
    Returns ((k1, ..., k5), R(h) = Delta(k5) - Delta(k3) - F_h(k1), its
    rounding floor, R'(h), dg/dh, dk3/dh), or why the middle equation has no
    usable root: 'small' below the band of such lengths (the right integral
    is too small), 'large' above it (the k3 root would pass v*).

    The harmonic level H = (right integral) - h/4 pins continuity of the
    low-side dual at the top cutoff; the right integrand stays above 1/4 on
    [k4, k5], so H >= 0. The middle equation rises in k3: its sign at k2 is
    closed-form, and its sign at the start picks the other end to check.
    R'(h) = d(k5) dk5/dh - d(k3) dk3/dh - f_h(k1) dk1/dh, through the chord's
    dk5/dh = d(g)/(d(g) - d(k5)), dk2/dh = d(k5) dk5/dh / f_l(k2), Leibniz's
    rule on H (its end terms cancel: I = 1/4 at k4 and k5), the implicit
    dk3/dh and dk1/dh = (H' k2^2 - H^2 k2') / (k2 - H)^2.
    """
    f_l, f_h, v_star = slice_.f_l, slice_.f_h, gap_profile(slice_).v_star
    k2, k4, k5, d5 = _chord_cutoffs(slice_, h, g0)
    right, dright = _tilde_integral(slice_, d5, k4, k5)
    harmonic = right - h / 4.0
    if k2 / 4.0 - harmonic > 0.0:  # the middle equation at k2, where its integral vanishes
        return "small"
    if harmonic >= k2:
        return "large"
    evals = {}  # k3 -> (middle, floor, slope), so no point is integrated twice

    def middle(k3):
        if k3 not in evals:
            evals[k3] = _tilde_middle(slice_, k2, harmonic, k3)
        return evals[k3][:2]

    x0 = v_star if k3_0 is None else min(max(k3_0, k2), v_star)
    below = middle(x0)[0] < 0.0  # the root lies above the start
    if below and (x0 == v_star or middle(v_star)[0] < 0.0):
        return "large"
    k3 = invert_monotone(middle, 0.0, *((x0, v_star) if below else (k2, x0)),
                         fprime=lambda x: evals[x][2], x0=x0)
    middle(k3)  # the last Newton iterate, evaluated unless the run hit its cap
    dmiddle = evals[k3][2]
    k1 = harmonic * k2 / (k2 - harmonic)
    delta3, fh1 = float(delta(slice_, k3)), float(f_h.cdf(k1))

    def d(x):
        return float(f_l.pdf(x)) - float(f_h.pdf(x))

    d_g, d_5 = d(k4), d(k5)
    dg = d_5 / (d_g - d_5) if d_g != d_5 else 0.0  # dg/dh along Delta(g + h) = Delta(g)
    dd5 = d_5 * (1.0 + dg)  # dDelta(k5)/dh
    dk2 = dd5 / float(f_l.pdf(k2))
    dharmonic = dd5 * dright
    i2 = float(_tilde_integrand(slice_, delta3, with_slope=False)(k2))
    dk3 = (dharmonic - i2 * dk2) / dmiddle if dmiddle != 0.0 else 0.0
    dk1 = (dharmonic * k2 * k2 - harmonic * harmonic * dk2) / (k2 - harmonic) ** 2
    return ((k1, k2, k3, k4, k5), d5 - delta3 - fh1, 4.0 * EPS * (d5 + delta3 + fh1),
            dd5 - d(k3) * dk3 - float(f_h.pdf(k1)) * dk1, dg, dk3)


@lru_cache(maxsize=128)
def solve_kappa_tilde(slice_: MarketSlice) -> Kappa:
    """Cutoffs for the noisy-value variant (values uniform on [0, 2v]),
    solved for the c = 0, alpha = 1/2 specialization only.

    invert_monotone's safeguarded Newton solves _tilde_band's outer residual
    for the chord length h = k5 - k4 on [0, cap - lo] (lo the support floor)
    from 1.5 v*; each band's chord start and k3 start from the last band's,
    moved along their tangents. Off the band of h on which the middle
    equation is solvable, the outer function is +1 below (h = 0 gives
    k4 = k5 = v*) and -1 above (h = cap - lo puts k5 at or beyond the cap),
    with no slope, so Newton bisects there; inside, the residual falls
    through zero, so the interval brackets one sign change. Each rounding
    floor is 4 eps times the summed magnitudes of its residual's terms. The
    solve loop integrates with the fixed Gauss-Legendre rule; the residuals
    reported and checked are recomputed by its adaptive composite, which is
    relative.
    """
    if abs(slice_.c) > 1e-12 or abs(slice_.alpha - 0.5) > 1e-12:
        raise UnsupportedConfiguration(
            "noisy-value cutoffs are only derived for c = 0 and alpha = 1/2")
    if classify_region(slice_) is not Region.C1:
        raise WrongRegion("noisy-value cutoffs require region C1")
    v_star = gap_profile(slice_).v_star
    last = {"h": None, "slope": None}  # last on-band length, band, tangents; last slope

    def residual_and_floor(x):
        starts = (None, None) if last["h"] is None else (
            last["g"] + last["dg"] * (x - last["h"]), last["k3"] + last["dk3"] * (x - last["h"]))
        band = _tilde_band(slice_, x, *starts)
        if isinstance(band, str):
            last["slope"] = np.nan
            return 1.0 if band == "small" else -1.0, 0.0
        sol, r, floor, last["slope"], dg, dk3 = band
        last.update(h=x, sol=sol, g=sol[3], dg=dg, k3=sol[2], dk3=dk3)
        return r, floor

    h_hi = slice_.cap() - slice_.support_lo
    h = invert_monotone(residual_and_floor, 0.0, 0.0, h_hi, increasing=False,
                        fprime=lambda x: last["slope"], x0=min(1.5 * v_star, h_hi))
    if h != last["h"]:
        raise NoConvergence("outer root collapsed onto an infeasible point", h=h)
    k1, k2, k3, k4, k5 = last["sol"]

    inner = _tilde_integral(slice_, float(delta(slice_, k3)), k2, k3, adaptive=True)
    right = _tilde_integral(slice_, float(delta(slice_, k5)), k4, k5, adaptive=True)
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
