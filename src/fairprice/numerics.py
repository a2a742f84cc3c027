"""Root finding and quadrature primitives shared across the library:
`bisect` and `invert_monotone` find roots (a maximum is found as the sign
change of its slope), `gauss_legendre` and `adaptive_gauss_legendre`
integrate.

All target functions here are monotone on the chosen bracket. bisect is
Brent's method, which stops once the bracket is a few ulps of the root wide
(200-iteration cap); it serves the uniform-price maximum alone.
invert_monotone bisects one float target until its bracket is two adjacent
floats; given a derivative, it takes safeguarded Newton steps instead
(rtsafe, Numerical Recipes 9.4), on numpy arrays, each element from its own
start and bracket, or on floats for a float target, bracket and start, with
the array path's bits. Quadrature is one 32-node Gauss-Legendre rule: fixed
inside solve loops, where one pass can integrate a stack of rows (a value
and its derivative), or adaptive (each panel against its two halves, to a
relative tolerance, with a cap on pending panels) where a result is
reported.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NoConvergence

MAX_ITER = 200
MAX_INTERVALS = 4096
QUAD_RTOL = 1e-13
EPS = float(np.finfo(float).eps)


def bisect(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi] by Brent's method; f(lo) and f(hi) must not have
    the same strict sign. Stops once the bracket is a few ulps of the root
    wide (4 eps |b|) and returns the end with the smaller |f|."""
    a, b = lo, hi
    fa = f(a)
    if fa == 0.0:
        return a
    fb = f(b)
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NoConvergence("bisection bracket does not straddle a root",
                            lo=lo, hi=hi, f_lo=fa, f_hi=fb)
    c, fc = b, fb
    d = e = b - a
    for _ in range(MAX_ITER):
        if (fb > 0) == (fc > 0):  # keep the root between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * EPS * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            q, p = (-q if p > 0 else q), abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if m > 0 else -tol)
        fb = f(b)
    return b


def invert_monotone(f, targets, lo, hi, *, increasing: bool = True, fprime=None, x0=None):
    """Solve f(x) = t for monotone f.

    Out-of-bracket targets clamp to the nearer endpoint, which is the
    behaviour the Delta-inverse callers rely on for vanishing tails.
    Without fprime, targets, lo and hi are one float each (an array target
    raises TypeError) and the bracket is bisected on floats (_bisect_float).

    Given a derivative fprime, targets/lo/hi broadcast and each element
    instead runs safeguarded Newton from x0, which is then required; f(x)
    must then return the pair (f(x), err), err bounding the rounding error
    of f(x). See _safeguarded_newton for the steps and stop rules. When
    targets, lo, hi and x0 are all floats, the steps run on floats
    (_safeguarded_newton_float) and a float comes back, with the bits of
    the array path.
    """
    if fprime is not None:
        if x0 is None:
            raise ValueError("the Newton mode of invert_monotone needs a start x0")
        if (isinstance(targets, float) and isinstance(lo, float) and isinstance(hi, float)
                and isinstance(x0, float)):
            return float(_safeguarded_newton_float(f, fprime, targets, lo, hi, x0, increasing))
        t, a, b = np.broadcast_arrays(np.asarray(targets, dtype=float),
                                      np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        x = np.broadcast_to(np.asarray(x0, dtype=float), t.shape)
        out = _safeguarded_newton(f, fprime, t.ravel(), a.ravel(), b.ravel(), x.ravel(),
                                  increasing).reshape(t.shape)
        return out if out.shape else float(out)
    return _bisect_float(f, float(targets), float(lo), float(hi), increasing)


def _bisect_float(f, t, a, b, increasing):
    """Bisection of one float bracket until it is two adjacent floats (the
    midpoint rounds to an end), when no later step could change
    0.5 * (a + b), or until MAX_ITER steps. A NaN f(mid) moves b."""
    # the bracket can be adjacent floats only below this width; test exactly from there
    ulp_floor = 4.0 * EPS * max(abs(a), abs(b))
    for _ in range(MAX_ITER):
        mid = 0.5 * (a + b)
        if b - a <= ulp_floor and (mid == a or mid == b):
            break
        fm = f(mid)
        if (fm < t) if increasing else (fm > t):
            a = mid
        else:
            b = mid
    return float(0.5 * (a + b))


def _safeguarded_newton(f, fprime, t, a, b, x, increasing):
    """Newton-bisection hybrid on flat arrays; each element is independent.

    Every evaluated iterate replaces the bracket end on its side of the root.
    A Newton step that would leave the new bracket (the derivative vanishes,
    or the function kinks) or is not at most half the step before last (slow
    convergence) becomes a bisection step. An element freezes at its iterate
    once |f(x) - t| <= err(x), once its next step is at most 4 eps |x|, or
    once its bracket is two adjacent floats; an iterate on a bracket end
    with the root beyond it collapses the bracket, which clamps an
    out-of-bracket target in one evaluation.
    """
    a, b, x = a.copy(), b.copy(), x.copy()
    step, step_old = b - a, b - a
    live = np.arange(x.size)
    for _ in range(MAX_ITER):
        if live.size == 0:
            break
        xl = x[live]
        value, err = f(xl)
        resid = np.asarray(value, dtype=float) - t[live]
        below = (resid < 0.0) if increasing else (resid > 0.0)
        al = np.where(below, xl, a[live])
        bl = np.where(below, b[live], xl)
        slope = np.asarray(fprime(xl), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = xl - resid / slope
        mid = 0.5 * (al + bl)
        ok = (newton >= al) & (newton <= bl) & (np.abs(newton - xl) <= 0.5 * step_old[live])
        nxt = np.where(ok, newton, mid)
        done = ((np.abs(resid) <= err) | (np.abs(nxt - xl) <= 4.0 * EPS * np.abs(xl))
                | (mid == al) | (mid == bl))
        a[live], b[live] = al, bl
        step_old[live] = step[live]
        step[live] = np.where(ok, np.abs(newton - xl), 0.5 * (bl - al))
        x[live] = np.where(done, xl, nxt)
        live = live[~done]
    return x


def _safeguarded_newton_float(f, fprime, t, a, b, x, increasing):
    """_safeguarded_newton for one element on floats, step for step: the same
    bracket update, Newton-or-bisection choice and stop rules, so the same
    bits as the element's run in an array."""
    step = step_old = b - a
    for _ in range(MAX_ITER):
        value, err = f(x)
        resid = value - t
        if (resid < 0.0) if increasing else (resid > 0.0):
            a = x
        else:
            b = x
        slope = fprime(x)
        if slope == 0.0:  # what numpy's resid / ±0.0 gives: ±inf, or NaN for 0 / 0 and NaN / 0
            newton = x - (math.nan if resid == 0.0 or resid != resid
                          else math.copysign(math.inf, resid) * math.copysign(1.0, slope))
        else:
            newton = x - resid / slope
        mid = 0.5 * (a + b)
        ok = a <= newton <= b and abs(newton - x) <= 0.5 * step_old
        nxt = newton if ok else mid
        if abs(resid) <= err or abs(nxt - x) <= 4.0 * EPS * abs(x) or mid == a or mid == b:
            return x
        step_old, step = step, abs(newton - x) if ok else 0.5 * (b - a)
        x = nxt
    return x


@lru_cache(maxsize=1)
def _gauss_legendre_rule():
    return np.polynomial.legendre.leggauss(32)


def _panels(a: float, b: float, split):
    """Lower and upper edges of [a, b]'s panels, split at a kink inside."""
    edges = np.array([a, split, b] if split is not None and a < split < b else [a, b], dtype=float)
    return edges[:-1], edges[1:]


def _rule_on_panels(f, lo, hi):
    """The 32-node rule on each panel [lo_i, hi_i], all nodes in one f call;
    an f that returns a stack of rows, one value per node in each, gets a
    stack of per-panel rows."""
    nodes, weights = _gauss_legendre_rule()
    half = 0.5 * (hi - lo)[:, None]
    xs = 0.5 * (lo + hi)[:, None] + half * nodes
    values = np.asarray(f(xs.ravel()), dtype=float)
    return np.sum(half * weights * values.reshape(values.shape[:-1] + xs.shape), axis=-1)


def gauss_legendre(f, a: float, b: float, *, split=None):
    """Fixed 32-node Gauss-Legendre quadrature of a vectorized integrand on
    [a, b], exact for polynomials of degree <= 63. A split point inside (a, b)
    (a kink of the integrand) gets the rule on each side; every node goes to
    f in one call. A float for a scalar integrand; an integrand that returns
    a stack of rows gets an array of their integrals, each with the bits of
    that row integrated alone. An empty interval gives 0.0."""
    if b <= a:
        return 0.0
    total = np.sum(_rule_on_panels(f, *_panels(a, b, split)), axis=-1)
    return total if total.shape else float(total)


def adaptive_gauss_legendre(f, a: float, b: float, *, split=None) -> float:
    """Adaptive composite of the 32-node rule on [a, b], split as in
    gauss_legendre. A pending panel is accepted, at its halves' sum, once the
    rule on it and on its two halves agree within QUAD_RTOL of the running
    total (QUADPACK's error estimate without Kronrod nodes); otherwise its
    halves become pending. Each level makes one call to f. Raises
    NoConvergence once more than MAX_INTERVALS panels are pending."""
    if b <= a:
        return 0.0
    lo, hi = _panels(a, b, split)
    whole = _rule_on_panels(f, lo, hi)
    total = 0.0
    while len(lo) <= MAX_INTERVALS:
        mid = 0.5 * (lo + hi)
        halves = _rule_on_panels(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = np.split(halves, 2)
        fine = left + right
        done = np.abs(fine - whole) <= QUAD_RTOL * abs(total + np.sum(fine))
        total += float(np.sum(fine[done]))
        keep = ~done
        if not np.any(keep):
            return total
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        whole = np.concatenate([left[keep], right[keep]])
    raise NoConvergence("adaptive Gauss-Legendre exceeded its interval cap", a=a, b=b,
                        pending=len(lo), max_intervals=MAX_INTERVALS)
