"""Root finding and quadrature primitives shared across the library:
`bisect` and `invert_monotone` find roots (a maximum is found as the sign
change of its slope), `gauss_legendre` and `adaptive_gauss_legendre`
integrate.

All target functions here are monotone on the chosen bracket. Scalar roots
use Brent's method (tolerance 1e-12 on the argument, relative below unit
scale; 200-iteration cap). The vector variant runs bisection on numpy arrays
and stops early once every bracket is two adjacent floats; given a
derivative, it takes safeguarded Newton steps instead (rtsafe, Numerical
Recipes 9.4), each element from its own start and bracket. Quadrature is
one 32-node Gauss-Legendre rule: fixed inside solve loops, or adaptive
(each panel against its two halves, to a relative tolerance, with a cap on
pending panels) where a result is reported.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NoConvergence

XTOL = 1e-12
MAX_ITER = 200
MAX_INTERVALS = 4096
QUAD_RTOL = 1e-13
EPS = float(np.finfo(float).eps)


def bisect(f, lo: float, hi: float, *, xtol: float = XTOL, max_iter: int = MAX_ITER) -> float:
    """Root of f on [lo, hi] by Brent's method; f(lo) and f(hi) must not have
    the same strict sign. Stops once the bracket is xtol * min(1, max(|lo|,
    |hi|)) wide (plus a few ulps of the root), so the tolerance is relative
    below unit scale, and returns the end with the smaller |f|."""
    xtol *= min(1.0, max(abs(lo), abs(hi)))
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
    for _ in range(max_iter):
        if (fb > 0) == (fc > 0):  # keep the root between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * EPS * abs(b) + 0.5 * xtol
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


def invert_monotone(f, targets, lo, hi, *, increasing: bool = True,
                    xtol: float = XTOL, max_iter: int = MAX_ITER, fprime=None, x0=None):
    """Solve f(x) = t elementwise for monotone f; targets/lo/hi broadcast.

    Out-of-bracket targets clamp to the nearer endpoint, which is the
    behaviour the Delta-inverse callers rely on for vanishing tails.
    Stops early once every bracket is two adjacent floats (each midpoint
    rounds to an end): no later step could change 0.5 * (a + b).

    Given a derivative fprime, each element instead runs safeguarded Newton
    from x0, which is then required; f(x) must then return the pair
    (f(x), err), err bounding the rounding error of f(x), and xtol is not
    used. See _safeguarded_newton for the steps and stop rules.
    """
    t = np.asarray(targets, dtype=float)
    if fprime is not None:
        t, a, b = np.broadcast_arrays(t, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        if x0 is None:
            raise ValueError("the Newton mode of invert_monotone needs a start x0")
        x = np.broadcast_to(np.asarray(x0, dtype=float), t.shape)
        out = _safeguarded_newton(f, fprime, t.ravel(), a.ravel(), b.ravel(), x.ravel(),
                                  increasing, max_iter).reshape(t.shape)
        return out if out.shape else float(out)
    a = np.broadcast_to(np.asarray(lo, dtype=float), t.shape).copy()
    b = np.broadcast_to(np.asarray(hi, dtype=float), t.shape).copy()
    # brackets can be adjacent floats only below this width; test exactly from there
    ulp_floor = 4.0 * EPS * max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    for _ in range(max_iter):
        width = np.max(b - a, initial=0.0)
        if width <= xtol:
            break
        mid = 0.5 * (a + b)
        if width <= ulp_floor and np.all((mid == a) | (mid == b)):
            break
        fm = np.asarray(f(mid), dtype=float)
        below = (fm < t) if increasing else (fm > t)
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    out = 0.5 * (a + b)
    return out if out.shape else float(out)


def _safeguarded_newton(f, fprime, t, a, b, x, increasing, max_iter):
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
    for _ in range(max_iter):
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


@lru_cache(maxsize=1)
def _gauss_legendre_rule():
    return np.polynomial.legendre.leggauss(32)


def _panels(a: float, b: float, split):
    """Lower and upper edges of [a, b]'s panels, split at a kink inside."""
    edges = np.array([a, split, b] if split is not None and a < split < b else [a, b], dtype=float)
    return edges[:-1], edges[1:]


def _rule_on_panels(f, lo, hi):
    """The 32-node rule on each panel [lo_i, hi_i], all nodes in one f call."""
    nodes, weights = _gauss_legendre_rule()
    half = 0.5 * (hi - lo)[:, None]
    xs = 0.5 * (lo + hi)[:, None] + half * nodes
    return np.sum(half * weights * np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape), axis=1)


def gauss_legendre(f, a: float, b: float, *, split=None) -> float:
    """Fixed 32-node Gauss-Legendre quadrature of a vectorized integrand on
    [a, b], exact for polynomials of degree <= 63. A split point inside (a, b)
    (a kink of the integrand) gets the rule on each side; every node goes to
    f in one call."""
    if b <= a:
        return 0.0
    return float(np.sum(_rule_on_panels(f, *_panels(a, b, split))))


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
