"""Closed-form dual certificates and their verification.

The dual pair (phi, psi) is piecewise affine in value with breakpoints at the
cutoffs; pointwise feasibility phi(v_l) + psi(v_h) >= pair profit everywhere,
plus equality on the optimal coupling's support, certifies optimality of the
coupling and the matching pricing rule. When the low-group cdf at cost
reaches the total variation distance the certificate degenerates to the split
gains phi = (1-alpha)(v-c)^+, psi = alpha(v-c)^+ and full extraction. The
noisy-value variant has no closed form; its pair is built from the envelope
condition on its coupling's support as broken lines (build_duals_tilde).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .cutoffs import Region, classify_region, solve_kappa, solve_kappa_tilde
from .dist import MarketSlice
from .errors import InfeasibleCertificate, SlacknessViolation
from .matching import Coupling, _c1_bands
from .welfare import pair_profit, tilde_pair_profit

FEASIBILITY_FLOOR = -1e-6
SLACKNESS_TOL = 1e-6
STRONG_DUALITY_RTOL = 1e-9
TILDE_NODES = 1000


@dataclass(frozen=True, eq=False)
class PiecewiseAffine:
    """f(v) = slope_i * v + intercept_i on the i-th branch; branches split at
    the interior breakpoints (left-open, right-closed). All three are held
    as float arrays, which neither compare nor hash (hence eq=False)."""

    breaks: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        for name in ("breaks", "slopes", "intercepts"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if len(self.slopes) != len(self.breaks) + 1 or len(self.slopes) != len(self.intercepts):
            raise ValueError("need one more branch than breakpoints")

    def __call__(self, v):
        v_arr = np.asarray(v, dtype=float)
        idx = np.searchsorted(self.breaks, v_arr, side="left")
        out = self.slopes[idx] * v_arr + self.intercepts[idx]
        return out if out.shape else float(out)

    def branch_integral(self, dist, lo: float, hi: float) -> float:
        """Exact integral of f against a distribution with partial moments."""
        # a scalar loop, so it runs on Python floats
        breaks, slopes, intercepts = self.breaks.tolist(), self.slopes.tolist(), self.intercepts.tolist()
        points = [lo] + [b for b in breaks if lo < b < hi] + [hi]
        total = 0.0
        for a, b in zip(points[:-1], points[1:]):
            mid = 0.5 * (a + b) if math.isfinite(b) else a + 1.0
            i = bisect_left(breaks, mid)
            cdf_b = 1.0 if math.isinf(b) else float(dist.cdf(b))
            total += (slopes[i] * float(dist.partial_mean(a, b))
                      + intercepts[i] * (cdf_b - float(dist.cdf(a))))
        return total


@dataclass(frozen=True)
class DualCertificate:
    slice: MarketSlice
    regime: str  # "C1", "degenerate" or "tilde" (the noisy-value variant)
    phi: PiecewiseAffine
    psi: PiecewiseAffine


def build_duals(slice_: MarketSlice) -> DualCertificate:
    """Construct the dual pair for the slice's region."""
    alpha, c = slice_.alpha, slice_.c
    region = classify_region(slice_)
    if region is not Region.C1:
        half = PiecewiseAffine(breaks=(c,), slopes=(0.0, 1.0 - alpha),
                               intercepts=(0.0, -(1.0 - alpha) * c))
        other = PiecewiseAffine(breaks=(c,), slopes=(0.0, alpha),
                                intercepts=(0.0, -alpha * c))
        return DualCertificate(slice=slice_, regime="degenerate", phi=half, psi=other)
    return certificate_from_kappa(slice_, solve_kappa(slice_))


def certificate_from_kappa(slice_: MarketSlice, k) -> DualCertificate:
    """Raw constructor from an explicit cutoff vector; used by the verifier to
    certify previously solved (possibly tampered) cutoffs."""
    alpha, c = slice_.alpha, slice_.c
    phi = PiecewiseAffine(
        breaks=(k.k3, k.k4, k.k5),
        slopes=(0.0, 1.0 - alpha, 1.0, 1.0 - alpha),
        intercepts=(
            k.k1 - c,
            -(1.0 - alpha) * c,
            -c - alpha * (k.k4 - c),
            -(1.0 - alpha) * c + k.k1 - c,
        ),
    )
    psi = PiecewiseAffine(
        breaks=(k.k1, k.k3, k.k4, k.k5),
        slopes=(0.0, 1.0, alpha, 0.0, alpha),
        intercepts=(
            0.0,
            -k.k1,
            -alpha * c,
            alpha * (k.k4 - c),
            -alpha * c - (k.k1 - c),
        ),
    )
    return DualCertificate(slice=slice_, regime="C1", phi=phi, psi=psi)


def _interpolant(x, y) -> PiecewiseAffine:
    """The broken line through (x_i, y_i), x increasing, extended past both
    ends along its end segments."""
    slopes = np.diff(y) / np.diff(x)
    return PiecewiseAffine(breaks=x[1:-1], slopes=slopes, intercepts=y[:-1] - slopes * x[:-1])


def _tilde_profit_slope(v_l, v_h):
    """Partial in v_h of the noisy pair profit max(v_l/4, v_h/4, joint):
    (v_l/(v_l + v_h))^2 on the joint branch (v_h/3 <= v_l <= 3 v_h), 1/4 on
    the v_h/4 branch and 0 on the v_l/4 branch."""
    with np.errstate(invalid="ignore", divide="ignore"):
        joint = (v_l / (v_l + v_h)) ** 2
    return np.where(3.0 * v_l < v_h, 0.25, np.where(v_l > 3.0 * v_h, 0.0, joint))


def build_duals_tilde(slice_: MarketSlice) -> DualCertificate:
    """Dual pair of the noisy-value matching (c = 0, alpha = 1/2) from the
    envelope condition on the support of its coupling, the C1 regime map T
    at the noisy cutoffs (matching._c1_bands). psi' (v_h) is the partial in
    v_h of the pair profit at (T(v_h), v_h), psi its trapezoid integral from
    the support floor over the f_h quantiles (i - 1/2)/TILDE_NODES split at
    the band ends k1, k3, k4 and k5, and phi(T(x)) = profit(T(x), x) - psi(x)
    at every node x. Above k5 each node pairs with itself and with its
    anti-assortative partner; where partners of several bands overlap, phi
    takes their upper envelope. Both are broken lines through the nodes."""
    k = solve_kappa_tilde(slice_)
    bands, tail_start, anti = _c1_bands(slice_, k)
    q = (np.arange(TILDE_NODES) + 0.5) / TILDE_NODES
    nodes = np.asarray(slice_.f_h.quantile(q), dtype=float)
    lower, level = slice_.support_lo, 0.0
    top = 2.0 * max(nodes[-1], tail_start)  # past every node: psi is affine above k5
    psi_x, psi_y, partners = [], [], []
    for upper, regime_map in bands + [(top, lambda x: x)]:  # the diagonal above k5
        x = np.concatenate([[lower], nodes[(nodes > lower) & (nodes < upper)], [upper]])
        u = np.asarray(regime_map(x), dtype=float)
        g = _tilde_profit_slope(u, x)
        y = level + np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(x))])
        psi_x.append(x)
        psi_y.append(y)
        partners.append((u, tilde_pair_profit(u, x) - y))
        level, lower = y[-1], upper
    u = np.asarray(anti(x), dtype=float)  # the anti-assortative partners above k5
    partners.append((u, tilde_pair_profit(u, x) - y))
    x, y = np.concatenate(psi_x), np.concatenate(psi_y)
    keep = np.concatenate([[True], np.diff(x) > 0.0])  # band ends appear twice
    u_all = np.unique(np.concatenate([u for u, _ in partners]))
    phi_y = np.full(u_all.shape, -np.inf)
    for u, v in partners:  # each band's partners increase along its nodes
        inside = (u_all >= u[0]) & (u_all <= u[-1])
        phi_y[inside] = np.maximum(phi_y[inside], np.interp(u_all[inside], u, v))
    return DualCertificate(slice=slice_, regime="tilde", phi=_interpolant(u_all, phi_y),
                           psi=_interpolant(x[keep], y[keep]))


def _grid_points(cert: DualCertificate, dist, n: int) -> np.ndarray:
    q = (np.arange(n) + 0.5) / n
    pts = list(np.asarray(dist.quantile(q), dtype=float))
    # branches are right-closed: a breakpoint's right-hand limit is the next float
    breaks = np.concatenate([cert.phi.breaks, cert.psi.breaks])
    pts.extend(np.concatenate([breaks, np.nextafter(breaks, np.inf)]))
    pts.append(cert.slice.c)
    return np.unique(np.asarray(pts, dtype=float))


def check_feasibility(cert: DualCertificate, slice_: MarketSlice, n: int) -> float:
    """Minimum of phi(v_l) + psi(v_h) - pair profit over an n-by-n quantile
    grid augmented with all breakpoints and their right-hand limits. Raises
    when it dips below -1e-6 or is NaN (argmin stops at the first NaN)."""
    vl = _grid_points(cert, slice_.f_l, n)
    vh = _grid_points(cert, slice_.f_h, n)
    slack = (np.asarray(cert.phi(vl))[:, None] + np.asarray(cert.psi(vh))[None, :]
             - np.asarray(pair_profit(slice_, vl[:, None], vh[None, :])))
    i, j = np.unravel_index(np.argmin(slack), slack.shape)
    min_slack = float(slack[i, j])
    if not min_slack >= FEASIBILITY_FLOOR:
        raise InfeasibleCertificate(
            f"dual feasibility fails: slack {min_slack!r} at pair "
            f"({vl[i]!r}, {vh[j]!r})",
            witness=(float(vl[i]), float(vh[j])), slack=min_slack)
    return min_slack


def check_complementary_slackness(cert: DualCertificate, coupling: Coupling) -> float:
    """Maximum of |phi(v_l) + psi(v_h) - pair profit| over the coupling's
    atoms. Raises when it exceeds 1e-6 or is NaN."""
    slice_ = cert.slice
    gap = (np.asarray(cert.phi(coupling.v_l)) + np.asarray(cert.psi(coupling.v_h))
           - np.asarray(pair_profit(slice_, coupling.v_l, coupling.v_h)))
    i = int(np.argmax(np.abs(gap)))
    worst = float(gap[i])
    if not abs(worst) <= SLACKNESS_TOL:
        raise SlacknessViolation(
            f"complementary slackness fails: gap {worst!r} at atom "
            f"({coupling.v_l[i]!r}, {coupling.v_h[i]!r})",
            witness=(float(coupling.v_l[i]), float(coupling.v_h[i])), violation=worst)
    return float(np.max(np.abs(gap)))


def dual_value(cert: DualCertificate) -> float:
    """Value of the dual objective: integral of phi against the low marginal
    plus psi against the high one, via exact partial moments."""
    s = cert.slice
    lo = s.support_lo
    return (cert.phi.branch_integral(s.f_l, lo, math.inf)
            + cert.psi.branch_integral(s.f_h, lo, math.inf))


def certificate_to_dict(cert: DualCertificate) -> dict:
    def branches(pa: PiecewiseAffine):
        return {
            "breaks": pa.breaks.tolist(),
            "slopes": pa.slopes.tolist(),
            "intercepts": pa.intercepts.tolist(),
        }

    return {
        "regime": cert.regime,
        "cost": cert.slice.c,
        "alpha": cert.slice.alpha,
        "phi": branches(cert.phi),
        "psi": branches(cert.psi),
    }
