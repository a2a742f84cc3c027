"""Pair-level profits and rule-level welfare accounting.

Consumer surplus and welfare loss are group-conditional means; the report's
accounting identity
    profit + (1-alpha)(cs_l + wl_l) + alpha(cs_h + wl_h) = gains from trade
holds exactly for rules that never price below cost (all constructed rules).

Every integral is exact, with no quadrature. Pieces with affine prices
(identity, cost-clamped, constant) integrate through exact partial moments.
A quantile-shift or gap-inverse price is G^-1(y) at y = shift +- F_own(v),
with G the partner cdf or one branch of the gap, so the substitution
u = F_own(v) turns its revenue into an integral of G^-1 over y, which the
inverse-function identity turns into a partial moment of G.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cutoffs import Region, classify_region, solve_kappa
from .dist import TAIL_MASS, Market, MarketSlice, delta, delta_inverse, gap_profile
from .errors import ConsistencyError, UnsupportedConfiguration, ValidationError, ZeroGains
from .numerics import bisect
from .pricing import PricingRule, sale_pieces

CLOSED_FORM_RTOL = 1e-6


def pair_profit(slice_: MarketSlice, v_l, v_h):
    """Best profit from a matched pair: sell to both at the lower value, or to
    one group alone at its value; never negative."""
    v_l = np.asarray(v_l, dtype=float)
    v_h = np.asarray(v_h, dtype=float)
    alpha, c = slice_.alpha, slice_.c
    both = np.minimum(v_l, v_h) - c
    only_h = alpha * np.maximum(v_h - c, 0.0)
    only_l = (1.0 - alpha) * np.maximum(v_l - c, 0.0)
    out = np.maximum(np.maximum(both, only_h), only_l)
    out = np.maximum(out, 0.0)
    return out if out.shape else float(out)


def optimal_pair_price(slice_: MarketSlice, v_l, v_h):
    """Profit-maximizing price for a matched pair, restricted to the pair's
    values and clamped below by feasibility; ties resolve toward selling to
    both (the lower value)."""
    v_l = np.asarray(v_l, dtype=float)
    v_h = np.asarray(v_h, dtype=float)
    alpha, c = slice_.alpha, slice_.c
    lo = np.minimum(v_l, v_h)
    hi = np.maximum(v_l, v_h)

    def profit_at(p):
        sale_l = v_l >= p
        sale_h = v_h >= p
        raw = (p - c) * ((1.0 - alpha) * sale_l + alpha * sale_h)
        return np.where(p >= c, raw, -np.inf)

    pi_lo = profit_at(lo)
    pi_hi = profit_at(hi)
    best = np.maximum(pi_lo, pi_hi)
    price = np.where(pi_lo >= pi_hi, lo, hi)
    price = np.where(best > 0.0, price, np.where(best == 0.0, price, c))
    # when no candidate is feasible (both values below cost) quote cost: no trade
    price = np.where(np.isneginf(best), c, price)
    return price if price.shape else float(price)


@dataclass(frozen=True)
class WelfareReport:
    c: float
    alpha: float
    region: str
    profit: float
    cs_l: float
    cs_h: float
    wl_l: float
    wl_h: float
    gains: float

    @property
    def share(self) -> float:
        return self.profit / self.gains if self.gains > 0 else math.nan

    def accounting_residual(self) -> float:
        a = self.alpha
        return (self.profit + (1 - a) * (self.cs_l + self.wl_l)
                + a * (self.cs_h + self.wl_h) - self.gains)


def _partial_gains(dist, c: float, a: float, b: float) -> float:
    """E[(v - c)^+ 1{a < v <= b}], exact."""
    lo = max(a, c)
    if b <= lo:
        return 0.0
    cdf_b = 1.0 if math.isinf(b) else float(dist.cdf(b))
    return float(dist.partial_mean(lo, b)) - c * (cdf_b - float(dist.cdf(lo)))


def _inverse_integral(terms, inverse, u0: float, u1: float, top: float, c: float) -> float:
    """Integral over y in [u0, u1] of P(y) = max(inverse(clip(y, 0, top)), c),
    where inverse is a monotone inverse of G = sum of w * F over the (w, F)
    terms. P is flat beyond each clip and where the cost binds (on one side
    of y = G(c)); those stretches sit at the ends of its range, so P^-1 = G
    in between and int P dy + int P^-1 dx = [y P(y)] is exact, with
    int G dx = [x G(x)] - sum of w * partial mean."""
    x0, x1 = (max(float(inverse(min(max(u, 0.0), top))), c) for u in (u0, u1))
    moment = sum(w * float(d.partial_mean(min(x0, x1), max(x0, x1))) for w, d in terms)

    def forward(x):
        return sum(w * float(d.cdf(x)) for w, d in terms)

    return (moment if x0 <= x1 else -moment) + x1 * (u1 - forward(x1)) - x0 * (u0 - forward(x0))


def _shift_revenue(slice_, seg, fa: float, fb: float) -> float:
    """Revenue of a quantile-shift or gap-inverse segment over the own-group
    cdf range [fa, fb]: its price is G^-1 at y = shift + sign * F_own(v)."""
    if seg.formula == "quantile_shift":
        dst = slice_.f_h if seg.theta == "l" else slice_.f_l
        terms, inverse, top = ((1.0, dst),), dst.quantile, 1.0 - TAIL_MASS
        shift, sign = seg.param("offset"), 1.0
    else:
        branch = "lower" if seg.formula == "delta_lower_inverse_shift" else "upper"
        terms, top = ((1.0, slice_.f_l), (-1.0, slice_.f_h)), gap_profile(slice_).tv
        inverse = lambda y: delta_inverse(slice_, y, branch)
        shift, sign = (seg.param("offset"), 1.0) if branch == "lower" else (seg.param("level"), -1.0)
    u0, u1 = sorted((shift + sign * fa, shift + sign * fb))
    return _inverse_integral(terms, inverse, u0, u1, top, slice_.c)


def _piece_welfare(slice_, theta, piece):
    """(cs, profit) contribution of one sale piece; wl pieces are handled by
    the caller through exact partial gains."""
    a, b, seg, _ = piece
    dist = slice_.f_l if theta == "l" else slice_.f_h
    c = slice_.c
    if seg.formula in ("identity", "max_with_cost"):
        return 0.0, _partial_gains(dist, c, a, b)
    fa, fb = float(dist.cdf(a)), float(dist.cdf(b))
    if seg.formula == "constant":
        revenue = max(seg.param("price"), c) * (fb - fa)
    else:
        revenue = _shift_revenue(slice_, seg, fa, fb)
    return float(dist.partial_mean(a, b)) - revenue, revenue - c * (fb - fa)


@lru_cache(maxsize=512)
def welfare_report(rule: PricingRule, slice_: MarketSlice) -> WelfareReport:
    """Per-slice profit, consumer surplus, and welfare loss under a rule.

    For the optimal rule on a C1 slice the surplus numbers are additionally
    checked against the closed quantile-integral forms; disagreement beyond
    1e-6 relative raises ConsistencyError.
    """
    region = classify_region(slice_)
    out = {}
    for theta in ("l", "h"):
        dist = slice_.f_l if theta == "l" else slice_.f_h
        cs = profit = wl = 0.0
        for piece in sale_pieces(rule, slice_, theta):
            a, b, _, sale = piece
            if sale:
                dcs, dprofit = _piece_welfare(slice_, theta, piece)
                cs += dcs
                profit += dprofit
            else:
                wl += _partial_gains(dist, slice_.c, a, b)
        out[theta] = (max(cs, 0.0), profit, wl)
    alpha = slice_.alpha
    gains_l = slice_.f_l.gains_above(slice_.c)
    gains_h = slice_.f_h.gains_above(slice_.c)
    report = WelfareReport(
        c=slice_.c,
        alpha=alpha,
        region=region.value,
        profit=(1 - alpha) * out["l"][1] + alpha * out["h"][1],
        cs_l=out["l"][0],
        cs_h=out["h"][0],
        wl_l=out["l"][2],
        wl_h=out["h"][2],
        gains=(1 - alpha) * gains_l + alpha * gains_h,
    )
    if rule.name == "p_star" and region is Region.C1:
        cf_l, cf_h = surplus_closed_forms(slice_)
        for got, want, label in ((report.cs_l, cf_l, "low"), (report.cs_h, cf_h, "high")):
            if abs(got - want) > CLOSED_FORM_RTOL * max(abs(want), 1e-9):
                raise ConsistencyError(
                    f"{label}-group surplus disagrees with its closed form: "
                    f"integrated {got!r} vs closed {want!r}")
    return report


@lru_cache(maxsize=512)
def surplus_closed_forms(slice_: MarketSlice):
    """Quantile-integral surplus of the optimal rule on a C1 slice.

    Low group: over the discounted band, own quantile minus the matched
    partner quantile shifted down by the gap at the third cutoff. High group:
    over its discounted band, own quantile minus the partner quantile shifted
    up by the gap at the fourth cutoff.
    """
    k = solve_kappa(slice_)
    f_l, f_h = slice_.f_l, slice_.f_h
    d3 = float(delta(slice_, k.k3))
    d4 = float(delta(slice_, k.k4))

    def quantile_integral(dist, u0, u1):
        return _inverse_integral(((1.0, dist),), dist.quantile, u0, u1, 1.0, -math.inf)

    q2, q3 = float(f_l.cdf(k.k2)), float(f_l.cdf(k.k3))
    q4, q5 = float(f_h.cdf(k.k4)), float(f_h.cdf(k.k5))
    cs_l = quantile_integral(f_l, q2, q3) - quantile_integral(f_h, q2 - d3, q3 - d3)
    cs_h = quantile_integral(f_h, q4, q5) - quantile_integral(f_l, q4 + d4, q5 + d4)
    return cs_l, cs_h


ShareBound = namedtuple("ShareBound", ["bound", "weak_bound", "r"])


def profit_share_bound(slice_: MarketSlice) -> ShareBound:
    """Distribution-free lower bound on the profit share of total gains,
    driven only by the ratio of group gains from trade and the group shares."""
    gains_l = slice_.f_l.gains_above(slice_.c)
    gains_h = slice_.f_h.gains_above(slice_.c)
    if gains_l <= 1e-15:
        raise ZeroGains("low-group gains from trade vanish; the ratio bound is undefined")
    r = gains_h / gains_l - 1.0
    return ShareBound(bound=_bound_from_r(r, slice_.alpha), weak_bound=_weak_bound_from_r(r), r=r)


def _bound_from_r(r: float, alpha: float) -> float:
    return max(1.0, alpha * (r + 1.0)) / (alpha * r + 1.0)


def _weak_bound_from_r(r: float) -> float:
    return (r + 1.0) / (2.0 * r + 1.0)


def _as_weighted_slices(market_or_slice):
    if isinstance(market_or_slice, MarketSlice):
        return ((market_or_slice, 1.0),)
    if isinstance(market_or_slice, Market):
        return market_or_slice.slices
    raise ValidationError("expected a MarketSlice or a Market")


def uniform_price_revenue(market_or_slice):
    """Best single posted price across the market: maximizes the weighted sum
    of (p - c) times survival of the group mixture. The best cell of a
    4,001-point grid brackets it; Brent pins the sign change of the revenue's
    slope there, or else the better cell end is taken. Returns (price, revenue)."""
    pairs = _as_weighted_slices(market_or_slice)

    def mix(s, law, p):  # the group mixture's cdf or pdf
        return s.alpha * np.asarray(getattr(s.f_h, law)(p)) + (1 - s.alpha) * np.asarray(getattr(s.f_l, law)(p))

    def revenue(p):
        return sum(w * (p - s.c) * (1.0 - mix(s, "cdf", p)) for s, w in pairs)

    def slope(p):
        return float(sum(w * (1.0 - mix(s, "cdf", p) - (p - s.c) * mix(s, "pdf", p)) for s, w in pairs))

    lo = min(s.support_lo for s, _ in pairs)
    hi = max(s.cap() for s, _ in pairs)
    grid = np.linspace(lo, hi, 4001)
    i = int(np.argmax(revenue(grid)))
    a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])
    if slope(a) > 0.0 > slope(b):
        p_best = bisect(slope, a, b)
    else:
        p_best = max((a, b), key=revenue)
    return float(p_best), float(revenue(p_best))


def bbm_triangle(market: Market):
    """Vertices of the zero-cost surplus triangle spanned by segmentation:
    (full extraction, 0), (uniform revenue, 0), (uniform revenue, rest)."""
    for s, _ in market.slices:
        if abs(s.c) > 1e-12:
            raise UnsupportedConfiguration("surplus triangle is stated for zero-cost markets")
    ev = sum(w * (s.alpha * s.f_h.mean() + (1 - s.alpha) * s.f_l.mean())
             for s, w in market.slices)
    _, r_star = uniform_price_revenue(market)
    return ((ev, 0.0), (r_star, 0.0), (r_star, ev - r_star))

