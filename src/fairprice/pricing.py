"""Piecewise pricing rules and their price-distribution pushforwards.

A rule is an ordered list of segments per group; each segment carries one of
six formula kinds. The builders of the optimal rules (p_star and the
noisy-value p_tilde_star) also attach what the construction says of each
branch: whether it sells, and its prices at its ends, read off the cutoffs
and the gap levels they share. The sale pieces and the price grid read
these, so a solve of an optimal rule inverts no gap; the benchmark rules
and rules built by hand are searched and evaluated numerically.

Every emitted price is clamped below at cost, so a clamped stretch of a
monotone segment shows up as an atom at cost in the pushforward without any
segment surgery: the preimage levels route x < c to an empty preimage and
x >= c to the unclamped preimage.

Segment intervals are left-closed/right-open; the cutoff displays use mixed
weak/strict inequalities at breakpoints, which differ only on a measure-zero
set. The auxiliary randomization index is dropped from all signatures because
every constructed rule is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cutoffs import Region, classify_region, solve_eta, solve_kappa, solve_kappa_tilde
from .dist import TAIL_MASS, MarketSlice, _upper_gap_end, delta, delta_inverse, gap_profile
from .errors import OutOfRange, ValidationError
from .numerics import invert_monotone

FORMULAS = (
    "identity",
    "max_with_cost",
    "constant",
    "quantile_shift",
    "delta_upper_inverse_of_complement",
    "delta_lower_inverse_shift",
)

NONDISCRIMINATION_TOL = 1e-6
PRICE_GRID = 10_001
# formulas whose sale flag flips only at closed-form points (_flip_candidates)
CLOSED_FORM_FLIPS = ("identity", "max_with_cost", "constant", "quantile_shift")


@dataclass(frozen=True)
class Segment:
    """One branch of a rule on [v_lo, v_hi). A rule builder may attach what
    its construction knows: sale, whether every value of the segment buys
    (None: sale_pieces finds where the flag flips), and end_prices, the
    formula's prices at v_lo and v_hi before the cost clamp (None for an
    end it does not know; an empty tuple for neither)."""

    theta: str
    v_lo: float
    v_hi: float
    formula: str
    params: tuple = ()
    tag: str = ""
    sale: bool | None = None
    end_prices: tuple = ()

    def __post_init__(self):
        if self.theta not in ("l", "h"):
            raise ValidationError(f"theta must be 'l' or 'h', got {self.theta!r}")
        if self.formula not in FORMULAS:
            raise ValidationError(f"unknown formula {self.formula!r}")
        object.__setattr__(self, "params", tuple((str(k), float(v)) for k, v in self.params))

    def param(self, key: str) -> float:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)


@dataclass(frozen=True)
class PricingRule:
    name: str
    slice: MarketSlice
    segments: tuple
    notes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "notes", tuple(self.notes))
        for theta in ("l", "h"):
            _audit_partition(self.segments_for(theta), self.slice, theta)

    def segments_for(self, theta: str):
        return tuple(s for s in self.segments if s.theta == theta)

    def price(self, theta: str, v):
        """Price faced by a theta-consumer with value v (vectorized)."""
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.empty_like(v_arr)
        out[:] = np.nan
        segs = self.segments_for(theta)
        for i, seg in enumerate(segs):
            mask = (v_arr >= seg.v_lo) & (v_arr < seg.v_hi)
            if i == len(segs) - 1:
                mask |= v_arr >= seg.v_hi
            if i == 0:
                mask |= v_arr < seg.v_lo
            if np.any(mask):
                out[mask] = _eval_formula(seg, self.slice, v_arr[mask])
        out = np.maximum(out, self.slice.c)
        return out if np.asarray(v).shape else float(out[0])


def _audit_partition(segments, slice_, theta):
    if not segments:
        raise ValidationError(f"no segments for theta={theta}")
    lo, hi = slice_.support_lo, slice_.support_hi
    cursor = lo
    for seg in segments:
        if abs(seg.v_lo - cursor) > 1e-9 * max(1.0, abs(cursor)):
            raise ValidationError(
                f"segments for theta={theta} leave a gap/overlap at {cursor!r} vs {seg.v_lo!r}")
        if seg.v_hi < seg.v_lo:
            raise ValidationError("segment with negative width")
        cursor = seg.v_hi
    if math.isinf(hi):
        if not math.isinf(cursor):
            raise ValidationError(f"segments for theta={theta} do not cover the unbounded support")
    elif abs(cursor - hi) > 1e-9 * max(1.0, abs(hi)):
        raise ValidationError(f"segments for theta={theta} stop at {cursor!r} before {hi!r}")


def _eval_formula(seg: Segment, slice_: MarketSlice, v):
    """The segment's price at v before the cost clamp: a float for a float v,
    which takes the distributions' scalar paths, else a float array."""
    scalar = isinstance(v, float)
    if not scalar:
        v = np.asarray(v, dtype=float)
    if seg.formula == "identity":
        return v
    if seg.formula == "max_with_cost":
        return np.maximum(v, slice_.c)
    if seg.formula == "constant":
        return seg.param("price") if scalar else np.full_like(v, seg.param("price"))
    if seg.formula == "quantile_shift":
        src = slice_.f_l if seg.theta == "l" else slice_.f_h
        dst = slice_.f_h if seg.theta == "l" else slice_.f_l
        q = src.cdf(v) + seg.param("offset")
        # min(max(.)) is np.clip on a float, NaN and -0.0 kept
        q = min(max(q, 0.0), 1.0 - TAIL_MASS) if scalar else np.clip(q, 0.0, 1.0 - TAIL_MASS)
        return dst.quantile(q)
    own = slice_.f_l if seg.theta == "l" else slice_.f_h
    if seg.formula == "delta_upper_inverse_of_complement":
        return delta_inverse(slice_, seg.param("level") - own.cdf(v), "upper")
    if seg.formula == "delta_lower_inverse_shift":
        return delta_inverse(slice_, own.cdf(v) + seg.param("offset"), "lower")
    raise ValidationError(seg.formula)


def _group_cdfs(slice_: MarketSlice, x: np.ndarray):
    """F_l(x) and F_h(x) as float arrays: the two group cdfs on the price
    points, evaluated once for every segment of both groups."""
    return np.asarray(slice_.f_l.cdf(x)), np.asarray(slice_.f_h.cdf(x))


def _preimage_level(seg: Segment, slice_: MarketSlice, x: np.ndarray, cdfs):
    """Own-group cdf level y(x) with {v : price(v) <= x} = {v : F_own(v) <= y(x)}
    on the segment: -inf when that set is empty, +inf when it is everything.

    Every non-constant formula composes nondecreasing maps of F_own(v), so the
    set is a lower set and its level needs no quantile: the partner cdf minus
    the offset, the level minus the gap, or the gap minus the offset. All are
    read from cdfs, the group cdfs on x (_group_cdfs); F_l(x) - F_h(x) is the
    gap as dist.delta computes it."""
    cdf_l, cdf_h = cdfs
    own, partner = (cdf_l, cdf_h) if seg.theta == "l" else (cdf_h, cdf_l)
    if seg.formula == "constant":
        y = np.where(x >= max(seg.param("price"), slice_.c) - 1e-12, np.inf, -np.inf)
    elif seg.formula in ("identity", "max_with_cost"):
        y = own
    elif seg.formula == "quantile_shift":
        y = partner - seg.param("offset")
    elif seg.formula == "delta_upper_inverse_of_complement":
        y = np.where(x < gap_profile(slice_).v_star - 1e-12, -np.inf, seg.param("level") - (cdf_l - cdf_h))
    else:
        y = np.where(x >= gap_profile(slice_).v_star, np.inf, (cdf_l - cdf_h) - seg.param("offset"))
    # prices are clamped at cost: below-cost queries have empty preimages
    return np.where(x < slice_.c - 1e-12, -np.inf, y)


def _segments(slice_, theta, breaks, formulas, tags, params, sales=(), end_prices=()):
    """Assemble left-closed/right-open segments between the breaks clipped
    to the support, dropping empty intervals. sales and end_prices, where
    given, are each segment's sale flag and its prices at its two breaks
    as the construction knows them; an end price is kept only at a break
    that the clipping left in place."""
    lo, hi = slice_.support_lo, slice_.support_hi
    clipped = [min(max(p, lo), hi) for p in breaks]
    out = []
    for i, (formula, tag, prm) in enumerate(zip(formulas, tags, params)):
        a, b = clipped[i], clipped[i + 1]
        if b <= a:
            continue
        ends = end_prices[i] if end_prices else ()
        if ends:
            ends = tuple(p if x == y else None for p, x, y in zip(ends, breaks[i:i + 2], (a, b)))
        out.append(Segment(theta=theta, v_lo=a, v_hi=b, formula=formula, params=prm, tag=tag,
                           sale=sales[i] if sales else None, end_prices=ends))
    return out


def _c1_segments(slice_: MarketSlice, k):
    """Five-cutoff branch structure of the region-C1 rule for a cutoff vector
    k; the noisy-value rule reuses it with its own cutoffs.

    The gap-level equalities F_l(k2) = Delta(k3) + F_h(k1) = Delta(k4) =
    Delta(k5) give the end prices: the low group's priced-out prices run
    from k5 down the upper branch to its end U, its discounted ones from k1
    to k3; the high group's priced-out prices run from k3 to k4 on the
    lower branch, its discounted ones from k4 to k5."""
    lo, hi = slice_.support_lo, slice_.support_hi
    f_l, f_h = slice_.f_l, slice_.f_h
    d5 = float(delta(slice_, k.k5))
    d4 = float(delta(slice_, k.k4))
    d3 = float(delta(slice_, k.k3))
    segs = _segments(
        slice_, "l", [lo, k.k2, k.k3, hi],
        ["delta_upper_inverse_of_complement", "quantile_shift", "identity"],
        ["priced-out", "discounted-shift", "full-extraction"],
        [(("level", d5),),
         (("offset", float(f_h.cdf(k.k1)) - float(f_l.cdf(k.k2))),),
         ()],
        [False, True, True],
        [(k.k5, _upper_gap_end(f_l, f_h)), (k.k1, k.k3), ()],
    )
    segs += _segments(
        slice_, "h", [lo, k.k1, k.k4, k.k5, hi],
        ["delta_lower_inverse_shift", "identity", "quantile_shift", "identity"],
        ["priced-out", "full-extraction", "discounted-shift", "full-extraction"],
        [(("offset", d3),), (), (("offset", d4),), ()],
        [False, True, True, True],
        [(k.k3, k.k4), (), (k.k4, k.k5), ()],
    )
    return segs


@lru_cache(maxsize=512)
def build_p_star(slice_: MarketSlice) -> PricingRule:
    """Profit-maximizing non-discriminatory rule, dispatched on the region."""
    region = classify_region(slice_)
    lo, hi = slice_.support_lo, slice_.support_hi
    gp = gap_profile(slice_)
    f_l, f_h = slice_.f_l, slice_.f_h
    c = slice_.c
    notes = []

    if region is Region.C1:
        k = solve_kappa(slice_)
        segs = _c1_segments(slice_, k)
        if k.k2 > lo + 1e-15:
            notes.append("upper-branch gap inverse caps prices at the larger 1-1e-13 quantile of the "
                         "two groups (the end of its gap table) near the priced-out boundary")
    elif region is Region.C2:
        # the low shift's level runs from tv at eta_l to 0 at c, the high
        # shift's from Delta(c) at eta_h to tv at c
        eta = solve_eta(slice_)
        segs = _segments(
            slice_, "l", [lo, eta.eta_l, c, hi],
            ["constant", "delta_upper_inverse_of_complement", "identity"],
            ["priced-out", "priced-out-shift", "full-extraction"],
            [(("price", c),), (("level", gp.tv + float(f_l.cdf(eta.eta_l))),), ()],
            [False, False, True],
            [(), (gp.v_star, _upper_gap_end(f_l, f_h)), ()],
        )
        segs += _segments(
            slice_, "h", [lo, eta.eta_h, c, hi],
            ["constant", "delta_lower_inverse_shift", "identity"],
            ["priced-out", "priced-out-shift", "full-extraction"],
            [(("price", c),),
             (("offset", float(delta(slice_, c)) - float(f_h.cdf(eta.eta_h))),),
             ()],
            [False, False, True],
            [(), (c, gp.v_star), ()],
        )
    else:
        # the low shift's level runs from Delta(c) at the split to 0 at c >= v*
        split = float(f_l.quantile(float(f_h.cdf(c))))
        segs = _segments(
            slice_, "l", [lo, split, c, hi],
            ["constant", "delta_upper_inverse_of_complement", "identity"],
            ["priced-out", "priced-out-shift", "full-extraction"],
            [(("price", c),), (("level", float(f_l.cdf(c))),), ()],
            [False, False, True],
            [(), (c, _upper_gap_end(f_l, f_h)), ()],
        )
        segs += _segments(slice_, "h", [lo, hi], ["max_with_cost"], ["full-extraction"], [()])
    return PricingRule(name="p_star", slice=slice_, segments=tuple(segs), notes=tuple(notes))


@lru_cache(maxsize=512)
def build_p_ass(slice_: MarketSlice) -> PricingRule:
    """Assortative rule: equal-quantile pairs pay the lower value of the pair
    (clamped at cost)."""
    lo, hi = slice_.support_lo, slice_.support_hi
    segs = (
        Segment(theta="l", v_lo=lo, v_hi=hi, formula="max_with_cost", tag="own-value"),
        Segment(theta="h", v_lo=lo, v_hi=hi, formula="quantile_shift",
                params=(("offset", 0.0),), tag="assortative-partner-value"),
    )
    return PricingRule(name="p_ass", slice=slice_, segments=segs)


def build_p_anti(slice_: MarketSlice, q: float) -> PricingRule:
    """Partly anti-assortative rule at quantile split q: high-value low-group
    consumers are matched down by q quantiles, the rest are matched into the
    top tail and priced out."""
    if not (0.0 <= q <= 1.0):
        raise OutOfRange(f"quantile split must lie in [0, 1], got {q}")
    lo, hi = slice_.support_lo, slice_.support_hi
    vq = float(slice_.f_l.quantile(q)) if q < 1.0 else hi
    vq = min(max(vq, lo), hi)
    segs = _segments(
        slice_, "l", [lo, vq, hi],
        ["quantile_shift", "quantile_shift"],
        ["priced-out-shift", "anti-assortative-shift"],
        [(("offset", 1.0 - q),), (("offset", -q),)],
    )
    segs.append(Segment(theta="h", v_lo=lo, v_hi=hi, formula="max_with_cost", tag="own-value"))
    notes = ("low-group priced-out branch caps prices at the 1-1e-10 quantile",) if q > 0 else ()
    return PricingRule(name=f"p_anti(q={q:g})", slice=slice_, segments=tuple(segs), notes=notes)


def q_star(slice_: MarketSlice) -> float:
    """Smallest quantile split under which every matched-down low-group
    consumer purchases: the total variation distance."""
    return gap_profile(slice_).tv


@lru_cache(maxsize=128)
def build_p_tilde_star(slice_: MarketSlice) -> PricingRule:
    """Optimal rule under noisy values (uniform on [0, 2v]); same branch
    structure as the C1 rule with the noisy-variant cutoffs substituted."""
    segs = _c1_segments(slice_, solve_kappa_tilde(slice_))
    return PricingRule(name="p_tilde_star", slice=slice_, segments=tuple(segs))


def build_perfect_discrimination(slice_: MarketSlice) -> PricingRule:
    """Each consumer pays their own value (clamped at cost); the benchmark a
    non-discrimination check must flag."""
    lo, hi = slice_.support_lo, slice_.support_hi
    segs = (
        Segment(theta="l", v_lo=lo, v_hi=hi, formula="max_with_cost", tag="own-value"),
        Segment(theta="h", v_lo=lo, v_hi=hi, formula="max_with_cost", tag="own-value"),
    )
    return PricingRule(name="perfect_discrimination", slice=slice_, segments=segs)


@dataclass(frozen=True)
class PriceDistribution:
    """Pushforward of a group's value distribution through a pricing rule:
    each segment contributes the own-cdf mass below its preimage level
    (_preimage_level); constant or clamped stretches contribute atoms."""

    rule: PricingRule
    theta: str
    atoms: tuple

    def cdf(self, x):
        grid = np.atleast_1d(np.asarray(x, dtype=float))
        out = _rule_price_cdf(self.rule, self.theta, grid, _group_cdfs(self.rule.slice, grid))
        return out if np.asarray(x).shape else float(out[0])


def _rule_price_cdf(rule: PricingRule, theta: str, x: np.ndarray, cdfs) -> np.ndarray:
    """The theta-group price cdf at the prices x, summed over its segments;
    cdfs are the group cdfs on x (_group_cdfs)."""
    pieces = [(seg.v_lo, seg.v_hi, seg) for seg in rule.segments_for(theta)]
    return np.clip(_pushforward(rule.slice, theta, pieces, x, cdfs), 0.0, 1.0)


def _pushforward(slice_: MarketSlice, theta: str, pieces, x: np.ndarray, cdfs) -> np.ndarray:
    """P(value in some piece, price <= x) for the theta-group over value
    pieces (a, b, seg): the piece's own-cdf mass below the preimage level,
    read from the group cdfs on x (_group_cdfs)."""
    dist = slice_.f_l if theta == "l" else slice_.f_h
    total = np.zeros_like(x)
    for a, b, seg in pieces:
        mass_lo = float(dist.cdf(a))
        mass_hi = float(dist.cdf(b)) if math.isfinite(b) else 1.0
        if mass_hi - mass_lo <= 0.0:
            continue
        total += np.clip(_preimage_level(seg, slice_, x, cdfs), mass_lo, mass_hi) - mass_lo
    return total


def price_cdf(rule: PricingRule, slice_: MarketSlice, theta: str) -> PriceDistribution:
    """Exact piecewise pushforward of the theta-group values through the rule.
    Its atoms are each constant segment's mass at its price and each other
    segment's clamped mass at cost (masses above 1e-15)."""
    atoms = []
    for seg in rule.segments_for(theta):
        at = max(seg.param("price"), slice_.c) if seg.formula == "constant" else slice_.c
        x = np.array([at])
        mass = float(_pushforward(slice_, theta, [(seg.v_lo, seg.v_hi, seg)], x, _group_cdfs(slice_, x))[0])
        if mass > 1e-15:
            atoms.append((at, mass))
    merged = {}
    for p, m in atoms:
        merged[p] = merged.get(p, 0.0) + m
    return PriceDistribution(rule=rule, theta=theta, atoms=tuple(sorted(merged.items())))


def _price_grid(rule: PricingRule, slice_: MarketSlice) -> np.ndarray:
    """A uniform price grid refined at c, v* and each segment's prices at
    its ends (below the working cap), taken from the segment where its
    builder attached them."""
    cap = slice_.cap()
    points = [slice_.c, gap_profile(slice_).v_star]
    for seg in rule.segments:
        hi_eff = min(seg.v_hi, cap)
        if hi_eff <= seg.v_lo:
            continue
        known = seg.end_prices or (None, None)
        if hi_eff < seg.v_hi:
            known = (known[0], None)
        points += [float(np.maximum(_eval_formula(seg, slice_, v) if p is None else p, slice_.c))
                   for v, p in zip((float(seg.v_lo), float(hi_eff)), known)]
    lo_p, hi_p = min(points), max(max(points), cap)
    grid = np.linspace(lo_p, hi_p, PRICE_GRID)
    extra = np.asarray(points, dtype=float)
    eps = 1e-9 * max(1.0, hi_p)
    return np.unique(np.concatenate([grid, extra, extra - eps, extra + eps]))


def check_nondiscrimination(rule: PricingRule, slice_: MarketSlice) -> float:
    """Supremum over a refined price grid of the gap between the two groups'
    price cdfs; a rule passes when the gap is at most 1e-6. Each group's
    value cdf is evaluated once on the grid."""
    grid = _price_grid(rule, slice_)
    cdfs = _group_cdfs(slice_, grid)
    gap = _rule_price_cdf(rule, "l", grid, cdfs) - _rule_price_cdf(rule, "h", grid, cdfs)
    return float(np.max(np.abs(gap)))


def sale_pieces(rule: PricingRule, slice_: MarketSlice, theta: str):
    """Partition each segment into maximal stretches of constant sale
    indicator (value at or above price), as (a, b, seg, sale) tuples.

    A segment whose builder attached its sale flag (every branch of the
    optimal rules but the cost-clamped one of C3) is one piece with that
    flag: the flag comes from the cutoffs, so no rounding of a price can
    contradict it. The search below serves the rest. On identity,
    cost-clamped, constant and quantile-shift segments the flag can flip
    only at closed-form points (_flip_candidates). Gap-inverse segments,
    which only hand-built rules have, locate their flips on a 129-point
    grid, bisected to adjacent floats.
    Each stretch between cuts takes the flag at its midpoint, and
    neighbours with the same flag merge. The search stops at the working
    cap: the last stretch below it runs on to infinity.
    """
    cap = slice_.cap()
    pieces = []
    for seg in rule.segments_for(theta):
        lo, hi_eff = float(seg.v_lo), float(min(seg.v_hi, cap))
        if hi_eff <= lo:
            continue
        end = math.inf if seg.v_hi > cap else hi_eff
        if seg.sale is not None:
            pieces.append((lo, end, seg, seg.sale))
            continue
        if seg.formula in CLOSED_FORM_FLIPS:
            cuts = [lo, *sorted(_flip_candidates(seg, slice_, lo, hi_eff)), hi_eff]
        else:
            cuts = _grid_flips(seg, slice_, lo, hi_eff)
        sales = ~_no_sale(seg, slice_, 0.5 * (np.asarray(cuts[:-1]) + np.asarray(cuts[1:])))
        ends = cuts[1:-1] + [end]
        start = lo
        for i, sale in enumerate(sales):
            if i + 1 == len(sales) or sales[i + 1] != sale:
                pieces.append((start, ends[i], seg, bool(sale)))
                start = ends[i]
    return pieces


def _no_sale(seg: Segment, slice_: MarketSlice, v: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(_eval_formula(seg, slice_, v)), slice_.c) > v


def _flip_candidates(seg: Segment, slice_: MarketSlice, lo: float, hi: float) -> set:
    """Points in (lo, hi) between which a closed-form segment's sale flag
    (max(price, c) <= v) is constant.

    Besides c and a constant price: a quantile-shift price Q_dst(F_src(v) +
    offset) is at most v exactly where F_src(v) + offset <= F_dst(v), that is
    where the gap F_l - F_h is at most -offset (low group) or at least
    offset (high group). The gap is quasi-concave, so that set is an
    interval or the complement of one, ending at the two branch roots at
    that level, or it is empty, everything, or v* alone. Where F_src(v) +
    offset leaves [0, 1 - TAIL_MASS], the price is clipped flat; on the top
    clip it is Q_dst(1 - TAIL_MASS)."""
    points = [slice_.c]
    if seg.formula == "constant":
        points.append(seg.param("price"))
    elif seg.formula == "quantile_shift":
        src, dst = (slice_.f_l, slice_.f_h) if seg.theta == "l" else (slice_.f_h, slice_.f_l)
        offset = seg.param("offset")
        level = -offset if seg.theta == "l" else offset
        gp = gap_profile(slice_)
        if level >= gp.tv:
            points.append(gp.v_star)
        elif level > 0.0:
            points += [float(delta_inverse(slice_, level, branch)) for branch in ("lower", "upper")]
        f_lo, f_hi = float(src.cdf(lo)), float(src.cdf(hi))
        for clip in (0.0, 1.0 - TAIL_MASS):
            if f_lo < clip - offset < f_hi:
                points.append(float(src.quantile(clip - offset)))
        if f_hi + offset > 1.0 - TAIL_MASS:
            points.append(float(dst.quantile(1.0 - TAIL_MASS)))
    return {p for p in points if lo < p < hi}


def _grid_flips(seg: Segment, slice_: MarketSlice, lo: float, hi: float) -> list:
    """Cuts of [lo, hi] at the sale-flag flips seen on a 129-point grid, all
    bisected to adjacent floats at once: the search for gap-inverse segments
    that may sell."""
    grid = np.linspace(lo, hi, 129)
    flags = _no_sale(seg, slice_, grid)
    flips = np.flatnonzero(flags[:-1] != flags[1:])
    roots = invert_monotone(
        lambda v: (_no_sale(seg, slice_, v) != flags[flips]).astype(float),
        np.full(len(flips), 0.5), grid[flips], grid[flips + 1])
    cuts = [lo]
    for root in roots:
        if cuts[-1] < root < hi:
            cuts.append(float(root))
    return cuts + [hi]


def check_outcome_nondiscrimination(rule: PricingRule, slice_: MarketSlice) -> float:
    """Supremum gap between the groups' joint (price, sale) distributions;
    a rule induces non-discriminatory outcomes iff this is at most 1e-6.
    Detects the stronger outcome-level discrimination that the price cdf
    alone cannot see."""
    grid = _price_grid(rule, slice_)
    cdfs = _group_cdfs(slice_, grid)
    pieces = {theta: sale_pieces(rule, slice_, theta) for theta in ("l", "h")}
    gap = 0.0
    for sale in (True, False):
        joint_l, joint_h = (
            _pushforward(slice_, theta, [p[:3] for p in pieces[theta] if p[3] == sale], grid, cdfs)
            for theta in ("l", "h"))
        gap = max(gap, float(np.max(np.abs(joint_l - joint_h))))
    return gap


def rule_to_dict(rule: PricingRule) -> dict:
    """JSON-ready document: array of segments with formula and parameters.
    Unbounded interval ends serialize as null."""
    return {
        "name": rule.name,
        "cost": rule.slice.c,
        "alpha": rule.slice.alpha,
        "notes": list(rule.notes),
        "segments": [
            {
                "theta": s.theta,
                "v_lo": s.v_lo,
                "v_hi": None if math.isinf(s.v_hi) else s.v_hi,
                "formula": s.formula,
                "params": dict(s.params),
                "tag": s.tag,
            }
            for s in rule.segments
        ],
    }
