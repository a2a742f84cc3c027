"""Piecewise pricing rules and their price-distribution pushforwards.

A rule is an ordered list of segments per group; each segment carries one of
six formula kinds. The builders of the optimal rules (p_star and the
noisy-value p_tilde_star) also attach what the construction says of each
branch: whether it sells, and its prices at its ends, read off the cutoffs
and the gap levels they share. The sale pieces and the price cells read
these, so a solve of an optimal rule inverts no gap; the benchmark rules
and rules built by hand are searched and evaluated numerically.

Each formula's preimage level is a gated affine form in the two group cdfs
(_level_form), so a price cdf needs the group cdfs at the price alone.
Between the prices where a gate switches or a segment's level leaves its
mass, the gap between the groups' price cdfs is a F_l + b F_h + const; the
non-discrimination checks take its supremum exactly on these cells
(_sup_gap), with no price grid.

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


def _level_form(seg: Segment, slice_: MarketSlice) -> tuple:
    """The segment's preimage level as a gated affine form (a, b, k, lo, hi):
    {v : price(v) <= x} = {v : F_own(v) <= y(x)} on the segment, where
    y(x) = a F_l(x) + b F_h(x) + k for lo <= x < hi, -inf (an empty set)
    for x < lo and +inf (the whole segment) for x >= hi.

    Every non-constant formula composes nondecreasing maps of F_own(v), so
    the set is a lower set and its level needs no quantile: the own cdf, the
    partner cdf minus the offset, the level minus the gap, or the gap minus
    the offset. The gap inverses' branches meet at v*, a constant price is a
    gate alone, and prices are clamped at cost, so nothing is priced below c."""
    c = slice_.c
    own = (1.0, 0.0) if seg.theta == "l" else (0.0, 1.0)
    if seg.formula == "constant":
        at = max(seg.param("price"), c)
        return 0.0, 0.0, 0.0, at, at
    if seg.formula in ("identity", "max_with_cost"):
        return *own, 0.0, c, math.inf
    if seg.formula == "quantile_shift":
        return own[1], own[0], -seg.param("offset"), c, math.inf
    v_star = gap_profile(slice_).v_star
    if seg.formula == "delta_upper_inverse_of_complement":
        return -1.0, 1.0, seg.param("level"), max(v_star, c), math.inf
    return 1.0, -1.0, -seg.param("offset"), c, v_star


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
    (_level_form); constant or clamped stretches contribute atoms."""

    rule: PricingRule
    theta: str
    atoms: tuple

    def cdf(self, x):
        grid = np.asarray(x, dtype=float)
        pieces = [(seg.v_lo, seg.v_hi, seg) for seg in self.rule.segments_for(self.theta)]
        out = _pushforward(self.rule.slice, pieces, grid.ravel()).reshape(grid.shape)
        return out if grid.shape else float(out)


def _level_tables(slice_: MarketSlice, x: np.ndarray, weighted_sets):
    """The group cdfs on the points x and a level table for each list of
    weighted pieces (w, v_lo, v_hi, seg), from one cdf call per group on x
    and the piece ends.

    A table holds, as columns with a row per piece that carries own mass,
    the piece's weight, its level form (_level_form) and its own-cdf masses
    at its ends (1 at an unbounded one)."""
    pieces = [p for weighted in weighted_sets for p in weighted]
    ends = np.array([e for _, lo, hi, _ in pieces for e in (lo, hi)], dtype=float)
    points = np.concatenate([x, ends])
    cdf_l, cdf_h = np.asarray(slice_.f_l.cdf(points)), np.asarray(slice_.f_h.cdf(points))
    low = np.repeat([seg.theta == "l" for *_, seg in pieces], 2)
    own = np.where(low, cdf_l[x.size:], cdf_h[x.size:])
    rows = np.array([(w, *_level_form(seg, slice_)) for w, _, _, seg in pieces], dtype=float)
    table = np.column_stack([rows.reshape(-1, 6), own[::2], np.where(np.isinf(ends[1::2]), 1.0, own[1::2])])
    tables, at = [], 0
    for weighted in weighted_sets:
        part, at = table[at:at + len(weighted)], at + len(weighted)
        carries_mass = part[:, 7] > part[:, 6]
        tables.append(tuple(col[:, None] for col in part[carries_mass].T))
    return cdf_l[:x.size], cdf_h[:x.size], tables


def _price_mass(table, gate_x, cdf_l, cdf_h):
    """The table's weighted sum of each piece's own mass priced at or below
    each point: the piece's gate read at gate_x and its affine level at the
    group cdfs cdf_l and cdf_h, clipped to the piece's masses. Also the
    weighted sums of the coefficients (a, b) of the levels that are live
    and strictly inside their clip there."""
    w, a, b, k, lo, hi, mass_lo, mass_hi = table
    y = a * cdf_l + b * cdf_h + k
    empty, full = gate_x < lo, gate_x >= hi
    mass = np.where(empty, mass_lo, np.where(full, mass_hi, y.clip(mass_lo, mass_hi))) - mass_lo
    inside = w * (~empty & ~full & (mass_lo < y) & (y < mass_hi))
    return (w * mass).sum(axis=0), (a * inside).sum(axis=0), (b * inside).sum(axis=0)


def _pushforward(slice_: MarketSlice, pieces, x: np.ndarray) -> np.ndarray:
    """P(value in some piece, price <= x) over one group's value pieces
    (v_lo, v_hi, seg) at the prices x, clipped to [0, 1]."""
    cdf_l, cdf_h, (table,) = _level_tables(slice_, x, [[(1.0, *p) for p in pieces]])
    return _price_mass(table, x, cdf_l, cdf_h)[0].clip(0.0, 1.0)


def price_cdf(rule: PricingRule, slice_: MarketSlice, theta: str) -> PriceDistribution:
    """Exact piecewise pushforward of the theta-group values through the rule.
    Its atoms are each constant segment's mass at its price and each other
    segment's clamped mass at cost (masses above 1e-15)."""
    atoms = []
    for seg in rule.segments_for(theta):
        at = max(seg.param("price"), slice_.c) if seg.formula == "constant" else slice_.c
        mass = float(_pushforward(slice_, [(seg.v_lo, seg.v_hi, seg)], np.array([at]))[0])
        if mass > 1e-15:
            atoms.append((at, mass))
    merged = {}
    for p, m in atoms:
        merged[p] = merged.get(p, 0.0) + m
    return PriceDistribution(rule=rule, theta=theta, atoms=tuple(sorted(merged.items())))


def _price_points(slice_: MarketSlice, pieces) -> list:
    """The prices that cut the price axis into cells for value pieces
    (v_lo, v_hi, seg) of both groups: c, v*, the working cap and each
    piece's prices at its ends below the cap, where a piece's level leaves
    its clip. At its segment's own end, a piece takes the price the builder
    attached there, if any; other ends are evaluated."""
    cap = slice_.cap()
    points = [slice_.c, gap_profile(slice_).v_star, cap]
    for lo, hi, seg in pieces:
        hi_eff = min(hi, cap)
        if hi_eff <= lo:
            continue
        known = seg.end_prices or (None, None)
        for v, end, p in ((lo, seg.v_lo, known[0]), (hi_eff, seg.v_hi, known[1])):
            points.append(_eval_formula(seg, slice_, float(v)) if p is None or v != end else p)
    return points


def _sup_gap(slice_: MarketSlice, points: list, piece_sets) -> float:
    """Supremum over prices x of |P_l(x) - P_h(x)|, the largest over the
    sets of value pieces (v_lo, v_hi, seg) of both groups, with P_theta the
    theta-group's mass in the set's pieces priced at or below x
    (_pushforward).

    The points, clamped at cost, cut the price axis into cells, and the top
    point is a cell of its own. Every gate switches at a point (c, v* or a
    constant's price), so each piece's gate is read at the cell midpoint.
    A live piece's level is then evaluated at both cell ends and clipped to
    its masses: that is the value at the left end and the left limit at the
    right one, with no epsilon. Since the points hold each piece's end
    prices, a level leaves its clip only at a cell end, so on a cell
    P_l - P_h is a F_l + b F_h + const, with (a, b) the summed coefficients
    of the levels strictly inside their clip at the midpoint. The
    likelihood-ratio order lets its slope a f_l + b f_h change sign at most
    once in a cell; where both a and b are nonzero, that root is bisected
    to adjacent floats, as a sale flag's flip is (_grid_flips)."""
    bp = np.unique(np.maximum(np.asarray(points, dtype=float), slice_.c))
    n = bp.size
    mid = 0.5 * (bp[:-1] + bp[1:])
    weighted_sets = [[(1.0 if seg.theta == "l" else -1.0, lo, hi, seg) for lo, hi, seg in pieces]
                     for pieces in piece_sets]
    cdf_l, cdf_h, tables = _level_tables(slice_, np.concatenate([bp, mid]), weighted_sets)
    # columns: each cell's left end, its right end, then the midpoints
    cols = np.concatenate([np.arange(n), np.arange(1, n), [n - 1], np.arange(n, 2 * n - 1)])
    gate = np.concatenate([mid, bp[-1:], mid, bp[-1:], mid])
    fl, fh = cdf_l[cols], cdf_h[cols]
    sup = 0.0
    for table in tables:
        gap, a, b = _price_mass(table, gate, fl, fh)
        sup = max(sup, float(np.abs(gap).max()))
        a, b = a[2 * n:], b[2 * n:]
        for j in np.flatnonzero((a != 0.0) & (b != 0.0)):
            root = _slope_root(slice_, a[j], b[j], bp[j], bp[j + 1])
            if root is not None:
                at_root = _price_mass(table, root, slice_.f_l.cdf(root), slice_.f_h.cdf(root))[0]
                sup = max(sup, abs(float(at_root[0])))
    return sup


def _slope_root(slice_: MarketSlice, a: float, b: float, lo: float, hi: float):
    """The sign change of a f_l + b f_h strictly between the signs at lo and
    hi, bisected to adjacent floats; None when the signs agree."""
    def slope(v):
        return a * slice_.f_l.pdf(v) + b * slice_.f_h.pdf(v)

    s_lo = slope(lo)
    if not s_lo * slope(hi) < 0.0:
        return None
    return invert_monotone(lambda v: float((slope(v) > 0.0) != (s_lo > 0.0)), 0.5, lo, hi)


def check_nondiscrimination(rule: PricingRule, slice_: MarketSlice) -> float:
    """Supremum over all prices of the gap between the two groups' price
    cdfs, exact on the rule's own price cells (_sup_gap); a rule passes when
    the gap is at most 1e-6. Each group's value cdf is evaluated once, on
    the cell ends, their midpoints and the segment ends."""
    segs = [(seg.v_lo, seg.v_hi, seg) for seg in rule.segments]
    return _sup_gap(slice_, _price_points(slice_, segs), [segs])


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
    """Cuts of [lo, hi] at the sale-flag flips seen on a 129-point grid, each
    bisected to adjacent floats: the search for gap-inverse segments that
    may sell."""
    grid = np.linspace(lo, hi, 129)
    flags = _no_sale(seg, slice_, grid)
    cuts = [lo]
    for i in np.flatnonzero(flags[:-1] != flags[1:]):
        root = invert_monotone(lambda v, flag=flags[i]: float(_no_sale(seg, slice_, v) != flag),
                               0.5, grid[i], grid[i + 1])
        if cuts[-1] < root < hi:
            cuts.append(root)
    return cuts + [hi]


def check_outcome_nondiscrimination(rule: PricingRule, slice_: MarketSlice) -> float:
    """Supremum gap between the groups' joint (price, sale) distributions;
    a rule induces non-discriminatory outcomes iff this is at most 1e-6.
    Detects the stronger outcome-level discrimination that the price cdf
    alone cannot see. Exact on the price cells of the check above, with the
    prices at the ends of each sale piece added to its points."""
    pieces = [p for theta in ("l", "h") for p in sale_pieces(rule, slice_, theta)]
    points = _price_points(slice_, [p[:3] for p in pieces])
    return _sup_gap(slice_, points, [[p[:3] for p in pieces if p[3] == sale] for sale in (True, False)])


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
