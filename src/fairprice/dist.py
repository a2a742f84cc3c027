"""Distribution toolkit for two-group markets.

Absolutely continuous value distributions on an interval, the gap function
between the two group cdfs, and its branch inverses. All evaluation methods
accept scalars or numpy arrays.
A float (np.float64 included) takes a scalar path through cdf, pdf,
quantile and partial_mean (so gains_above) of the exponential, mixture and
cost-scaled families, and through the gap and its branch inverse: Python
arithmetic and the array path's numpy ufuncs on the float, with no array
round trip. The Newton iterations of the mixture quantile and the gap
inverse, and the bisection for the gap maximizer, run on floats step for
step. It gives the same bits as the array path, element for element; math's
functions differ from numpy's loops by an ulp and are not used.
Mixture quantiles are found by monotone Newton on the log survival function.
Gap inverses start from a per-slice table of each branch of the gap and
finish with safeguarded Newton steps on the density difference.

Unbounded supports are handled by capping numerical grids at
quantile(1 - 1e-10) and upper-branch gap tables at quantile(1 - 1e-13);
in-scope integrals have exponentially vanishing tails, so the caps are
harmless at the tolerances used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import DegenerateSlice, NoConvergence, OutOfRange, ValidationError
from .numerics import EPS, MAX_ITER, invert_monotone

TAIL_MASS = 1e-10
GRID_POINTS = 10_001
GAP_TABLE_POINTS = 257


class ValueDistribution:
    """Interface: cdf / pdf / quantile / partial_mean plus support bounds."""

    support_lo: float
    support_hi: float

    def cdf(self, v):
        raise NotImplementedError

    def pdf(self, v):
        raise NotImplementedError

    def quantile(self, q):
        raise NotImplementedError

    def partial_mean(self, a, b):
        """E[v * 1{a < v <= b}], exact per family."""
        raise NotImplementedError

    def cap(self) -> float:
        """Upper end of the numerical working range (cached per distribution)."""
        return _cap(self)

    def mean(self) -> float:
        return float(self.partial_mean(-math.inf, math.inf))

    def gains_above(self, c: float) -> float:
        """E[(v - c)^+], exact: partial mean above c minus c * survival."""
        c = max(float(c), 0.0)
        return float(self.partial_mean(c, math.inf)) - c * (1.0 - float(self.cdf(c)))


@lru_cache(maxsize=512)
def _cap(dist: ValueDistribution) -> float:
    hi = dist.support_hi
    return float(hi) if math.isfinite(hi) else float(dist.quantile(1.0 - TAIL_MASS))


def _values(v):
    """A float (np.float64 included) as itself, for the scalar path; anything
    else as a float array."""
    return v if isinstance(v, float) else np.asarray(v, dtype=float)


def _at_least_zero(v):
    """max(v, 0) as np.maximum gives it (NaN kept, -0.0 read as 0.0): a
    float stays a float, anything else becomes a float array."""
    if isinstance(v, float):
        return 0.0 if v <= 0.0 else v
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def _zero_below_support(v, dens):
    """dens where v >= 0 or v is NaN, else 0: a float for a scalar v."""
    if isinstance(v, float):
        return 0.0 if v < 0.0 else float(dens)
    out = np.where(np.asarray(v) < 0.0, 0.0, dens)
    return out if out.shape else float(out)


def _float_or_array(out):
    """A result with a shape as itself, any scalar one as a float."""
    return out if isinstance(out, np.ndarray) and out.shape else float(out)


def _exp_antiderivative(m, x):
    """E[v * 1{v <= x}] of an exponential of mean m, elementwise; a float for
    a float x. x <= 0 reads as 0, and x = inf or NaN gives m."""
    if isinstance(x, float):
        x = _at_least_zero(x)
        return m - (x + m) * float(np.exp(-x / m)) if x < math.inf else m
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    finite = np.isfinite(x)
    xf = np.where(finite, x, 0.0)
    return np.where(finite, m - (xf + m) * np.exp(-xf / m), m)


@dataclass(frozen=True)
class Exponential(ValueDistribution):
    mean_value: float

    def __post_init__(self):
        if not (self.mean_value > 0 and math.isfinite(self.mean_value)):
            raise ValidationError(f"exponential mean must be finite and positive, got {self.mean_value}")

    @property
    def support_lo(self):
        return 0.0

    @property
    def support_hi(self):
        return math.inf

    def cdf(self, v):
        out = -np.expm1(-_at_least_zero(v) / self.mean_value)
        return out if out.shape else float(out)

    def pdf(self, v):
        return _zero_below_support(v, np.exp(-_at_least_zero(v) / self.mean_value) / self.mean_value)

    def quantile(self, q):
        if isinstance(q, float):  # inf at q = 1, where the array path silences log1p's divide flag
            return math.inf if q == 1.0 else float(-self.mean_value * np.log1p(-q))
        q = np.asarray(q, dtype=float)
        with np.errstate(divide="ignore"):
            out = -self.mean_value * np.log1p(-q)
        return out if out.shape else float(out)

    def partial_mean(self, a, b):
        out = _exp_antiderivative(self.mean_value, b) - _exp_antiderivative(self.mean_value, a)
        return _float_or_array(out)


@dataclass(frozen=True)
class ExponentialMixture(ValueDistribution):
    weights: tuple
    means: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        if w.ndim != 1 or w.shape != m.shape or len(w) == 0:
            raise ValidationError("weights and means must be equal-length nonempty sequences")
        if not np.all(np.isfinite(w) & (w >= 0)) or abs(w.sum() - 1.0) > 1e-12:
            raise ValidationError("mixture weights must be finite, nonnegative and sum to 1")
        if not np.all(np.isfinite(m) & (m > 0)):
            raise ValidationError("mixture means must be finite and positive")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "means", tuple(float(x) for x in m))

    @property
    def support_lo(self):
        return 0.0

    @property
    def support_hi(self):
        return math.inf

    def cdf(self, v):
        x = _at_least_zero(v)
        out = -sum(w * np.expm1(-x / m) for w, m in zip(self.weights, self.means))
        return out if out.shape else float(out)

    def pdf(self, v):
        x = _at_least_zero(v)
        dens = sum(w * np.exp(-x / m) / m for w, m in zip(self.weights, self.means))
        return _zero_below_support(v, dens)

    def _log_survival(self, x):
        """log S(x) and the hazard f(x)/S(x) at x >= 0, with S = 1 - F.

        log1p(-F) keeps full relative accuracy in F while F < 1/2; above
        that, log-sum-exp keeps it in S. Sums run component by component so
        every element gets the same bits in any array shape."""
        exps = [-x / m for m in self.means]
        f = sum(-w * np.expm1(a) for w, a in zip(self.weights, exps))
        logs = [(math.log(w) if w > 0 else -math.inf) + a for w, a in zip(self.weights, exps)]
        top = reduce(np.maximum, logs)
        scaled = [np.exp(la - top) for la in logs]
        mass = sum(scaled)
        if isinstance(x, float):
            log_s = np.log1p(-f) if f < 0.5 else top + np.log(mass)
        else:
            log_s = np.where(f < 0.5, np.log1p(-np.minimum(f, 0.5)), top + np.log(mass))
        hazard = sum(e / m for e, m in zip(scaled, self.means)) / mass
        return log_s, hazard

    def quantile(self, q):
        """Monotone Newton on log S(x) = log1p(-q), per element.

        S is log-convex, so from x0 = -min(mean) * log1p(-q), which lies at
        or below the root, the iterates rise to it. An element stops once its
        step is non-positive or at most 4 eps * x (rounding noise in log S),
        and stays frozen while the others finish. q <= 0 gives 0; q >= 1 is
        read as 1 - 1e-16, so the result is finite for any level but NaN."""
        if isinstance(q, float):
            return self._quantile_of_float(q)
        q = np.asarray(q, dtype=float)
        target = np.log1p(-np.minimum(q, 1.0 - 1e-16)).ravel()
        x = np.where(q.ravel() <= 0.0, 0.0, -min(self.means) * target)
        live = np.flatnonzero(x > 0.0)
        for _ in range(MAX_ITER):
            if live.size == 0:
                break
            xl = x[live]
            log_s, hazard = self._log_survival(xl)
            step = (log_s - target[live]) / hazard
            moving = step > 4.0 * EPS * xl
            x[live[moving]] = xl[moving] + step[moving]
            live = live[moving]
        if live.size:
            raise NoConvergence("mixture quantile Newton hit the iteration cap",
                                level=float(q.ravel()[live[0]]), iterations=MAX_ITER)
        out = x.reshape(q.shape)
        return out if out.shape else float(out)

    def _quantile_of_float(self, q):
        """quantile's Newton for one float level, step for step on floats."""
        top = 1.0 - 1e-16
        target = float(np.log1p(-(top if q > top else q)))  # np.minimum's clip: NaN kept
        x = 0.0 if q <= 0.0 else -min(self.means) * target
        live = x > 0.0
        for _ in range(MAX_ITER):
            if not live:
                break
            log_s, hazard = self._log_survival(x)
            step = float((log_s - target) / hazard)
            live = step > 4.0 * EPS * x
            if live:
                x = x + step
        if live:
            raise NoConvergence("mixture quantile Newton hit the iteration cap", level=q, iterations=MAX_ITER)
        return x

    def partial_mean(self, a, b):
        return _float_or_array(sum(w * (_exp_antiderivative(m, b) - _exp_antiderivative(m, a))
                                   for w, m in zip(self.weights, self.means)))


@dataclass(frozen=True)
class ScaledFamily(ValueDistribution):
    """cdf(x) = base_cdf(x / scale); used for cost-proportional value families."""

    base: ValueDistribution
    scale: float

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValidationError(f"scale must be finite and positive, got {self.scale}")

    @property
    def support_lo(self):
        return self.base.support_lo * self.scale

    @property
    def support_hi(self):
        return self.base.support_hi * self.scale

    def cdf(self, v):
        return self.base.cdf(_values(v) / self.scale)

    def pdf(self, v):
        return self.base.pdf(_values(v) / self.scale) / self.scale

    def quantile(self, q):
        if isinstance(q, float):
            return self.base.quantile(q) * self.scale
        out = np.asarray(self.base.quantile(q)) * self.scale
        return out if out.shape else float(out)

    def partial_mean(self, a, b):
        if isinstance(a, float) and isinstance(b, float):
            return self.base.partial_mean(a / self.scale, b / self.scale) * self.scale
        a = np.asarray(a, dtype=float) / self.scale
        b = np.asarray(b, dtype=float) / self.scale
        out = np.asarray(self.base.partial_mean(a, b)) * self.scale
        return out if out.shape else float(out)


@dataclass(frozen=True)
class PiecewiseLinearCdf(ValueDistribution):
    """User-supplied empirical shape: cdf linear between (value, prob) knots."""

    knots: tuple

    def __post_init__(self):
        knots = tuple((float(v), float(p)) for v, p in self.knots)
        if len(knots) < 2:
            raise ValidationError("need at least two knots")
        vs = np.array([k[0] for k in knots])
        ps = np.array([k[1] for k in knots])
        if not np.all(np.isfinite(vs) & np.isfinite(ps)):
            raise ValidationError("knot values and probabilities must be finite")
        if np.any(np.diff(vs) <= 0):
            raise ValidationError("knot values must be strictly increasing")
        if np.any(np.diff(ps) <= 0):
            raise ValidationError("knot probabilities must be strictly increasing (full support)")
        if abs(ps[0]) > 1e-12 or abs(ps[-1] - 1.0) > 1e-12:
            raise ValidationError("cdf must run from 0 to 1 over the knots")
        if vs[0] < 0:
            raise ValidationError("values must be nonnegative")
        object.__setattr__(self, "knots", knots)
        # knot arrays and slopes: private attributes, not fields, so eq and hash stay on knots
        object.__setattr__(self, "_vs", vs)
        object.__setattr__(self, "_ps", ps)
        object.__setattr__(self, "_slopes", np.diff(ps) / np.diff(vs))

    @property
    def support_lo(self):
        return self.knots[0][0]

    @property
    def support_hi(self):
        return self.knots[-1][0]

    def cdf(self, v):
        out = np.interp(np.asarray(v, dtype=float), self._vs, self._ps, left=0.0, right=1.0)
        return out if out.shape else float(out)

    def pdf(self, v):
        vs, slopes = self._vs, self._slopes
        v = np.asarray(v, dtype=float)
        idx = np.clip(np.searchsorted(vs, v, side="right") - 1, 0, len(slopes) - 1)
        out = np.where((v < vs[0]) | (v >= vs[-1]), 0.0, slopes[idx])
        return out if out.shape else float(out)

    def quantile(self, q):
        out = np.interp(np.asarray(q, dtype=float), self._ps, self._vs)
        return out if out.shape else float(out)

    def partial_mean(self, a, b):
        vs, slopes = self._vs, self._slopes
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        lo = np.clip(np.maximum(a, vs[0]), vs[0], vs[-1])
        hi = np.clip(np.minimum(b, vs[-1]), vs[0], vs[-1])
        # sum of f_k * (y^2 - x^2)/2 over knot intervals intersected with (lo, hi]
        seg_lo = np.maximum(vs[:-1], lo[..., None])
        seg_hi = np.minimum(vs[1:], hi[..., None])
        width = np.maximum(seg_hi - seg_lo, 0.0)
        out = np.sum(slopes * width * (seg_lo + np.maximum(seg_hi, seg_lo)) / 2.0, axis=-1)
        return out if out.shape else float(out)


@dataclass(frozen=True)
class MarketSlice:
    """One cost level: cost c, high-group share alpha, and the ordered pair
    of value distributions (low group first)."""

    c: float
    alpha: float
    f_l: ValueDistribution
    f_h: ValueDistribution

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValidationError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (0.0 <= self.c < math.inf):
            raise ValidationError(f"cost must be finite and nonnegative, got {self.c}")
        _check_common_support(self.f_l, self.f_h)
        _check_likelihood_ratio_order(self.f_l, self.f_h)

    @property
    def support_lo(self):
        return self.f_l.support_lo

    @property
    def support_hi(self):
        return self.f_l.support_hi

    def cap(self) -> float:
        return max(self.f_l.cap(), self.f_h.cap())

    def grid(self, n: int = GRID_POINTS) -> np.ndarray:
        return np.linspace(self.support_lo, self.cap(), n)


@dataclass(frozen=True)
class Market:
    """Discrete cost distribution: (slice, weight) pairs with weights summing to 1."""

    slices: tuple

    def __post_init__(self):
        pairs = tuple((s, float(w)) for s, w in self.slices)
        if not pairs:
            raise ValidationError("market must contain at least one slice")
        weights = np.array([w for _, w in pairs])
        if not np.all((weights >= 0) & np.isfinite(weights)):
            raise ValidationError("slice weights must be finite and nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValidationError(f"slice weights must sum to 1, got {weights.sum()!r}")
        object.__setattr__(self, "slices", pairs)


@dataclass(frozen=True)
class GapProfile:
    """Unique maximizer of the cdf gap and the gap's maximum (the total
    variation distance between the two group distributions)."""

    v_star: float
    tv: float


def _check_common_support(f_l: ValueDistribution, f_h: ValueDistribution) -> None:
    scale = max(1.0, abs(f_l.support_lo), f_l.cap())
    if abs(f_l.support_lo - f_h.support_lo) > 1e-9 * scale:
        raise ValidationError("group distributions must share a support interval (lower ends differ)")
    hi_l, hi_h = f_l.support_hi, f_h.support_hi
    if math.isinf(hi_l) != math.isinf(hi_h):
        raise ValidationError("group distributions must share a support interval (one is unbounded)")
    if math.isfinite(hi_l) and abs(hi_l - hi_h) > 1e-9 * scale:
        raise ValidationError("group distributions must share a support interval (upper ends differ)")


@lru_cache(maxsize=128)
def _check_likelihood_ratio_order(f_l, f_h) -> None:
    """Raise ValidationError unless f_h / f_l is nondecreasing on the grid.
    A pair that passes is cached (slices that share it skip the grid); a
    pair that fails raises on every call, since lru_cache keeps no exception."""
    lo = f_l.support_lo
    hi = max(f_l.cap(), f_h.cap())
    v = np.linspace(lo, hi, GRID_POINTS)[1:-1]
    dl = np.asarray(f_l.pdf(v))
    dh = np.asarray(f_h.pdf(v))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dl > 0, dh / dl, np.inf)
    finite = np.isfinite(ratio)
    if not np.all(finite):
        # an infinite ratio may only appear as a terminal run
        first_inf = np.argmax(~finite)
        if np.any(finite[first_inf:]):
            raise ValidationError("likelihood-ratio order violated: low-group density vanishes internally")
        ratio = ratio[:first_inf]
    scale = np.maximum(np.abs(ratio[:-1]), 1.0)
    if np.any(np.diff(ratio) < -1e-9 * scale):
        raise ValidationError("likelihood-ratio order violated: density ratio decreases on the support grid")


def delta(slice_: MarketSlice, v):
    """Gap between the group cdfs, F_l(v) - F_h(v); lies in [0, 1] under the
    likelihood-ratio order."""
    return _gap(slice_.f_l, slice_.f_h, v)


def _gap(f_l: ValueDistribution, f_h: ValueDistribution, v):
    return f_l.cdf(v) - f_h.cdf(v)  # each cdf gives a float for a scalar v


@lru_cache(maxsize=512)
def gap_profile(slice_: MarketSlice) -> GapProfile:
    """Locate the unique gap maximizer and the total variation distance.

    The gap depends on the value pair alone, so the work is cached per pair
    (_pair_gap_profile) and slices that differ only in cost or shares share it.
    """
    return _pair_gap_profile(slice_.f_l, slice_.f_h)


@lru_cache(maxsize=128)
def _pair_gap_profile(f_l: ValueDistribution, f_h: ValueDistribution) -> GapProfile:
    """The gap is quasi-concave, so its grid argmax brackets the maximizer,
    pinned to adjacent floats by the sign change of the gap's slope f_l - f_h
    (also where piecewise densities cross by a jump), bisected on floats with
    two scalar pdfs per step. Without a sign change in the bracket the
    bisection clamps to the end where, by the likelihood-ratio order, the gap
    is larger, or onto a flat top."""
    grid = np.linspace(f_l.support_lo, max(f_l.cap(), f_h.cap()), GRID_POINTS)
    gaps = np.asarray(_gap(f_l, f_h, grid))
    tv_grid = float(np.max(gaps))
    if tv_grid < 1e-12:
        raise DegenerateSlice("group distributions are numerically identical (gap below 1e-12)")
    i = int(np.argmax(gaps))
    v_star = invert_monotone(lambda v: f_h.pdf(v) - f_l.pdf(v), 0.0,
                             float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)]))
    return GapProfile(v_star=v_star, tv=float(_gap(f_l, f_h, v_star)))


@lru_cache(maxsize=128)
def _upper_gap_end(f_l: ValueDistribution, f_h: ValueDistribution) -> float:
    """Outer end U of the upper branch of the gap of a value pair:
    support_hi or, on unbounded supports, the larger 1 - 1e-13 quantile.
    That is deeper than the grid cap, so the residual gap at a root clamped
    to U stays well inside the 1e-10 contract. Upper-branch inverses of
    levels at or below the gap at U clamp to U."""
    if math.isfinite(f_l.support_hi):
        return f_l.support_hi
    return max(float(f_l.quantile(1.0 - 1e-13)), float(f_h.quantile(1.0 - 1e-13)))


@lru_cache(maxsize=16)
def _gap_table(f_l: ValueDistribution, f_h: ValueDistribution, branch: str):
    """Nodes of one branch of the gap of a value pair, from its outer end to
    the maximizer, and their levels as an ascending key: a running max, since
    rounding can make the tabulated gap non-monotone in a flat upper tail.

    The upper branch ends at _upper_gap_end."""
    gp = _pair_gap_profile(f_l, f_h)
    end = f_l.support_lo if branch == "lower" else _upper_gap_end(f_l, f_h)
    nodes = np.linspace(end, gp.v_star, GAP_TABLE_POINTS)
    return nodes, np.maximum.accumulate(np.asarray(_gap(f_l, f_h, nodes)))


def delta_inverse(slice_: MarketSlice, q, branch: str):
    """Branch inverse of the gap function.

    lower: the unique root at or below the maximizer; upper: at or above it.
    Each level starts in its cell of the branch table of the value pair
    (_gap_table, shared by slices that differ only in cost or shares): linear
    interpolation, or square-root interpolation in the cell at the
    maximizer, where the gap is quadratic. Safeguarded Newton steps on
    gap' = f_l - f_h inside that cell finish it, freezing once the residual
    is within 4 eps * max(F_l, F_h), the rounding floor of the gap. Levels
    beyond the table's outer end clamp to it, and |gap(result) - q| <= 1e-10
    for any admissible q.
    """
    gp = gap_profile(slice_)
    scalar = isinstance(q, float)
    if scalar:
        high, low = q > gp.tv + 1e-12, q < -1e-12
    else:
        q = np.asarray(q, dtype=float)
        high, low = np.any(q > gp.tv + 1e-12), np.any(q < -1e-12)
    if high:
        raise OutOfRange(f"gap level {float(np.max(q))!r} exceeds the total variation {gp.tv!r}")
    if low:
        raise OutOfRange("gap level must be nonnegative")
    if branch not in ("lower", "upper"):
        raise ValidationError(f"branch must be 'lower' or 'upper', got {branch!r}")
    nodes, levels = _gap_table(slice_.f_l, slice_.f_h, branch)
    if scalar:  # the array lines below on floats; min(max(.)) is np.clip's, NaN and -0.0 kept
        q = min(max(q, 0.0), gp.tv)
        i = min(max(int(np.searchsorted(levels, q, side="right")) - 1, 0), GAP_TABLE_POINTS - 2)
        l0, l1 = float(levels[i]), float(levels[i + 1])
        w = min(max((q - l0) / (l1 - l0), 0.0), 1.0) if l1 > l0 else 0.0
        if i == GAP_TABLE_POINTS - 2:
            w = 1.0 - math.sqrt(1.0 - w)
        n0, n1 = float(nodes[i]), float(nodes[i + 1])
        lo, hi = n0 if n0 < n1 else n1, n0 if n0 > n1 else n1
    else:
        q = np.clip(q, 0.0, gp.tv)
        i = np.clip(np.searchsorted(levels, q, side="right") - 1, 0, GAP_TABLE_POINTS - 2)
        l0, l1 = levels[i], levels[i + 1]
        w = np.clip(np.divide(q - l0, l1 - l0, out=np.zeros(q.shape), where=l1 > l0), 0.0, 1.0)
        w = np.where(i == GAP_TABLE_POINTS - 2, 1.0 - np.sqrt(1.0 - w), w)
        n0, n1 = nodes[i], nodes[i + 1]
        lo, hi = np.minimum(n0, n1), np.maximum(n0, n1)

    def gap_and_floor(v):
        fl, fh = slice_.f_l.cdf(v), slice_.f_h.cdf(v)
        return fl - fh, 4.0 * EPS * np.maximum(fl, fh)

    return invert_monotone(gap_and_floor, q, lo, hi, increasing=branch == "lower", x0=n0 + w * (n1 - n0),
                           fprime=lambda v: slice_.f_l.pdf(v) - slice_.f_h.pdf(v))
