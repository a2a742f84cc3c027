"""Couplings with fixed group marginals: the optimal matching kernels, the
surplus-free alternative kernel and convex mixtures between them.

Couplings are materialized atomically: the high-group distribution is
discretized into n equal-mass quantile atoms and each atom is pushed through
the regime map of the kernel. Atoms above the top cutoff split into two
points with density-ratio weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cutoffs import Region, classify_region, solve_eta, solve_kappa
from .dist import MarketSlice, delta, delta_inverse, gap_profile
from .errors import OutOfRange, ValidationError, WrongRegion
from .welfare import optimal_pair_price, pair_profit, surplus_closed_forms


@dataclass(frozen=True, eq=False)
class Coupling:
    """Discrete joint distribution over (low value, high value) pairs whose
    marginals approximate the two group distributions."""

    v_l: np.ndarray
    v_h: np.ndarray
    w: np.ndarray
    source: str

    def __post_init__(self):
        v_l = np.asarray(self.v_l, dtype=float)
        v_h = np.asarray(self.v_h, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if not (v_l.shape == v_h.shape == w.shape) or v_l.ndim != 1:
            raise ValidationError("coupling arrays must be 1-D and equal length")
        if np.any(w < -1e-15):
            raise ValidationError("coupling weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValidationError(f"coupling weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "v_l", v_l)
        object.__setattr__(self, "v_h", v_h)
        object.__setattr__(self, "w", np.maximum(w, 0.0))

    def __len__(self):
        return len(self.w)


def _quantile_atoms(slice_: MarketSlice, n: int) -> np.ndarray:
    q = (np.arange(n) + 0.5) / n
    return np.asarray(slice_.f_h.quantile(q), dtype=float)


def _assemble(slice_: MarketSlice, n: int, bands, tail_start: float, anti_map, source: str):
    """Push n equal-mass high-group atoms through a regime map. bands is an
    ordered list of (upper cutoff, map): an atom goes to the first band whose
    cutoff it does not exceed. Above tail_start each atom splits: it stays on
    the diagonal with the density-ratio weight, else goes to its
    anti-assortative partner."""
    v_h = _quantile_atoms(slice_, n)
    base_w = np.full(n, 1.0 / n)
    vl_parts, vh_parts, w_parts = [], [], []
    lower = -np.inf
    for upper, regime_map in bands:
        m = (v_h > lower) & (v_h <= upper)
        lower = upper
        if np.any(m):
            vl_parts.append(np.asarray(regime_map(v_h[m]), dtype=float))
            vh_parts.append(v_h[m])
            w_parts.append(base_w[m])
    tail = v_h > tail_start
    if np.any(tail):
        x = v_h[tail]
        dl = np.asarray(slice_.f_l.pdf(x), dtype=float)
        dh = np.asarray(slice_.f_h.pdf(x), dtype=float)
        ratio = np.clip(np.where(dh > 0, dl / dh, 1.0), 0.0, 1.0)
        vl_parts += [x, np.asarray(anti_map(x), dtype=float)]
        vh_parts += [x, x]
        w_parts += [base_w[tail] * ratio, base_w[tail] * (1.0 - ratio)]
    vl = np.concatenate(vl_parts)
    vh = np.concatenate(vh_parts)
    w = np.concatenate(w_parts)
    keep = w > 0.0
    return Coupling(v_l=vl[keep], v_h=vh[keep], w=w[keep] / w[keep].sum(), source=source)


def _quantile_shift(slice_: MarketSlice, offset: float):
    """x -> F_l^{-1}(F_h(x) + offset): the equal-quantile map, shifted."""
    f_l, f_h = slice_.f_l, slice_.f_h
    return lambda x: f_l.quantile(np.clip(np.asarray(f_h.cdf(x)) + offset, 0.0, 1.0))


def _gap_shift(slice_: MarketSlice, offset: float):
    """x -> lower-branch gap inverse at F_h(x) + offset."""
    return lambda x: delta_inverse(slice_, np.asarray(slice_.f_h.cdf(x)) + offset, "lower")


def _anti_map(slice_: MarketSlice, level: float):
    """x -> F_l^{-1}(level - Delta(x)): the anti-assortative tail partner."""
    return lambda x: slice_.f_l.quantile(np.clip(level - np.asarray(delta(slice_, x)), 0.0, 1.0))


def _c1_bands(slice_: MarketSlice, k, low_inverse=None):
    """The C1 regime map at cutoffs k as (bands, tail start, anti map): a gap
    shift by Delta(k3) below k1, a quantile shift by Delta(k3) up to k3, the
    diagonal up to k4, a quantile shift by Delta(k4) up to k5, and above k5
    the partner low_inverse(Delta(k5) - Delta(x)), by default the clipped low
    quantile."""
    d3, d4, d5 = (float(delta(slice_, v)) for v in (k.k3, k.k4, k.k5))
    bands = [(k.k1, _gap_shift(slice_, d3)), (k.k3, _quantile_shift(slice_, d3)),
             (k.k4, lambda x: x), (k.k5, _quantile_shift(slice_, d4))]
    anti = _anti_map(slice_, d5) if low_inverse is None \
        else (lambda x: low_inverse(d5 - np.asarray(delta(slice_, x))))
    return bands, k.k5, anti


def build_rho_star(slice_: MarketSlice, n: int) -> Coupling:
    """Optimal coupling: discretize the high marginal into n equal-mass atoms
    and push each through the regime map of the slice's region."""
    if n < 10:
        raise ValidationError(f"need at least 10 atoms, got {n}")
    region = classify_region(slice_)
    if region is Region.C1:
        return _assemble(slice_, n, *_c1_bands(slice_, solve_kappa(slice_)), "rho_star")
    if region is Region.C2:
        gp = gap_profile(slice_)
        eta = solve_eta(slice_)
        dc = float(delta(slice_, slice_.c))
        fh_eta = float(slice_.f_h.cdf(eta.eta_h))
        fl_eta = float(slice_.f_l.cdf(eta.eta_l))
        bands = [
            (eta.eta_h, _quantile_shift(slice_, 0.0)),
            (slice_.c, lambda x: delta_inverse(
                slice_, np.asarray(slice_.f_h.cdf(x)) - fh_eta + dc, "lower")),
            (gp.v_star, lambda x: x),
        ]
        return _assemble(slice_, n, bands, gp.v_star, lambda x: slice_.f_l.quantile(
            np.clip(gp.tv - np.asarray(delta(slice_, x)) + fl_eta, 0.0, 1.0)), "rho_star")
    fl_c = float(slice_.f_l.cdf(slice_.c))
    return _assemble(slice_, n, [(slice_.c, _quantile_shift(slice_, 0.0))], slice_.c,
                     _anti_map(slice_, fl_c), "rho_star")


def _j_inverse(slice_: MarketSlice, q):
    """Inverse of the spliced low-tail index: the low cdf up to the first
    cutoff, then the gap shifted by the high mass at that cutoff."""
    k = solve_kappa(slice_)
    q = np.asarray(q, dtype=float)
    fl_k1 = float(slice_.f_l.cdf(k.k1))
    fh_k1 = float(slice_.f_h.cdf(k.k1))
    low = np.asarray(slice_.f_l.quantile(np.clip(q, 0.0, 1.0)))
    high = np.asarray(delta_inverse(slice_, np.clip(q - fh_k1, 0.0, None), "lower"))
    return np.where(q <= fl_k1, low, high)


def build_rho_tilde(slice_: MarketSlice, n: int) -> Coupling:
    """Alternative optimal coupling that leaves the low group no surplus: the
    discounted band collapses onto the diagonal and the priced-out mass is
    respliced across the whole band below the third cutoff."""
    if classify_region(slice_) is not Region.C1:
        raise WrongRegion("the surplus-free kernel is defined on region C1 only")
    if n < 10:
        raise ValidationError(f"need at least 10 atoms, got {n}")
    k = solve_kappa(slice_)
    bands, tail_start, anti = _c1_bands(slice_, k, lambda q: _j_inverse(slice_, q))
    # the discounted band collapses onto the diagonal; consecutive identity
    # bands over the sorted atoms concatenate to one
    bands[1] = (k.k3, lambda x: x)
    return _assemble(slice_, n, bands, tail_start, anti, "rho_tilde")


def mix_for_target_surplus(slice_: MarketSlice, sigma_l: float, n: int) -> Coupling:
    """Convex mixture of the two optimal couplings hitting a target low-group
    surplus in [0, CS*]; profit and high-group surplus are unchanged."""
    cs_l_star, _ = surplus_closed_forms(slice_)
    if sigma_l < -1e-12 or sigma_l > cs_l_star * (1 + 1e-9) + 1e-12:
        raise OutOfRange(
            f"target low-group surplus {sigma_l!r} outside [0, {cs_l_star!r}]")
    t = min(max(sigma_l / cs_l_star, 0.0), 1.0) if cs_l_star > 0 else 0.0
    if t >= 1.0:
        return build_rho_star(slice_, n)
    if t <= 0.0:
        return build_rho_tilde(slice_, n)
    star = build_rho_star(slice_, n)
    tilde = build_rho_tilde(slice_, n)
    return Coupling(
        v_l=np.concatenate([star.v_l, tilde.v_l]),
        v_h=np.concatenate([star.v_h, tilde.v_h]),
        w=np.concatenate([t * star.w, (1.0 - t) * tilde.w]),
        source=f"mixture(t={t:.12g})",
    )


def coupling_welfare(slice_: MarketSlice, coupling: Coupling):
    """(profit, cs_l, cs_h) realized when every matched pair is quoted its
    optimal price."""
    price = np.asarray(optimal_pair_price(slice_, coupling.v_l, coupling.v_h))
    w = coupling.w
    profit = float(np.sum(w * np.asarray(pair_profit(slice_, coupling.v_l, coupling.v_h))))
    cs_l = float(np.sum(w * np.maximum(coupling.v_l - price, 0.0)))
    cs_h = float(np.sum(w * np.maximum(coupling.v_h - price, 0.0)))
    return profit, cs_l, cs_h
