"""Test oracles and shorthands that no command or workload needs."""

import numpy as np

from fairprice.cutoffs import solve_kappa
from fairprice.dist import MarketSlice
from fairprice.duality import build_duals
from fairprice.oracle import oracle_gap
from fairprice.pricing import build_p_star
from fairprice.welfare import welfare_report


def star_oracle_gap(slice_: MarketSlice, n: int) -> float:
    """Relative oracle gap against the optimal rule's profit, warm-started
    from the slice's certificate, as verify runs it on a fresh solve."""
    target = welfare_report(build_p_star(slice_), slice_).profit
    return oracle_gap(slice_, n, build_duals(slice_), target)[1]


def optimal_support_distance(slice_: MarketSlice, v_l, v_h):
    """Sup-metric distance of pairs to the six-block support set that every
    optimal coupling must live on (C1 slices); vectorized."""
    k = solve_kappa(slice_)
    lo = slice_.support_lo
    v_l = np.asarray(v_l, dtype=float)
    v_h = np.asarray(v_h, dtype=float)

    def seg_dist(x, a, b):
        return np.maximum(np.maximum(a - x, x - b), 0.0)

    cands = [
        # priced-out low mass matched into the far tail
        np.maximum(seg_dist(v_l, lo, k.k3), np.maximum(k.k5 - v_h, 0.0)),
        # discounted band: low above high
        np.maximum.reduce([seg_dist(v_l, k.k1, k.k3), seg_dist(v_h, k.k1, k.k3),
                           np.maximum(v_h - v_l, 0.0) / 2.0]),
        # low band matched with priced-out high mass
        np.maximum(seg_dist(v_l, k.k3, k.k4), seg_dist(v_h, lo, k.k1)),
        # diagonal between the third and fourth cutoffs
        np.maximum(seg_dist(v_l, k.k3, k.k4), np.abs(v_l - v_h) / 2.0),
        # discounted band: high above low
        np.maximum.reduce([seg_dist(v_l, k.k4, k.k5), seg_dist(v_h, k.k4, k.k5),
                           np.maximum(v_l - v_h, 0.0) / 2.0]),
        # diagonal above the fifth cutoff
        np.maximum.reduce([np.maximum(k.k5 - v_l, 0.0), np.maximum(k.k5 - v_h, 0.0),
                           np.abs(v_l - v_h) / 2.0]),
    ]
    out = np.minimum.reduce(cands)
    return out if out.shape else float(out)
