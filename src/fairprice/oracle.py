"""Brute-force verification through discrete assignment.

Equal-mass quantile discretization turns the continuous matching problem into
an n-by-n maximum-weight assignment, solved exactly with scipy's
linear_sum_assignment (deterministic for a fixed cost matrix). oracle_gap
compares the assignment value against an analytic target; the gap decays
like 1/n. It serves both objectives: the certificate it is given picks the
pair profit (the noisy one for a "tilde" certificate), so verify, the
library and the noisy oracle_gap_tilde run one path.

Given the slice's dual certificate (phi, psi), the solve is warm-started:
adding phi(v_l) + psi(v_h) to every entry leaves the optimal assignments
unchanged, and with near-optimal duals the reduced costs vanish on the
optimal support, so each shortest augmenting path ends after a step or two
(the dual warm start of primal-dual assignment solvers). The value is still
read from the original matrix, so it does not depend on the certificate; a
wrong one only slows the solve. On exp(1) vs exp(3) the warm start takes an
n = 800 solve from 0.27 s to 0.017 s and an n = 1600 one from 2.8 s to
0.16 s (best of 3, 2-core host).

The noisy objective has no closed-form duals; duality.build_duals_tilde
builds them from the envelope condition on its coupling's support. On
exp(1) vs exp(m), m in [2, 5], building and using them takes an n = 400
solve from 43-78 ms cold to 3-8 ms and an n = 800 one from 0.34-0.38 s to
0.010-0.028 s (best of 3, 2-core host). Without a usable certificate (none,
or a non-finite one) the solve is cold.

Only `import scipy` runs at import time (callers read its version). The
first solve loads scipy's compiled assignment module, scipy.optimize._lsap,
by itself in about 0.2 ms: its linear_sum_assignment is the very function
that scipy.optimize exports, but the package's __init__ (scipy.linalg,
linprog, numpy.f2py and the other solvers, about 0.34 s) never runs. A
scipy whose layout has no such extension module gets the public import.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib.machinery import ExtensionFileLoader, PathFinder
from importlib.util import module_from_spec
from pathlib import Path

import numpy as np
import scipy

from .cutoffs import solve_kappa_tilde
from .dist import MarketSlice
from .duality import DualCertificate, build_duals_tilde
from .errors import UnsupportedConfiguration, ValidationError
from .matching import _c1_bands
from .numerics import adaptive_gauss_legendre
from .welfare import pair_profit, tilde_pair_profit

MAX_ATOMS = 5000


@dataclass(frozen=True, eq=False)
class AssignmentInstance:
    v_l_atoms: np.ndarray
    v_h_atoms: np.ndarray
    cost_matrix: np.ndarray

    def __post_init__(self):
        vl = np.asarray(self.v_l_atoms, dtype=float)
        vh = np.asarray(self.v_h_atoms, dtype=float)
        cm = np.asarray(self.cost_matrix, dtype=float)
        if vl.ndim != 1 or vh.ndim != 1 or cm.shape != (len(vl), len(vh)):
            raise ValidationError("cost matrix shape must match the atom vectors")
        if np.any(np.diff(vl) <= 0) or np.any(np.diff(vh) <= 0):
            raise ValidationError("atoms must be strictly increasing")
        if not np.all(np.isfinite(cm)) or np.any(cm < 0):
            raise ValidationError("cost entries must be finite and nonnegative")
        object.__setattr__(self, "v_l_atoms", vl)
        object.__setattr__(self, "v_h_atoms", vh)
        object.__setattr__(self, "cost_matrix", cm)

    @property
    def n(self) -> int:
        return len(self.v_l_atoms)


def discretize(slice_: MarketSlice, n: int, objective: str = "standard") -> AssignmentInstance:
    """Atoms at the (i - 1/2)/n quantiles of each marginal; cost matrix filled
    with the pair profit of the chosen objective."""
    if not (10 <= n <= MAX_ATOMS):
        raise ValidationError(f"atom count must lie in [10, {MAX_ATOMS}], got {n}")
    q = (np.arange(n) + 0.5) / n
    vl = np.asarray(slice_.f_l.quantile(q), dtype=float)
    vh = np.asarray(slice_.f_h.quantile(q), dtype=float)
    if objective == "standard":
        cm = np.asarray(pair_profit(slice_, vl[:, None], vh[None, :]))
    elif objective == "tilde":
        cm = np.asarray(tilde_pair_profit(vl[:, None], vh[None, :]))
    else:
        raise ValidationError(f"unknown objective {objective!r}")
    return AssignmentInstance(v_l_atoms=vl, v_h_atoms=vh, cost_matrix=cm)


@functools.cache
def _linear_sum_assignment():
    """scipy's linear_sum_assignment, from its extension module alone."""
    spec = PathFinder.find_spec("scipy.optimize._lsap",
                                [str(Path(p) / "optimize") for p in scipy.__path__])
    if spec is None or not isinstance(spec.loader, ExtensionFileLoader):
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.linear_sum_assignment


def solve_assignment(inst: AssignmentInstance, duals: DualCertificate | None = None):
    """Exact maximum-weight assignment; returns (permutation, value) where
    value is the equal-mass average of the selected costs.

    The solver minimizes the reduced costs phi(v_l) + psi(v_h) - cost, which
    have the same optimal assignments for any finite potentials. They come
    from the duals when those give finite reduced costs, and otherwise (no
    certificate, or a non-finite one) the solve is cold, on cost.max() - cost."""
    reduced = None
    if duals is not None:
        with np.errstate(all="ignore"):
            reduced = np.add.outer(duals.phi(inst.v_l_atoms), duals.psi(inst.v_h_atoms))
            reduced -= inst.cost_matrix
    if reduced is None or not np.isfinite(reduced).all():
        reduced = inst.cost_matrix.max() - inst.cost_matrix
    rows, cols = _linear_sum_assignment()(reduced)
    perm = np.empty(inst.n, dtype=int)
    perm[rows] = cols
    value = float(inst.cost_matrix[rows, cols].mean())
    return perm, value


def oracle_gap(slice_: MarketSlice, n: int, cert: DualCertificate, target: float):
    """(value, relative gap) of the n-atom assignment against the analytic
    target, warm-started from the certificate, whose regime picks the
    objective ("tilde" the noisy one). Equal values have gap 0, and a zero
    target with a nonzero value gap inf; expected O(1/n) decay."""
    objective = "tilde" if cert.regime == "tilde" else "standard"
    _, value = solve_assignment(discretize(slice_, n, objective), cert)
    gap = abs(value - target)
    return value, gap / abs(target) if target else (math.inf if gap else 0.0)


def tilde_transport_value(slice_: MarketSlice) -> float:
    """Analytic value of the noisy-objective matching: integrate the pair
    profit along the C1 regime map at the noisy cutoffs, band by band, with
    the adaptive Gauss-Legendre rule (relative to each band's integral)."""
    f_l, f_h = slice_.f_l, slice_.f_h
    bands, tail_start, anti = _c1_bands(slice_, solve_kappa_tilde(slice_))
    total, lower = 0.0, slice_.support_lo
    for upper, regime_map in bands:
        if upper > lower:
            total += adaptive_gauss_legendre(
                lambda vh: np.asarray(tilde_pair_profit(regime_map(np.asarray(vh)), vh))
                * np.asarray(f_h.pdf(vh)), lower, upper)
        lower = upper

    def tail(vh):
        vh = np.asarray(vh)
        dl = np.asarray(f_l.pdf(vh))
        dh = np.asarray(f_h.pdf(vh))
        return (dl * np.asarray(tilde_pair_profit(vh, vh))
                + (dh - dl) * np.asarray(tilde_pair_profit(np.asarray(anti(vh)), vh)))

    total += adaptive_gauss_legendre(tail, tail_start, slice_.cap())
    return float(total)


def oracle_gap_tilde(slice_: MarketSlice, n: int) -> float:
    """Relative gap for the noisy-value objective (zero cost, equal shares);
    the assignment is warm-started from the envelope duals of
    build_duals_tilde."""
    if abs(slice_.c) > 1e-12 or abs(slice_.alpha - 0.5) > 1e-12:
        raise UnsupportedConfiguration(
            "noisy-value oracle is only defined for c = 0 and alpha = 1/2")
    return oracle_gap(slice_, n, build_duals_tilde(slice_), tilde_transport_value(slice_))[1]
