import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import mixture_slice, scaled12_slice
from helpers import optimal_support_distance
from fairprice.cutoffs import Region, classify_region, solve_kappa, solve_kappa_tilde
from fairprice.dist import Exponential, MarketSlice, ScaledFamily
from fairprice.duality import (
    DualCertificate,
    PiecewiseAffine,
    _interpolant,
    build_duals,
    build_duals_tilde,
    certificate_from_kappa,
    dual_value,
)
from fairprice.errors import UnsupportedConfiguration, ValidationError
from fairprice.oracle import (
    AssignmentInstance,
    discretize,
    oracle_gap,
    oracle_gap_tilde,
    solve_assignment,
    tilde_pair_profit,
    tilde_transport_value,
)
from fairprice.welfare import pair_profit


def brute_force_value(cost):
    n = cost.shape[0]
    best = -math.inf
    for perm in itertools.permutations(range(n)):
        best = max(best, sum(cost[i, perm[i]] for i in range(n)) / n)
    return best


def cold_value(cost):
    rows, cols = linear_sum_assignment(cost, maximize=True)
    return float(cost[rows, cols].mean())


class TestDiscretize:
    def test_exponential_atoms_closed_form(self, exp13):
        inst = discretize(exp13, 10)
        want = -np.log(1.0 - (np.arange(10) + 0.5) / 10.0)
        assert np.allclose(inst.v_l_atoms, want, atol=1e-12)

    def test_atom_count_bounds(self, exp13):
        with pytest.raises(ValidationError):
            discretize(exp13, 9)
        with pytest.raises(ValidationError):
            discretize(exp13, 5001)

    def test_cost_matrix_monotone_in_own_value(self, exp13):
        inst = discretize(exp13, 50)
        # selling to the high group alone grows with its value
        assert np.all(np.diff(inst.cost_matrix, axis=1) >= -1e-12)

    def test_unknown_objective(self, exp13):
        with pytest.raises(ValidationError):
            discretize(exp13, 50, objective="quadratic")


class TestSolveAssignment:
    def test_two_by_two_identity(self):
        inst = AssignmentInstance(
            v_l_atoms=np.array([0.0, 1.0]), v_h_atoms=np.array([0.0, 1.0]),
            cost_matrix=np.array([[1.0, 0.0], [0.0, 1.0]]))
        perm, value = solve_assignment(inst)
        assert list(perm) == [0, 1]
        assert value == pytest.approx(1.0)

    def test_matches_enumeration_on_small_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            cost = rng.uniform(0, 1, size=(3, 3))
            inst = AssignmentInstance(
                v_l_atoms=np.array([0.0, 1.0, 2.0]), v_h_atoms=np.array([0.0, 1.0, 2.0]),
                cost_matrix=cost)
            _, value = solve_assignment(inst)
            assert value == pytest.approx(brute_force_value(cost), abs=1e-12)

    def test_supermodular_cost_sorts_assortatively(self):
        """Sell-to-both profit is supermodular, so the sorted matching is
        optimal; checked against full enumeration at n = 7."""
        rng = np.random.default_rng(23)
        vl = np.sort(rng.uniform(0.0, 3.0, 7))
        vh = np.sort(rng.uniform(0.0, 3.0, 7))
        c = 0.4
        cost = np.maximum(np.minimum(vl[:, None], vh[None, :]) - c, 0.0)
        inst = AssignmentInstance(v_l_atoms=vl, v_h_atoms=vh, cost_matrix=cost)
        _, value = solve_assignment(inst)
        sorted_value = float(np.mean(np.maximum(np.minimum(vl, vh) - c, 0.0)))
        assert value == pytest.approx(brute_force_value(cost), abs=1e-12)
        assert value == pytest.approx(sorted_value, abs=1e-12)

    def test_identical_marginals_reach_full_gains(self):
        s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(1.0))
        inst = discretize(s, 200)
        _, value = solve_assignment(inst)
        assert value == pytest.approx(float(np.mean(inst.v_l_atoms)), abs=1e-12)

    def test_deterministic(self, exp13):
        inst = discretize(exp13, 100)
        p1, v1 = solve_assignment(inst)
        p2, v2 = solve_assignment(inst)
        assert np.array_equal(p1, p2) and v1 == v2


WARM_SLICES = {
    "exp-C1": (MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(3.0)), Region.C1),
    "exp-C1-cost": (MarketSlice(c=0.2, alpha=0.3, f_l=Exponential(1.0), f_h=Exponential(5.0)),
                    Region.C1),
    "C2": (MarketSlice(c=1.0, alpha=0.5, f_l=ScaledFamily(Exponential(1.0), 1.0),
                       f_h=ScaledFamily(Exponential(3.0), 1.0)), Region.C2),
    "C3": (MarketSlice(c=2.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(3.0)), Region.C3),
    "mix": (mixture_slice(0), Region.C1),
    "cost-scaled": (scaled12_slice(0.5), Region.C1),
}


class TestWarmStart:
    @pytest.mark.parametrize("n", [50, 400])
    @pytest.mark.parametrize("name", list(WARM_SLICES))
    def test_value_matches_the_cold_solve(self, name, n):
        s, region = WARM_SLICES[name]
        assert classify_region(s) is region
        inst = discretize(s, n)
        _, value = solve_assignment(inst, build_duals(s))
        assert value == pytest.approx(cold_value(inst.cost_matrix), rel=1e-12)

    def test_tampered_certificate_keeps_the_optimum(self, exp13):
        k = solve_kappa(exp13)
        cert = certificate_from_kappa(exp13, dataclasses.replace(k, k1=k.k1 * 1.001))
        q = (np.arange(6) + 0.5) / 6
        vl, vh = exp13.f_l.quantile(q), exp13.f_h.quantile(q)
        cost = np.asarray(pair_profit(exp13, vl[:, None], vh[None, :]))
        _, value = solve_assignment(AssignmentInstance(vl, vh, cost), cert)
        assert value == pytest.approx(brute_force_value(cost), rel=1e-12)
        inst = discretize(exp13, 400)
        _, value = solve_assignment(inst, cert)
        assert value == pytest.approx(cold_value(inst.cost_matrix), rel=1e-12)

    def test_any_finite_potentials_keep_the_optimum(self, exp13):
        rng = np.random.default_rng(31)
        atoms = np.arange(6.0)

        def potential(values):
            # one constant branch per atom: branch i covers (atoms[i-1], atoms[i]]
            return PiecewiseAffine(breaks=tuple(atoms[:-1]), slopes=(0.0,) * 6,
                                   intercepts=tuple(values))

        for _ in range(10):
            cost = rng.uniform(0.0, 1.0, size=(6, 6))
            cert = DualCertificate(slice=exp13, regime="C1",
                                   phi=potential(rng.normal(0.0, 10.0, 6)),
                                   psi=potential(rng.normal(0.0, 10.0, 6)))
            _, value = solve_assignment(AssignmentInstance(atoms, atoms, cost), cert)
            assert value == pytest.approx(brute_force_value(cost), rel=1e-12)

    @pytest.mark.parametrize("k1", [None, math.nan], ids=["finite", "nan"])
    def test_solver_calls_follow_the_certificate(self, exp13, k1, monkeypatch):
        """A finite certificate goes straight to the fine solve on its reduced
        costs; a NaN one solves cold. Either way it is one minimizing solve."""
        k = solve_kappa(exp13)
        cert = certificate_from_kappa(exp13, dataclasses.replace(k, k1=k.k1 if k1 is None else k1))
        calls = []
        monkeypatch.setattr("scipy.optimize.linear_sum_assignment",
                            lambda cost, maximize=False: calls.append(maximize)
                            or linear_sum_assignment(cost, maximize=maximize))
        inst = discretize(exp13, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, value = solve_assignment(inst, cert)
        assert calls == [False]
        assert value == pytest.approx(cold_value(inst.cost_matrix), rel=1e-12)

    @pytest.mark.parametrize("n", [50, 100])
    @pytest.mark.parametrize("name", list(WARM_SLICES))
    def test_no_certificate_solves_cold(self, name, n):
        inst = discretize(WARM_SLICES[name][0], n)
        _, value = solve_assignment(inst)
        assert value == pytest.approx(cold_value(inst.cost_matrix), rel=1e-12)


def noisy_slice(m, scale=1.0):
    return MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(scale), f_h=Exponential(m * scale))


def c_transform(psi, lo, hi, u):
    """sup over x in [lo, hi] of the noisy pair profit at (u, x) minus psi(x),
    for each u: exact for the broken line psi, from its values at its nodes
    and, on each segment of slope s, at the clipped stationary point
    u (1/sqrt(s) - 1) of the joint branch u x/(u + x) - s x."""
    x = np.concatenate([[lo], [b for b in psi.breaks if lo < b < hi], [hi]])
    y = np.asarray(psi(x))
    s = np.diff(y) / np.diff(x)
    out = []
    for chunk in np.array_split(np.asarray(u, dtype=float), max(1, len(u) // 100)):
        c = chunk[:, None]
        with np.errstate(divide="ignore"):
            xs = np.clip(c * (1.0 / np.sqrt(s) - 1.0), x[:-1], x[1:])
        out.append(np.maximum(np.max(tilde_pair_profit(c, x) - y, axis=1),
                              np.max(c * xs / (c + xs) - (y[:-1] + s * (xs - x[:-1])), axis=1)))
    return np.concatenate(out)


class TestNoisyCertificate:
    """The noisy-value duals from the envelope condition: the assignment
    value must not depend on them, and they must be near-optimal."""

    @pytest.mark.parametrize("m, n", [(m, n) for m in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
                                      for n in (100, 400)] + [(3.0, 800)])
    def test_value_matches_the_cold_solve(self, m, n):
        s = noisy_slice(m)
        inst = discretize(s, n, objective="tilde")
        _, value = solve_assignment(inst, build_duals_tilde(s))
        assert value == pytest.approx(cold_value(inst.cost_matrix), rel=1e-12)

    def test_deterministic(self):
        s = noisy_slice(3.0)
        inst = discretize(s, 400, objective="tilde")
        p1, v1 = solve_assignment(inst, build_duals_tilde(s))
        p2, v2 = solve_assignment(inst, build_duals_tilde(s))
        assert np.array_equal(p1, p2) and v1 == v2

    def test_oracle_makes_one_warm_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr("scipy.optimize.linear_sum_assignment",
                            lambda cost, maximize=False: calls.append(maximize)
                            or linear_sum_assignment(cost, maximize=maximize))
        assert oracle_gap_tilde(noisy_slice(3.0), 400) <= 0.01
        assert calls == [False]

    @pytest.mark.parametrize("m", [2.0, 3.0, 5.0])
    def test_dual_value_is_near_optimal(self, m):
        """With phi replaced by the c-transform of psi (exact at phi's own
        nodes and at 1000 low-group quantiles, linear between them), the
        dual value, integrated exactly through partial moments, lies at or
        above the transport value and within 1e-4 relative of it
        (measured: +6e-8 to +1.1e-7). phi itself, the profit minus psi at a
        partner, never exceeds the c-transform, and falls short of it by at
        most 1e-5 (measured: 1.7e-6 to 7.4e-6, at k2)."""
        s = noisy_slice(m)
        cert = build_duals_tilde(s)
        u = np.unique(np.concatenate([s.f_l.quantile((np.arange(1000) + 0.5) / 1000),
                                      cert.phi.breaks]))
        c_phi = c_transform(cert.psi, s.support_lo, s.cap(), u)
        shortfall = c_phi - np.asarray(cert.phi(u))
        assert -1e-12 <= shortfall.min() and shortfall.max() <= 1e-5
        dual = dual_value(dataclasses.replace(cert, phi=_interpolant(u, c_phi)))
        primal = tilde_transport_value(s)
        assert primal <= dual <= primal * (1.0 + 1e-4)

    @pytest.mark.parametrize("lam", [2.0 ** -10, 2.0 ** 10])
    def test_psi_scales_with_values(self, lam):
        """The model is homogeneous in the value scale: psi(lambda v) =
        lambda psi(v)."""
        v = noisy_slice(3.0).f_h.quantile(np.linspace(0.0, 0.999, 101))
        unit = np.asarray(build_duals_tilde(noisy_slice(3.0)).psi(v))
        scaled = np.asarray(build_duals_tilde(noisy_slice(3.0, lam)).psi(lam * v))
        np.testing.assert_allclose(scaled / lam, unit, rtol=1e-13, atol=0.0)


class TestOracleGap:
    def test_c1_gap_small_and_shrinking(self, exp13):
        gaps = {n: oracle_gap(exp13, n) for n in (200, 400, 800)}
        assert gaps[400] <= 0.01
        assert gaps[800] <= gaps[200] * 1.1

    @pytest.mark.parametrize("fixture", ["c2_slice", "c3_slice"])
    def test_full_extraction_regions(self, fixture, request):
        s = request.getfixturevalue(fixture)
        assert oracle_gap(s, 400) <= 0.01

    def test_assigned_pairs_near_optimal_support(self, exp13):
        for n in (100, 400):
            inst = discretize(exp13, n)
            perm, _ = solve_assignment(inst)
            d = np.asarray(optimal_support_distance(
                exp13, inst.v_l_atoms, inst.v_h_atoms[perm]))
            spread = exp13.cap() - exp13.support_lo
            assert np.mean(d <= 3.0 * spread / n) >= 0.95


class TestTildeObjective:
    def test_pair_profit_values(self):
        assert tilde_pair_profit(0.0, 4.0) == pytest.approx(1.0)
        assert tilde_pair_profit(3.0, 3.0) == pytest.approx(1.5)
        assert tilde_pair_profit(2.0, 6.0) == pytest.approx(max(0.5, 1.5, 1.5))

    def test_gap_small_at_four_hundred(self, exp13):
        assert oracle_gap_tilde(exp13, 400) <= 0.01

    def test_gap_decreasing(self, exp13):
        assert oracle_gap_tilde(exp13, 800) <= oracle_gap_tilde(exp13, 200) * 1.1

    def test_transport_value_bounded_by_perfect_discrimination(self, exp13):
        # upper bound: learn each consumer's signal perfectly
        value = tilde_transport_value(exp13)
        upper = 0.5 * (exp13.f_l.mean() / 4 + exp13.f_h.mean() / 4) * 2
        assert 0 < value <= upper

    # scipy.integrate.quad (QUADPACK) over the same bands at epsrel 1.2e-14,
    # which shares no code with the adaptive rule, gives 0.7428147930356911,
    # 0.9821993520509646 and 1.4627435911573534; the m = 3 and 5 values,
    # recorded earlier, agree with it to 4.2e-13 and 1.3e-13 relative.
    @pytest.mark.parametrize("m, recorded", [
        (2.0, 0.7428147930356911), (3.0, 0.982199352051374), (5.0, 1.462743591157543)])
    def test_transport_value_recorded(self, m, recorded):
        s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(m))
        assert tilde_transport_value(s) == pytest.approx(recorded, rel=1e-12)

    @pytest.mark.parametrize("lam", [1e-6, 1e-4, 1e-3, 1e-2, 10.0, 1e4, 3e5, 1e6])
    def test_transport_value_scales_with_values(self, lam):
        """The model is homogeneous in the value scale, and the noisy cutoffs
        and transport value are computed to relative tolerances, so k5 and
        the value scale with lambda to 1e-12."""
        unit = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(3.0))
        s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(lam), f_h=Exponential(3.0 * lam))
        assert solve_kappa_tilde(s).k5 / lam == pytest.approx(solve_kappa_tilde(unit).k5, rel=1e-12)
        assert tilde_transport_value(s) / lam == pytest.approx(tilde_transport_value(unit), rel=1e-12)

    def test_unsupported_configuration(self):
        s = MarketSlice(c=0.5, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(3.0))
        with pytest.raises(UnsupportedConfiguration):
            oracle_gap_tilde(s, 200)

