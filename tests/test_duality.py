import math

import numpy as np
import pytest

from fairprice.cutoffs import Kappa, solve_kappa, _standard_residuals
from fairprice.dist import Exponential, MarketSlice, ScaledFamily
from fairprice.duality import (
    build_duals,
    certificate_from_kappa,
    certificate_to_dict,
    check_complementary_slackness,
    check_feasibility,
    dual_value,
)
from fairprice.errors import InfeasibleCertificate, SlacknessViolation
from fairprice.matching import Coupling, build_rho_star
from fairprice.oracle import discretize, solve_assignment
from fairprice.pricing import build_p_star
from fairprice.welfare import pair_profit, welfare_report


class TestBranches:
    def test_psi_vanishes_below_first_cutoff(self, exp13):
        k = solve_kappa(exp13)
        cert = build_duals(exp13)
        v = np.linspace(0.0, k.k1, 20)
        assert np.allclose(cert.psi(v), 0.0, atol=1e-12)

    def test_phi_constant_below_third_cutoff(self, exp13):
        k = solve_kappa(exp13)
        cert = build_duals(exp13)
        v = np.linspace(0.0, k.k3, 20)
        assert np.allclose(cert.phi(v), k.k1 - exp13.c, atol=1e-12)

    def test_degenerate_regime_splits_gains(self, c2_slice):
        cert = build_duals(c2_slice)
        assert cert.regime == "degenerate"
        v = np.array([0.3, 1.0, 2.5])
        a, c = c2_slice.alpha, c2_slice.c
        assert np.allclose(cert.phi(v), (1 - a) * np.maximum(v - c, 0.0), atol=1e-12)
        assert np.allclose(cert.psi(v), a * np.maximum(v - c, 0.0), atol=1e-12)

    def test_continuity_at_breakpoints(self, exp13):
        cert = build_duals(exp13)
        for pa in (cert.phi, cert.psi):
            for b in pa.breaks:
                left = float(pa(b - 1e-12))
                right = float(pa(b + 1e-12))
                assert abs(left - right) <= 1e-9

    def test_serialization(self, exp13):
        doc = certificate_to_dict(build_duals(exp13))
        assert doc["regime"] == "C1"
        assert len(doc["phi"]["slopes"]) == len(doc["phi"]["breaks"]) + 1


class TestFeasibility:
    def test_min_slack_above_floor(self, exp13):
        assert check_feasibility(build_duals(exp13), exp13, 500) >= -1e-6

    def test_diagonal_pairs_bind_in_discount_band(self, exp13):
        k = solve_kappa(exp13)
        cert = build_duals(exp13)
        v = np.linspace(k.k3 + 1e-9, k.k4 - 1e-9, 30)
        slack = (np.asarray(cert.phi(v)) + np.asarray(cert.psi(v))
                 - np.asarray(pair_profit(exp13, v, v)))
        assert np.max(np.abs(slack)) <= 1e-10

    def test_degenerate_binds_when_one_value_is_below_cost(self, c2_slice):
        cert = build_duals(c2_slice)
        rng = np.random.default_rng(2)
        vl = rng.uniform(0, c2_slice.c, 50)
        vh = rng.uniform(0, 5, 50)
        slack = (np.asarray(cert.phi(vl)) + np.asarray(cert.psi(vh))
                 - np.asarray(pair_profit(c2_slice, vl, vh)))
        assert np.max(np.abs(slack)) <= 1e-12

    @pytest.mark.parametrize("factor", [1.001, 0.999])
    @pytest.mark.parametrize("cutoff", ["k1", "k3", "k4", "k5"])
    def test_tampered_cutoffs_fail_feasibility(self, exp13, cutoff, factor):
        """Half of these tampers show only just right of a breakpoint, where
        the right-closed branches of phi and psi switch."""
        k = solve_kappa(exp13)
        ks = tuple(getattr(k, name) * (factor if name == cutoff else 1.0)
                   for name in ("k1", "k2", "k3", "k4", "k5"))
        tampered = Kappa(*ks, residuals=_standard_residuals(exp13, *ks))
        cert = certificate_from_kappa(exp13, tampered)
        with pytest.raises(InfeasibleCertificate) as err:
            check_feasibility(cert, exp13, 500)
        assert err.value.witness is not None

    @pytest.mark.parametrize("cutoff", ["k1", "k3", "k4", "k5"])
    def test_nan_cutoff_fails_both_checks(self, exp13, cutoff):
        """A NaN slack is no pass: k2 aside, every cutoff shapes the duals."""
        k = solve_kappa(exp13)
        ks = tuple(math.nan if name == cutoff else getattr(k, name)
                   for name in ("k1", "k2", "k3", "k4", "k5"))
        cert = certificate_from_kappa(exp13, Kappa(*ks, residuals=_standard_residuals(exp13, *ks)))
        with pytest.raises(InfeasibleCertificate):
            check_feasibility(cert, exp13, 500)
        with pytest.raises(SlacknessViolation):
            check_complementary_slackness(cert, build_rho_star(exp13, 10_000))


class TestComplementarySlackness:
    def test_optimal_coupling_binds(self, exp13):
        cert = build_duals(exp13)
        rho = build_rho_star(exp13, 10_000)
        assert check_complementary_slackness(cert, rho) <= 1e-6

    def test_off_support_pair_has_positive_slack(self, exp13):
        k = solve_kappa(exp13)
        cert = build_duals(exp13)
        off = Coupling(v_l=np.array([k.k2 / 2.0]), v_h=np.array([k.k3]),
                       w=np.array([1.0]), source="probe")
        with pytest.raises(SlacknessViolation) as err:
            check_complementary_slackness(cert, off)
        assert err.value.violation > 1e-6

    def test_degenerate_regime_couplings_bind(self, c3_slice):
        cert = build_duals(c3_slice)
        rho = build_rho_star(c3_slice, 4000)
        assert check_complementary_slackness(cert, rho) <= 1e-10


class TestStrongDuality:
    @pytest.mark.parametrize("fixture", ["exp13", "c2_slice", "c3_slice"])
    def test_dual_value_matches_profit(self, fixture, request):
        s = request.getfixturevalue(fixture)
        dv = dual_value(build_duals(s))
        profit = welfare_report(build_p_star(s), s).profit
        assert dv == pytest.approx(profit, rel=1e-5)

    def test_degenerate_dual_value_is_total_gains(self, c2_slice):
        dv = dual_value(build_duals(c2_slice))
        gains = welfare_report(build_p_star(c2_slice), c2_slice).gains
        assert dv == pytest.approx(gains, rel=1e-9)

    def test_dual_value_scales_with_cost(self):
        def scaled(c):
            return MarketSlice(c=c, alpha=0.5,
                               f_l=ScaledFamily(Exponential(1.0), c),
                               f_h=ScaledFamily(Exponential(12.0), c))

        base = dual_value(build_duals(scaled(1.0)))
        assert dual_value(build_duals(scaled(2.0))) == pytest.approx(2 * base, rel=1e-9)

    def test_weak_duality_against_the_oracle(self, exp13):
        dv = dual_value(build_duals(exp13))
        _, value = solve_assignment(discretize(exp13, 400))
        assert value <= dv + 1e-6
