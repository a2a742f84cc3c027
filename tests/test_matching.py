import numpy as np
import pytest

from conftest import ks_distance
from helpers import optimal_support_distance
from fairprice.cutoffs import solve_kappa
from fairprice.duality import build_duals
from fairprice.errors import OutOfRange, ValidationError, WrongRegion
from fairprice.matching import (
    Coupling,
    build_rho_star,
    build_rho_tilde,
    coupling_welfare,
    mix_for_target_surplus,
)
from fairprice.welfare import pair_profit, surplus_closed_forms, welfare_report
from fairprice.pricing import build_p_star


class TestRhoStar:
    def test_diagonal_block_between_third_and_fourth_cutoffs(self, exp13):
        k = solve_kappa(exp13)
        rho = build_rho_star(exp13, 2000)
        mask = (rho.v_h > k.k3 + 1e-12) & (rho.v_h <= k.k4 - 1e-12)
        assert np.any(mask)
        assert np.allclose(rho.v_l[mask], rho.v_h[mask])

    def test_marginals_match_at_ten_thousand_atoms(self, exp13):
        rho = build_rho_star(exp13, 10_000)
        assert ks_distance(rho.v_l, rho.w, exp13.f_l) <= 0.02
        assert ks_distance(rho.v_h, rho.w, exp13.f_h) <= 0.02

    def test_marginals_for_other_regions(self, c2_slice, c3_slice):
        for s in (c2_slice, c3_slice):
            rho = build_rho_star(s, 4000)
            assert ks_distance(rho.v_l, rho.w, s.f_l) <= 2.0 / np.sqrt(4000)
            assert ks_distance(rho.v_h, rho.w, s.f_h) <= 2.0 / np.sqrt(4000)

    def test_c3_assortative_below_cost_and_split_above(self, c3_slice):
        rho = build_rho_star(c3_slice, 3000)
        below = rho.v_h <= c3_slice.c
        expected = np.asarray(c3_slice.f_l.quantile(np.asarray(c3_slice.f_h.cdf(rho.v_h[below]))))
        assert np.allclose(rho.v_l[below], expected, atol=1e-9)
        above = rho.v_h > c3_slice.c
        # each tail atom appears twice: once on the diagonal, once matched down
        vh_above = rho.v_h[above]
        assert len(vh_above) == 2 * len(np.unique(vh_above.round(12)))

    def test_minimum_atom_count(self, exp13):
        with pytest.raises(ValidationError):
            build_rho_star(exp13, 5)

    def test_transport_value_attains_analytic_profit(self, exp13):
        rho = build_rho_star(exp13, 10_000)
        profit = welfare_report(build_p_star(exp13), exp13).profit
        assert coupling_welfare(exp13, rho)[0] == pytest.approx(profit, rel=1e-3)


class TestRhoTilde:
    def test_requires_region_c1(self, c2_slice):
        with pytest.raises(WrongRegion):
            build_rho_tilde(c2_slice, 100)

    def test_diagonal_through_discount_band(self, exp13):
        k = solve_kappa(exp13)
        rho = build_rho_tilde(exp13, 2000)
        mask = (rho.v_h > k.k1 + 1e-12) & (rho.v_h <= k.k4 - 1e-12)
        assert np.any(mask)
        assert np.allclose(rho.v_l[mask], rho.v_h[mask])

    def test_leaves_low_group_no_surplus(self, exp13):
        rho = build_rho_tilde(exp13, 10_000)
        _, cs_l, _ = coupling_welfare(exp13, rho)
        assert cs_l == pytest.approx(0.0, abs=1e-12)

    def test_marginals_match(self, exp13):
        rho = build_rho_tilde(exp13, 10_000)
        assert ks_distance(rho.v_l, rho.w, exp13.f_l) <= 2.0 / np.sqrt(10_000) + 1e-3
        assert ks_distance(rho.v_h, rho.w, exp13.f_h) <= 2.0 / np.sqrt(10_000)

    def test_same_transport_value_as_rho_star(self, exp13):
        n = 10_000
        star = coupling_welfare(exp13, build_rho_star(exp13, n))[0]
        tilde = coupling_welfare(exp13, build_rho_tilde(exp13, n))[0]
        assert tilde == pytest.approx(star, rel=1e-6)


class TestMixtures:
    def test_endpoints_return_pure_kernels(self, exp13):
        cs_star, _ = surplus_closed_forms(exp13)
        assert mix_for_target_surplus(exp13, 0.0, 500).source == "rho_tilde"
        assert mix_for_target_surplus(exp13, cs_star, 500).source == "rho_star"

    def test_half_target_realized(self, exp13):
        cs_star, _ = surplus_closed_forms(exp13)
        mix = mix_for_target_surplus(exp13, cs_star / 2, 10_000)
        _, cs_l, _ = coupling_welfare(exp13, mix)
        assert cs_l == pytest.approx(cs_star / 2, rel=0.01)

    def test_profit_and_high_surplus_invariant(self, exp13):
        cs_star, cs_h_star = surplus_closed_forms(exp13)
        profit_star = welfare_report(build_p_star(exp13), exp13).profit
        for frac in (0.0, 0.5, 1.0):
            mix = mix_for_target_surplus(exp13, frac * cs_star, 10_000)
            profit, _, cs_h = coupling_welfare(exp13, mix)
            assert profit == pytest.approx(profit_star, rel=0.01)
            assert cs_h == pytest.approx(cs_h_star, rel=0.01)

    def test_out_of_range_rejected(self, exp13):
        cs_star, _ = surplus_closed_forms(exp13)
        with pytest.raises(OutOfRange):
            mix_for_target_surplus(exp13, cs_star * 1.5, 100)
        with pytest.raises(OutOfRange):
            mix_for_target_surplus(exp13, -0.01, 100)


class TestSupportStructure:
    def test_couplings_live_on_the_six_blocks(self, exp13):
        cs_star, _ = surplus_closed_forms(exp13)
        for coupling in (build_rho_star(exp13, 4000), build_rho_tilde(exp13, 4000),
                         mix_for_target_surplus(exp13, cs_star / 3, 4000)):
            d = np.asarray(optimal_support_distance(exp13, coupling.v_l, coupling.v_h))
            assert float(np.max(d)) <= 1e-9

    def test_support_satisfies_complementary_slackness(self, exp13):
        cert = build_duals(exp13)
        rho = build_rho_star(exp13, 5000)
        gap = (np.asarray(cert.phi(rho.v_l)) + np.asarray(cert.psi(rho.v_h))
               - np.asarray(pair_profit(exp13, rho.v_l, rho.v_h)))
        assert float(np.max(np.abs(gap))) <= 1e-6


class TestCouplingValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            Coupling(v_l=np.array([1.0]), v_h=np.array([1.0]),
                     w=np.array([0.5]), source="bad")

    def test_shapes_must_agree(self):
        with pytest.raises(ValidationError):
            Coupling(v_l=np.array([1.0, 2.0]), v_h=np.array([1.0]),
                     w=np.array([1.0]), source="bad")
