import json
import math

import numpy as np
import pytest

from conftest import mixture_slice, narrow_slice, scaled12_slice
from fairprice.cutoffs import Region, classify_region, solve_eta, solve_kappa, solve_kappa_tilde
from fairprice.dist import Exponential, ExponentialMixture, MarketSlice, ScaledFamily, _gap_table, gap_profile
from fairprice.errors import OutOfRange, ValidationError
from fairprice.pricing import (
    FORMULAS,
    NONDISCRIMINATION_TOL,
    PRICE_GRID,
    PricingRule,
    Segment,
    _eval_formula,
    _grid_flips,
    _price_grid,
    build_p_anti,
    build_p_ass,
    build_p_star,
    build_p_tilde_star,
    build_perfect_discrimination,
    check_nondiscrimination,
    check_outcome_nondiscrimination,
    price_cdf,
    q_star,
    rule_to_dict,
    sale_pieces,
)
from fairprice.welfare import welfare_report


class TestPStarBranches:
    def test_low_group_identity_above_third_cutoff(self, exp13):
        k = solve_kappa(exp13)
        rule = build_p_star(exp13)
        for v in (k.k3, k.k3 + 0.5, 4.0):
            assert rule.price("l", v) == pytest.approx(v, abs=1e-12)

    def test_high_group_identity_between_first_and_fourth(self, exp13):
        k = solve_kappa(exp13)
        rule = build_p_star(exp13)
        v = 0.5 * (k.k1 + k.k4)
        assert rule.price("h", v) == pytest.approx(v, abs=1e-12)

    def test_priced_out_low_values_face_upper_branch_prices(self, exp13):
        k = solve_kappa(exp13)
        gp = gap_profile(exp13)
        rule = build_p_star(exp13)
        v = np.linspace(1e-6, k.k2 * 0.999, 50)
        prices = rule.price("l", v)
        assert np.all(prices >= gp.v_star - 1e-9)

    def test_priced_out_price_reaches_the_gap_table_end(self, exp13):
        """Just below k2 the upper-branch gap inverse clamps to the end of its
        gap table, the larger 1 - 1e-13 quantile of the two groups (89.80),
        past the 1 - 1e-10 grid cap (69.08); the rule's note says so."""
        k = solve_kappa(exp13)
        end = max(exp13.f_l.quantile(1.0 - 1e-13), exp13.f_h.quantile(1.0 - 1e-13))
        price = build_p_star(exp13).price("l", np.nextafter(k.k2, 0.0))
        assert price == pytest.approx(end, rel=1e-12)
        assert price > exp13.cap()
        assert "1-1e-13 quantile" in build_p_star(exp13).notes[0]

    def test_sign_structure_on_grid(self, exp13):
        """Above value exactly below the exclusion cutoffs, below value on the
        discounted bands, equal elsewhere."""
        k = solve_kappa(exp13)
        rule = build_p_star(exp13)
        eps = 1e-6
        for theta, above_end, discount in (
                ("l", k.k2, (k.k2, k.k3)), ("h", k.k1, (k.k4, k.k5))):
            v = np.linspace(exp13.support_lo + eps, above_end - eps, 41)
            assert np.all(np.asarray(rule.price(theta, v)) > v)
            v = np.linspace(discount[0] + eps, discount[1] - eps, 41)
            assert np.all(np.asarray(rule.price(theta, v)) < v)
        v = np.linspace(k.k3 + eps, 8.0, 41)
        assert np.allclose(rule.price("l", v), v)
        mid = np.linspace(k.k1 + eps, k.k4 - eps, 41)
        tail = np.linspace(k.k5 + eps, 8.0, 41)
        assert np.allclose(rule.price("h", mid), mid)
        assert np.allclose(rule.price("h", tail), tail)

    def test_continuity_and_jumps_at_cutoffs(self, exp13):
        """The rule is continuous at the discount boundaries and jumps down to
        the matched partner's value at the exclusion cutoffs."""
        k = solve_kappa(exp13)
        gp = gap_profile(exp13)
        rule = build_p_star(exp13)
        for theta, point in (("l", k.k3), ("h", k.k4), ("h", k.k5)):
            left = float(rule.price(theta, point - 1e-9))
            right = float(rule.price(theta, point + 1e-9))
            assert abs(left - right) <= 1e-5
        assert float(rule.price("l", k.k2 - 1e-9)) >= gp.v_star
        assert float(rule.price("l", k.k2)) == pytest.approx(k.k1, abs=1e-8)
        assert float(rule.price("h", k.k1 - 1e-9)) == pytest.approx(k.k4, abs=1e-6)
        assert float(rule.price("h", k.k1)) == pytest.approx(k.k1, abs=1e-12)

    def test_c2_constant_below_exclusion_threshold(self, c2_slice):
        eta = solve_eta(c2_slice)
        rule = build_p_star(c2_slice)
        assert rule.price("h", eta.eta_h * 0.5) == pytest.approx(c2_slice.c, abs=1e-12)
        assert rule.price("l", eta.eta_l * 0.5) == pytest.approx(c2_slice.c, abs=1e-12)

    def test_c3_high_group_pays_value_clamped_at_cost(self, c3_slice):
        rule = build_p_star(c3_slice)
        for v in (0.3, 1.9, 2.0, 2.7, 6.0):
            assert rule.price("h", v) == pytest.approx(max(v, c3_slice.c), abs=1e-12)

    def test_deterministic_in_value_only(self, exp13):
        rule = build_p_star(exp13)
        v = np.array([0.2, 0.9, 2.5])
        assert np.array_equal(rule.price("l", v), rule.price("l", v))


class TestSimpleRules:
    def test_assortative_low_group_pays_own_value_above_cost(self):
        s = MarketSlice(c=1.0, alpha=0.5,
                        f_l=Exponential(1.0), f_h=Exponential(12.0))
        rule = build_p_ass(s)
        assert rule.price("l", 2.0) == pytest.approx(2.0)
        assert rule.price("l", 0.5) == pytest.approx(1.0)

    def test_assortative_high_group_quantile_match(self, exp13):
        rule = build_p_ass(exp13)
        v = np.array([0.5, 1.0, 3.0, 9.0])
        assert np.allclose(rule.price("h", v), v / 3.0, atol=1e-10)

    def test_assortative_clamps_at_cost(self):
        s = MarketSlice(c=1.0, alpha=0.5,
                        f_l=Exponential(1.0), f_h=Exponential(12.0))
        rule = build_p_ass(s)
        v_low = float(s.f_h.quantile(float(s.f_l.cdf(1.0)) / 2))
        assert rule.price("h", v_low) == pytest.approx(1.0)

    def test_anti_high_group_pays_value_at_zero_cost(self, exp13):
        rule = build_p_anti(exp13, 0.3)
        for v in (0.1, 1.0, 5.0):
            assert rule.price("h", v) == pytest.approx(v)

    def test_anti_full_split_prices_every_low_consumer_out(self, exp13):
        rule = build_p_anti(exp13, 1.0)
        v = np.linspace(0.05, 8.0, 80)
        assert np.all(np.asarray(rule.price("l", v)) > v)

    def test_anti_at_qstar_sells_to_all_matched_down_consumers(self, exp13):
        q = q_star(exp13)
        rule = build_p_anti(exp13, q)
        v_split = float(exp13.f_l.quantile(q))
        v = np.linspace(v_split + 1e-9, 9.0, 60)
        assert np.all(np.asarray(rule.price("l", v)) <= v + 1e-12)

    def test_anti_rejects_bad_quantile(self, exp13):
        with pytest.raises(OutOfRange):
            build_p_anti(exp13, 1.2)

    def test_tilde_star_branches(self, exp13):
        k = solve_kappa_tilde(exp13)
        rule = build_p_tilde_star(exp13)
        v = k.k3 + 0.4
        assert rule.price("l", v) == pytest.approx(v)
        mid = 0.5 * (k.k1 + k.k4)
        assert rule.price("h", mid) == pytest.approx(mid)


class TestPriceDistribution:
    def test_constant_rule_is_single_atom(self, exp13):
        segs = (
            Segment(theta="l", v_lo=0.0, v_hi=math.inf, formula="constant",
                    params=(("price", 5.0),)),
            Segment(theta="h", v_lo=0.0, v_hi=math.inf, formula="constant",
                    params=(("price", 5.0),)),
        )
        rule = PricingRule(name="posted", slice=exp13, segments=segs)
        pd = price_cdf(rule, exp13, "l")
        assert pd.atoms == ((5.0, 1.0),)
        assert pd.cdf(4.999) == 0.0
        assert pd.cdf(5.0) == pytest.approx(1.0)

    def test_assortative_pushforwards_coincide(self, exp13):
        rule = build_p_ass(exp13)
        pd_l = price_cdf(rule, exp13, "l")
        pd_h = price_cdf(rule, exp13, "h")
        grid = np.linspace(0.0, 20.0, 2001)
        assert np.max(np.abs(pd_l.cdf(grid) - pd_h.cdf(grid))) <= 1e-12

    @pytest.mark.parametrize("fixture", ["exp13", "c2_slice", "c3_slice"])
    def test_p_star_nondiscriminatory_in_every_region(self, fixture, request):
        s = request.getfixturevalue(fixture)
        assert check_nondiscrimination(build_p_star(s), s) <= NONDISCRIMINATION_TOL

    def test_tilde_star_nondiscriminatory(self, exp13):
        assert check_nondiscrimination(build_p_tilde_star(exp13), exp13) <= NONDISCRIMINATION_TOL

    @pytest.mark.parametrize("q", [0.0, 0.25, 1.0])
    def test_anti_nondiscriminatory(self, exp13, q):
        assert check_nondiscrimination(build_p_anti(exp13, q), exp13) <= NONDISCRIMINATION_TOL

    def test_perfect_discrimination_flagged_at_total_variation(self, exp13):
        gap = check_nondiscrimination(build_perfect_discrimination(exp13), exp13)
        tv = gap_profile(exp13).tv
        assert gap > NONDISCRIMINATION_TOL
        assert gap == pytest.approx(tv, abs=1e-9)

    def test_atom_masses_lie_in_unit_interval(self, c3_slice):
        pd = price_cdf(build_p_star(c3_slice), c3_slice, "l")
        for _, mass in pd.atoms:
            assert 0.0 <= mass <= 1.0

    @pytest.mark.parametrize("fixture", ["c2_slice", "c3_slice"])
    def test_groups_share_the_atom_at_cost(self, fixture, request):
        s = request.getfixturevalue(fixture)
        rule = build_p_star(s)
        atoms = [dict(price_cdf(rule, s, theta).atoms) for theta in ("l", "h")]
        assert atoms[0][s.c] == pytest.approx(atoms[1][s.c], abs=1e-12)
        if fixture == "c3_slice":
            # C3 prices every high value below cost at cost; the low group's
            # constant segment [lo, Q_l(F_h(c))) carries the same mass
            assert atoms[0][s.c] == pytest.approx(float(s.f_h.cdf(s.c)), abs=1e-12)
            assert atoms[0][s.c] == pytest.approx(0.48658288, abs=1e-8)

    @pytest.mark.parametrize("case", [
        "p_star-exp13", "p_star-c2", "p_star-c3", "p_star-mix", "p_star-narrow",
        "p_anti_half_qstar-exp13", "p_tilde_star-exp13", "perfect-exp13"])
    def test_pushforward_matches_quantile_midpoint_sample(self, case, request):
        """Independent of the preimage levels: the empirical price cdf of
        200,000 quantile midpoints per group, priced by rule.price. Each
        segment's preimage is one interval of quantiles, and each interval
        end moves the sample cdf by at most one point (5e-6)."""
        name, where = case.split("-")
        s = {"exp13": lambda: request.getfixturevalue("exp13"),
             "c2": lambda: request.getfixturevalue("c2_slice"),
             "c3": lambda: request.getfixturevalue("c3_slice"),
             "mix": mixture_slice, "narrow": lambda: narrow_slice(0.5)}[where]()
        rule = {"p_star": build_p_star, "p_tilde_star": build_p_tilde_star,
                "perfect": build_perfect_discrimination,
                "p_anti_half_qstar": lambda t: build_p_anti(t, 0.5 * q_star(t))}[name](s)
        grid = _price_grid(rule, s)
        u = (np.arange(200_000) + 0.5) / 200_000
        for theta in ("l", "h"):
            dist = s.f_l if theta == "l" else s.f_h
            prices = np.sort(np.asarray(rule.price(theta, np.asarray(dist.quantile(u)))))
            empirical = np.searchsorted(prices, grid, side="right") / u.size
            assert np.max(np.abs(price_cdf(rule, s, theta).cdf(grid) - empirical)) <= 2e-5, theta

    def test_price_cdf_calls_no_quantile(self, exp13, c2_slice, c3_slice, monkeypatch):
        """Every formula's preimage is a level of the own cdf, read from
        cdfs and the gap alone."""
        rules = [build_p_star(s) for s in (exp13, c2_slice, c3_slice, mixture_slice())]
        rules += [build_p_ass(exp13), build_p_anti(exp13, 0.3)]
        assert {seg.formula for rule in rules for seg in rule.segments} == set(FORMULAS)

        def no_quantile(self, q):
            raise AssertionError("quantile called")

        for family in (Exponential, ExponentialMixture, ScaledFamily):
            monkeypatch.setattr(family, "quantile", no_quantile)
        grid = np.linspace(0.0, 30.0, 3001)
        for rule in rules:
            for theta in ("l", "h"):
                cdf = price_cdf(rule, rule.slice, theta).cdf(grid)
                assert np.all(np.diff(cdf) >= 0.0) and cdf[-1] <= 1.0


def test_price_check_evaluates_each_group_cdf_once(exp13, c2_slice, c3_slice, monkeypatch):
    """check_nondiscrimination reads every segment's preimage level from one
    grid-sized cdf call per group distribution."""
    rules = [build_p_star(s) for s in (exp13, c2_slice, c3_slice)]
    rules += [build_p_ass(exp13), build_p_anti(exp13, q_star(exp13))]
    assert [classify_region(rule.slice) for rule in rules[:3]] == [Region.C1, Region.C2, Region.C3]
    calls = []
    for family in (Exponential, ExponentialMixture, ScaledFamily):
        def counted(self, v, cdf=family.cdf):
            if np.size(v) >= PRICE_GRID:
                calls.append(self)
            return cdf(self, v)
        monkeypatch.setattr(family, "cdf", counted)
    for rule in rules:
        calls.clear()
        assert check_nondiscrimination(rule, rule.slice) <= NONDISCRIMINATION_TOL
        assert rule.slice.f_l in calls and rule.slice.f_h in calls, rule.name
        assert max(calls.count(d) for d in calls) == 1, rule.name


class TestOutcomeNondiscrimination:
    def test_assortative_outcomes_identical(self, exp13):
        assert check_outcome_nondiscrimination(build_p_ass(exp13), exp13) <= 1e-6

    def test_optimal_rule_discriminates_in_outcomes(self, exp13):
        # equal price distributions, but sale probabilities differ by group
        assert check_outcome_nondiscrimination(build_p_star(exp13), exp13) > 1e-3


class TestStructure:
    def test_partition_audit_rejects_gaps(self, exp13):
        segs = (
            Segment(theta="l", v_lo=0.0, v_hi=1.0, formula="identity"),
            Segment(theta="l", v_lo=2.0, v_hi=math.inf, formula="identity"),
            Segment(theta="h", v_lo=0.0, v_hi=math.inf, formula="identity"),
        )
        with pytest.raises(ValidationError):
            PricingRule(name="broken", slice=exp13, segments=segs)

    def test_partition_audit_requires_both_groups(self, exp13):
        segs = (Segment(theta="l", v_lo=0.0, v_hi=math.inf, formula="identity"),)
        with pytest.raises(ValidationError):
            PricingRule(name="broken", slice=exp13, segments=segs)

    def test_prices_nondecreasing_on_every_segment(self, exp13, exp112, c2_slice, c3_slice):
        """The price cdf reads each segment's preimage as a lower set of
        values, which holds because every formula is nondecreasing."""
        slices = (exp13, exp112, c2_slice, c3_slice, mixture_slice(), scaled12_slice(0.5),
                  narrow_slice(0.25))
        for s in slices:
            for rule in _constructed_rules(s):
                for seg in rule.segments:
                    hi = min(seg.v_hi, s.cap())
                    if hi <= seg.v_lo:
                        continue
                    prices = np.asarray(rule.price(seg.theta, np.linspace(seg.v_lo, hi, 2002)[:-1]))
                    # up to rounding: 4e-15 on the narrow slice's interpolated cdfs
                    assert np.all(np.diff(prices) >= -1e-13 * np.abs(prices[1:])), (
                        rule.name, seg.theta, seg.tag)

    def test_segments_partition_support_for_all_builders(self, exp13, c2_slice, c3_slice):
        for s in (exp13, c2_slice, c3_slice):
            for rule in (build_p_star(s), build_p_ass(s), build_p_anti(s, 0.4)):
                for theta in ("l", "h"):
                    segs = rule.segments_for(theta)
                    assert segs[0].v_lo == s.support_lo
                    assert math.isinf(segs[-1].v_hi)
                    for a, b in zip(segs[:-1], segs[1:]):
                        assert a.v_hi == pytest.approx(b.v_lo, abs=1e-12)

    def test_prices_never_below_cost(self, c2_slice):
        rule = build_p_star(c2_slice)
        v = np.linspace(c2_slice.support_lo + 1e-9, 8.0, 400)
        for theta in ("l", "h"):
            assert np.all(np.asarray(rule.price(theta, v)) >= c2_slice.c - 1e-12)

    def test_narrow_boundary_rule_prices_every_value_at_itself(self):
        """At the boundary the optimal rule collapses to the assortative one."""
        s = narrow_slice(alpha=0.25)
        rule = build_p_star(s)
        ass = build_p_ass(s)
        v = np.linspace(1.0, 2.0 - 1e-9, 100)
        for theta in ("l", "h"):
            assert np.allclose(rule.price(theta, v), ass.price(theta, v), atol=1e-8)


class TestSerialization:
    def test_rule_serializes_to_json_document(self, exp13):
        doc = rule_to_dict(build_p_star(exp13))
        encoded = json.dumps(doc)
        decoded = json.loads(encoded)
        assert decoded["name"] == "p_star"
        assert {s["theta"] for s in decoded["segments"]} == {"l", "h"}
        for seg in decoded["segments"]:
            assert seg["formula"] in {"identity", "max_with_cost", "constant", "quantile_shift",
                                      "delta_upper_inverse_of_complement",
                                      "delta_lower_inverse_shift"}
            assert seg["v_hi"] is None or seg["v_hi"] > seg["v_lo"]

    def test_cap_note_present_when_priced_out_band_nonempty(self, exp13):
        assert any("cap" in note for note in build_p_star(exp13).notes)


def _sale_slice(kind: str, scale: float, cost: float) -> MarketSlice:
    """Exponential, mixture or cost-scaled pair at a value scale; cost is
    given in units of the scale."""
    if kind == "exp":
        f_l, f_h = Exponential(scale), Exponential(3.0 * scale)
    elif kind == "mix":
        means = (0.7 * scale, 2.8 * scale)
        f_l = ExponentialMixture(weights=(0.7, 0.3), means=means)
        f_h = ExponentialMixture(weights=(0.2, 0.8), means=means)
    else:
        f_l, f_h = ScaledFamily(Exponential(1.0), scale), ScaledFamily(Exponential(12.0), scale)
    return MarketSlice(c=cost * scale, alpha=0.5, f_l=f_l, f_h=f_h)


def _sale_rules(s):
    qs = q_star(s)
    return [build_p_star(s), build_p_ass(s), build_perfect_discrimination(s),
            *(build_p_anti(s, q) for q in (0.0, 0.5 * qs, qs, 1.0))]


def _constructed_rules(s):
    """Every rule builder on s: the rules above, plus the noisy-value rule
    where it is derived (c = 0, alpha = 1/2, region C1)."""
    rules = _sale_rules(s)
    if s.c == 0.0 and s.alpha == 0.5 and classify_region(s) is Region.C1:
        rules.append(build_p_tilde_star(s))
    return rules


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
@pytest.mark.parametrize("kind, cost", [("exp", 0.0), ("exp", 0.25), ("exp", 1.0), ("exp", 2.0),
                                        ("mix", 0.0), ("mix", 0.1), ("cost", 0.0), ("cost", 1.0)])
def test_sale_pieces_partition_by_the_sale_flag(kind, cost, scale, monkeypatch):
    """Every piece's flag holds at 32 interior points (price <= value, up to
    rounding of the price), the flags the optimal rules carry from their
    cutoffs included; pieces of one segment alternate in flag, and no
    constructed rule reaches the flag search by grid and bisection."""
    s = _sale_slice(kind, scale, cost)
    searches = []
    monkeypatch.setattr("fairprice.pricing._grid_flips",
                        lambda *a: searches.append(a[2:]) or _grid_flips(*a))
    cap = s.cap()
    for rule in _constructed_rules(s):
        for theta in ("l", "h"):
            pieces = sale_pieces(rule, s, theta)
            assert pieces[0][0] == s.support_lo and math.isinf(pieces[-1][1])
            for (a0, b0, seg0, sale0), (a1, b1, seg1, sale1) in zip(pieces[:-1], pieces[1:]):
                assert b0 == a1
                assert seg0 is not seg1 or sale0 != sale1, (rule.name, theta, a0, b0, a1, b1)
            for a, b, seg, sale in pieces:
                b = min(b, cap)
                if b <= a:
                    continue
                v = a + (b - a) * (np.arange(32) + 0.5) / 32
                price = np.maximum(np.asarray(_eval_formula(seg, s, v)), s.c)
                slack = 1e-9 * np.maximum(v, s.c)
                if sale:
                    assert np.all(price <= v + slack), (rule.name, theta, a, b, seg.tag)
                else:
                    assert np.all(price > v - slack), (rule.name, theta, a, b, seg.tag)
    assert searches == []


def test_grid_flips_cut_at_adjacent_floats():
    """A hand-built gap-inverse segment that sells on part of its range: the
    high group's price Delta_lo^-1(F_h(v)) on exp(1) vs exp(3) is about v/2
    near 0 and passes v once, near 1.4436. The cut is the first float priced
    above its value, and the float below it sells."""
    s = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(3.0))
    seg = Segment("h", 0.0, 1.45, "delta_lower_inverse_shift", (("offset", 0.0),))
    lo, cut, hi = _grid_flips(seg, s, 0.0, 1.45)
    assert (lo, hi) == (0.0, 1.45) and cut == pytest.approx(1.4436354751788, rel=1e-12)
    price = np.asarray(_eval_formula(seg, s, np.array([np.nextafter(cut, 0.0), cut])))
    assert price[0] <= np.nextafter(cut, 0.0) and price[1] > cut


def test_anti_assortative_sale_stretch_below_the_lower_root():
    """On exp(1) vs exp(3) at c = 0.25, p_anti(q*/2) sells to the low group
    on [c, gap_lower^-1(q*/2)) = [0.25, 0.368): there the price
    max(Q_h(F_l(v) - q), c) is at most v (it is c at v = 0.3). A 129-point
    flag grid over [0.214, 69.08) missed that stretch and reported cs_l =
    0.0075687 and profit 1.398736."""
    s = MarketSlice(c=0.25, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(3.0))
    rule = build_p_anti(s, 0.5 * q_star(s))
    assert rule.price("l", 0.3) == 0.25
    pieces = sale_pieces(rule, s, "l")
    assert any(sale and a == 0.25 and 0.36 < b < 0.37 for a, b, _, sale in pieces)
    rep = welfare_report(rule, s)
    # independent dense midpoint sum of (v - price) f_l(v) 1{price <= v}
    h = 40.0 / 1_000_000
    v = (np.arange(1_000_000) + 0.5) * h
    price = np.asarray(rule.price("l", v))
    dense = float(np.sum(np.where(price <= v, (v - price) * np.asarray(s.f_l.pdf(v)), 0.0)) * h)
    assert rep.cs_l == pytest.approx(dense, rel=1e-7)
    assert rep.cs_l == pytest.approx(0.0105036, abs=1e-7)
    assert rep.profit == pytest.approx(1.399777, abs=1e-6)


@pytest.mark.parametrize("s", [
    MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(3.0)),
    MarketSlice(c=0.2, alpha=0.3, f_l=Exponential(1.0), f_h=Exponential(5.0)),
    mixture_slice(0),
    mixture_slice(3, alpha=0.7),
    scaled12_slice(0.5),
], ids=["exp", "exp-cost", "mix", "mix-alpha", "cost-scaled"])
def test_c1_priced_out_high_segment_skips_the_flag_grid(s, monkeypatch):
    """C1 p_star's high-group priced-out segment Delta_lo^-1(F_h(v) + Delta(k3))
    on [lo, k1) starts at price k3 >= k1 and is nondecreasing, so it never
    sells; it carries that flag from the cutoffs and never reaches the
    129-point grid."""
    def grid_flips(*args, **kwargs):
        raise AssertionError("flag grid reached")

    monkeypatch.setattr("fairprice.pricing._grid_flips", grid_flips)
    assert classify_region(s) is Region.C1
    rule = build_p_star(s)
    for theta in ("l", "h"):
        pieces = sale_pieces(rule, s, theta)
        assert all(not sale for _, _, seg, sale in pieces if seg.tag == "priced-out")
    assert pieces[0][2].formula == "delta_lower_inverse_shift"  # the high group's first segment


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
@pytest.mark.parametrize("kind, cost", [("exp", 0.0), ("exp", 0.25), ("exp", 1.0), ("exp", 2.0),
                                        ("mix", 0.0), ("mix", 0.1), ("cost", 0.0), ("cost", 1.0)])
def test_attached_end_prices_match_the_formula(kind, cost, scale):
    """Each end price an optimal rule carries from its cutoffs is the
    segment's formula at that end to 1e-9 relative. An upper-branch price
    of level 0 is the end of the gap table, where the formula's inverse
    clamps. A price at the gap maximizer (C2's ends of level tv) is checked
    by its level instead: the inverse there is square-root conditioned, and
    at scale 1e-3 the formula's own root is 2e-8 off v*."""
    s = _sale_slice(kind, scale, cost)
    table_end = float(_gap_table(s.f_l, s.f_h, "upper")[0][0])
    gp = gap_profile(s)
    attached = 0
    for rule in _constructed_rules(s):
        for seg in rule.segments:
            for v, price in zip((seg.v_lo, seg.v_hi), seg.end_prices):
                if price is None:
                    continue
                attached += 1
                where = (rule.name, seg.theta, seg.tag, v)
                if price == gp.v_star:
                    own = float((s.f_l if seg.theta == "l" else s.f_h).cdf(v))
                    level = (seg.param("level") - own if seg.formula == "delta_upper_inverse_of_complement"
                             else own + seg.param("offset"))
                    assert level == pytest.approx(gp.tv, abs=1e-12), where
                    continue
                if seg.formula == "delta_upper_inverse_of_complement" and v == seg.v_hi:
                    want = table_end
                else:
                    want = float(_eval_formula(seg, s, float(v)))
                assert price == pytest.approx(want, rel=1e-9), where
    assert attached >= 2


@pytest.mark.parametrize("s", [
    MarketSlice(c=0.0, alpha=0.37, f_l=Exponential(1.2345), f_h=Exponential(4.321)),
    MarketSlice(c=0.0, alpha=0.6, f_l=ExponentialMixture(weights=(0.7, 0.3), means=(0.7, 3.1)),
                f_h=ExponentialMixture(weights=(0.2, 0.8), means=(0.7, 3.1))),
    MarketSlice(c=1.1, alpha=0.45, f_l=ScaledFamily(Exponential(1.0), 1.1),
                f_h=ScaledFamily(Exponential(3.2), 1.1)),
    MarketSlice(c=2.2, alpha=0.55, f_l=Exponential(1.0), f_h=Exponential(3.1)),
], ids=["C1-exp", "C1-mix", "C2", "C3"])
def test_optimal_rule_inverts_no_gap(s, monkeypatch):
    """Building p_star, its welfare report and its price-cdf check call no
    gap inverse and build no gap table: sale flags and segment-end prices
    come from the cutoffs."""
    import fairprice.dist as dist
    import fairprice.welfare as welfare

    calls = []
    real_inverse, real_table = dist.delta_inverse, dist._gap_table

    def counted_inverse(*args):
        calls.append("delta_inverse")
        return real_inverse(*args)

    def counted_table(*args):
        calls.append("_gap_table")
        return real_table(*args)

    monkeypatch.setattr(dist, "delta_inverse", counted_inverse)
    monkeypatch.setattr(welfare, "delta_inverse", counted_inverse)
    monkeypatch.setattr("fairprice.pricing.delta_inverse", counted_inverse)
    monkeypatch.setattr(dist, "_gap_table", counted_table)
    rule = build_p_star.__wrapped__(s)
    report = welfare_report.__wrapped__(rule, s)
    assert check_nondiscrimination(rule, s) <= NONDISCRIMINATION_TOL
    assert abs(report.accounting_residual()) <= 1e-12
    assert calls == []
