"""Profit-maximizing non-discriminatory personalized pricing.

Library + CLI for two-group markets under a statistical non-discrimination
constraint: cutoff systems, piecewise pricing rules, welfare accounting,
optimal couplings, dual certificates, and a brute-force assignment oracle.
"""

__version__ = "0.1.0"

from .cutoffs import Eta, Kappa, Region, classify_region, solve_eta, solve_kappa, solve_kappa_tilde
from .dist import (
    Exponential,
    ExponentialMixture,
    GapProfile,
    Market,
    MarketSlice,
    PiecewiseLinearCdf,
    ScaledFamily,
    delta,
    delta_inverse,
    gap_profile,
)
from .duality import (
    DualCertificate,
    build_duals,
    check_complementary_slackness,
    check_feasibility,
    dual_value,
)
from .matching import (
    Coupling,
    build_rho_star,
    build_rho_tilde,
    coupling_welfare,
    mix_for_target_surplus,
)
from .oracle import AssignmentInstance, discretize, oracle_gap, oracle_gap_tilde, solve_assignment
from .pricing import (
    PriceDistribution,
    PricingRule,
    Segment,
    build_p_anti,
    build_p_ass,
    build_p_star,
    build_p_tilde_star,
    build_perfect_discrimination,
    check_nondiscrimination,
    price_cdf,
    q_star,
)
from .welfare import (
    WelfareReport,
    bbm_triangle,
    optimal_pair_price,
    pair_profit,
    profit_share_bound,
    uniform_price_revenue,
    welfare_report,
)
