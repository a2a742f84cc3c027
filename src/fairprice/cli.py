"""Configuration ingestion, experiment orchestration, and report emission.

Commands
--------
solve     per-slice cutoffs, optimal rule, dual certificate, welfare report
verify    re-certify a solved output directory (or solve fresh): cutoff
          residuals, dual feasibility, complementary slackness, strong
          duality, price-cdf gap, assignment-oracle gap
sweep     welfare along alpha / mean-ratio / cost-scale grids
figures   profit-share table, surplus sweep tables, surplus-triangle vertices
outcomes  achievable low-group surplus range via kernel mixtures

Config files are JSON with a versioned "schema" field; unknown keys are
rejected. CSV output is RFC-4180 with '.' decimals, LF line endings, and
headers; an identical config reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cutoffs import KAPPA_TOL, Kappa, Region, _standard_residuals, classify_region, solve_eta, solve_kappa
from .dist import Exponential, ExponentialMixture, Market, MarketSlice, PiecewiseLinearCdf, ScaledFamily
from .duality import STRONG_DUALITY_RTOL, build_duals, certificate_from_kappa, certificate_to_dict, \
    check_complementary_slackness, check_feasibility, dual_value
from .errors import FairpriceError, NoConvergence, RegionViolation, UnsupportedConfiguration, \
    ValidationError
from .matching import build_rho_star, coupling_welfare, mix_for_target_surplus
from .oracle import analytic_profit, discretize, solve_assignment
from .pricing import NONDISCRIMINATION_TOL, build_p_anti, build_p_ass, build_p_star, \
    check_nondiscrimination, q_star, rule_to_dict
from .welfare import bbm_triangle, surplus_closed_forms, uniform_price_revenue, welfare_report

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFICATION = 4

WELFARE_HEADER = ("c", "weight", "region", "profit", "cs_l", "cs_h", "wl_l", "wl_h", "gains", "share")


class VerificationFailure(FairpriceError):
    def __init__(self, failures):
        super().__init__(f"{len(failures)} verification check(s) failed")
        self.failures = failures


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _require_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)} in {where}")


def _parse_distribution(spec: dict, where: str):
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValidationError(f"{where}: distribution spec must be an object with a 'family'")
    family = spec["family"]
    if family == "exponential":
        _require_keys(spec, {"family", "mean"}, where)
        return Exponential(float(spec["mean"]))
    if family == "exponential_mixture":
        _require_keys(spec, {"family", "weights", "means"}, where)
        return ExponentialMixture(weights=tuple(spec["weights"]), means=tuple(spec["means"]))
    if family == "scaled":
        _require_keys(spec, {"family", "scale", "base"}, where)
        return ScaledFamily(base=_parse_distribution(spec["base"], where + ".base"),
                            scale=float(spec["scale"]))
    if family == "piecewise_linear":
        _require_keys(spec, {"family", "knots"}, where)
        return PiecewiseLinearCdf(knots=tuple((float(v), float(p)) for v, p in spec["knots"]))
    raise ValidationError(f"{where}: unknown family {family!r}")


def _parse_market(spec: dict) -> Market:
    if not isinstance(spec, dict):
        raise ValidationError("'market' must be an object")
    _require_keys(spec, {"slices"}, "market")
    slices = spec.get("slices")
    if not isinstance(slices, list) or not slices:
        raise ValidationError("market.slices must be a nonempty list")
    pairs = []
    for i, s in enumerate(slices):
        where = f"market.slices[{i}]"
        if not isinstance(s, dict):
            raise ValidationError(f"{where} must be an object")
        _require_keys(s, {"c", "alpha", "weight", "f_l", "f_h"}, where)
        try:
            c = float(s.get("c", 0.0))
            alpha = float(s["alpha"])
            f_l = _parse_distribution(s["f_l"], where + ".f_l")
            f_h = _parse_distribution(s["f_h"], where + ".f_h")
            weight = float(s.get("weight", 1.0 / len(slices)))
        except FairpriceError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise ValidationError(f"{where}: malformed entry ({type(exc).__name__}: {exc})") from exc
        pairs.append((MarketSlice(c=c, alpha=alpha, f_l=f_l, f_h=f_h), weight))
    return Market(slices=tuple(pairs))


def _number(value, where: str, kind=float):
    """value as a float, or as an int for kind=int; an int must be integral
    (JSON's 1e3 reads as 1000) and not a bool."""
    if kind is int and (isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())):
        raise ValidationError(f"{where} must be an integer, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where} must be a number, got {value!r}") from exc


def _grid(values, where: str):
    if not isinstance(values, list) or not values:
        raise ValidationError(f"{where} must be a nonempty list")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _grids(raw: dict, section: str, defaults: dict, other_keys=()):
    """The grids of one optional config section, in the order of defaults;
    an absent grid takes its default."""
    obj = raw.get(section, {})
    if not isinstance(obj, dict):
        raise ValidationError(f"'{section}' must be an object")
    _require_keys(obj, set(defaults) | set(other_keys), section)
    return [_grid(obj[k], f"{section}.{k}") if k in obj else d for k, d in defaults.items()]


def _oracle_n(value) -> int:
    n = _number(value, "oracle_n", int)
    if not (10 <= n <= 5000):
        raise ValidationError(f"oracle_n must lie in [10, 5000], got {n}")
    return n


class ExperimentConfig:
    """Validated experiment description (schema version 1)."""

    TOP_KEYS = {"schema", "market", "oracle_n", "out_dir", "sweep", "figures", "outcomes"}

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ValidationError("config root must be a JSON object")
        _require_keys(raw, self.TOP_KEYS, "config")
        if raw.get("schema") != SCHEMA_VERSION:
            raise ValidationError(f"config schema must be {SCHEMA_VERSION}, got {raw.get('schema')!r}")
        if "market" not in raw:
            raise ValidationError("config needs a 'market' section")
        self.market = _parse_market(raw["market"])
        self.oracle_n = _oracle_n(raw.get("oracle_n", 400))
        self.out_dir = raw.get("out_dir")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValidationError(f"out_dir must be a string, got {self.out_dir!r}")
        self.sweep_alpha, self.sweep_gamma, self.sweep_gains = _grids(
            raw, "sweep", {"alpha_grid": None, "gamma_grid": None, "gains_grid": None})
        self.fig_m_grid, self.fig_alpha_grid, self.fig_cost_grid, self.fig_beta_grid = _grids(
            raw, "figures", {"m_grid": [1.5 + 0.5 * i for i in range(18)],
                             "alpha_grid": [round(0.05 * i, 2) for i in range(1, 20)],
                             "cost_grid": [0.25 * i for i in range(1, 13)],
                             "beta_grid": [0.0, 0.5, 1.0]})
        self.sigma_fractions, = _grids(
            raw, "outcomes", {"sigma_fractions": [0.0, 0.25, 0.5, 0.75, 1.0]}, {"n_atoms"})
        for i, frac in enumerate(self.sigma_fractions):
            if not (0.0 <= frac <= 1.0):
                raise ValidationError(f"outcomes.sigma_fractions[{i}] must lie in [0, 1], got {frac!r}")
        self.outcome_atoms = _number(raw.get("outcomes", {}).get("n_atoms", 10_000),
                                     "outcomes.n_atoms", int)
        if not (10 <= self.outcome_atoms <= 10**6):
            raise ValidationError(f"outcomes.n_atoms must lie in [10, 1000000], got {self.outcome_atoms}")


def _pool_size() -> int:  # kept only for perfbench, which reads it; ROADMAP item 6 deletes it
    return 1


def _parallel_map(fn, items):  # kept only for perfbench, which reads it; ROADMAP item 6 deletes it
    return [fn(x) for x in items]


def _solve_slice(slice_: MarketSlice):
    region = classify_region(slice_)
    kappa = solve_kappa(slice_) if region is Region.C1 else None
    eta = solve_eta(slice_) if region is Region.C2 else None
    rule = build_p_star(slice_)
    cert = build_duals(slice_)
    report = welfare_report(rule, slice_)
    return region, kappa, eta, rule, cert, report


def _kappa_entry(i, slice_, weight, region, kappa, eta):
    entry = {
        "slice": i,
        "c": slice_.c,
        "alpha": slice_.alpha,
        "weight": weight,
        "region": region.value,
        "kappa": None,
        "eta": None,
    }
    if kappa is not None:
        entry["kappa"] = {
            "k1": kappa.k1, "k2": kappa.k2, "k3": kappa.k3, "k4": kappa.k4, "k5": kappa.k5,
            "residuals": list(kappa.residuals), "variant": kappa.variant,
        }
    if eta is not None:
        entry["eta"] = {"eta_l": eta.eta_l, "eta_h": eta.eta_h}
    return entry


def cmd_solve(config: ExperimentConfig, out: Path) -> None:
    solved = _parallel_map(lambda sw: _solve_slice(sw[0]), list(config.market.slices))
    kappa_doc, rules_doc, duals_doc, rows = [], [], [], []
    for i, ((slice_, weight), (region, kappa, eta, rule, cert, report)) in enumerate(
            zip(config.market.slices, solved)):
        gap = check_nondiscrimination(rule, slice_)
        if gap > NONDISCRIMINATION_TOL:
            raise VerificationFailure([{
                "check": "nondiscrimination", "slice": i, "gap": gap,
            }])
        kappa_doc.append(_kappa_entry(i, slice_, weight, region, kappa, eta))
        rules_doc.append({"slice": i, **rule_to_dict(rule)})
        duals_doc.append({"slice": i, **certificate_to_dict(cert)})
        rows.append((slice_.c, weight, report.region, report.profit, report.cs_l,
                     report.cs_h, report.wl_l, report.wl_h, report.gains, report.share))
    _write_json(out / "kappa.json", kappa_doc)
    _write_json(out / "rule.json", rules_doc)
    _write_json(out / "duals.json", duals_doc)
    _write_csv(out / "welfare.csv", WELFARE_HEADER, rows)


def _load_kappa_overrides(out: Path, market: Market):
    """Map slice index -> Kappa rebuilt from a previous solve's kappa.json,
    with residuals recomputed against the current market."""
    path = out / "kappa.json"
    if not path.exists():
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"kappa.json is not valid JSON: {exc}") from exc
    if not isinstance(doc, list) or not all(isinstance(entry, dict) for entry in doc):
        raise ValidationError("kappa.json must be a list of objects")
    overrides = {}
    for j, entry in enumerate(doc):
        payload = entry.get("kappa")
        if payload is None:
            continue
        where = f"kappa.json[{j}]"
        i = entry.get("slice")
        if type(i) is not int or not 0 <= i < len(market.slices):
            raise ValidationError(
                f"{where}.slice must be an integer in [0, {len(market.slices)}), got {i!r}")
        if not isinstance(payload, dict):
            raise ValidationError(f"{where}.kappa must be an object")
        names = ("k1", "k2", "k3", "k4", "k5")
        missing = [k for k in names if k not in payload]
        if missing:
            raise ValidationError(f"{where}.kappa is missing {missing}")
        ks = tuple(_number(payload[k], f"{where}.kappa.{k}") for k in names)
        overrides[i] = Kappa(*ks, residuals=_standard_residuals(market.slices[i][0], *ks),
                             variant=payload.get("variant", "standard"))
    return overrides


def cmd_verify(config: ExperimentConfig, out: Path) -> None:
    overrides = _load_kappa_overrides(out, config.market)
    failures = []
    oracle_rows = []
    for i, (slice_, weight) in enumerate(config.market.slices):
        region = classify_region(slice_)
        kappa = overrides.get(i)
        if kappa is None and region is Region.C1:
            kappa = solve_kappa(slice_)
        if kappa is not None and not kappa.max_residual <= KAPPA_TOL:
            failures.append({"check": "kappa_residuals", "slice": i,
                             "residuals": list(kappa.residuals)})
        cert = certificate_from_kappa(slice_, kappa) if kappa is not None and region is Region.C1 \
            else build_duals(slice_)
        try:
            min_slack = check_feasibility(cert, slice_, 500)
        except FairpriceError as exc:
            failures.append({"check": "dual_feasibility", "slice": i, "message": str(exc),
                             "witness": list(getattr(exc, "witness", ()) or ())})
            min_slack = getattr(exc, "slack", math.nan)
        coupling = build_rho_star(slice_, 10_000)
        try:
            max_violation = check_complementary_slackness(cert, coupling)
        except FairpriceError as exc:
            failures.append({"check": "complementary_slackness", "slice": i, "message": str(exc),
                             "witness": list(getattr(exc, "witness", ()) or ())})
            max_violation = getattr(exc, "violation", math.nan)
        rule = build_p_star(slice_)
        gap = check_nondiscrimination(rule, slice_)
        if gap > NONDISCRIMINATION_TOL:
            failures.append({"check": "nondiscrimination", "slice": i, "gap": gap})
        target = analytic_profit(slice_)
        dual = dual_value(cert)
        if not abs(target - dual) <= STRONG_DUALITY_RTOL * abs(dual):
            failures.append({"check": "strong_duality", "slice": i, "profit": target,
                             "dual_value": dual})
        _, value = solve_assignment(discretize(slice_, config.oracle_n), cert)
        rel_gap = abs(value - target) / abs(target) if target else math.inf
        if rel_gap > 0.01:
            failures.append({"check": "oracle_gap", "slice": i, "gap": rel_gap})
        oracle_rows.append((i, slice_.c, slice_.alpha, region.value, config.oracle_n,
                            value, target, rel_gap, min_slack, max_violation, gap))
    _write_csv(out / "oracle.csv",
               ("slice", "c", "alpha", "region", "n", "assignment_value",
                "analytic_profit", "rel_gap", "min_dual_slack", "max_slackness", "cdf_gap"),
               oracle_rows)
    _write_json(out / "verify.json", {"failures": failures, "checked_slices": len(config.market.slices)})
    if failures:
        raise VerificationFailure(failures)


def _sweep_points(template: MarketSlice, axis: str, grid, where: str):
    """Slices along one axis of a template: 'alpha' moves the group share,
    'gamma' the mean ratio of an exponential pair (low mean fixed), and
    'cost_scale' the cost together with the scale of a scaled-family pair."""
    if axis == "alpha":
        return [MarketSlice(c=template.c, alpha=a, f_l=template.f_l, f_h=template.f_h) for a in grid]
    if axis == "gamma":
        if not isinstance(template.f_l, Exponential):
            raise ValidationError("gamma sweeps need an exponential low-group template")
        if any(g <= 1.0 for g in grid):
            raise ValidationError(f"{where} entries must exceed 1")
        return [MarketSlice(c=template.c, alpha=template.alpha, f_l=template.f_l,
                            f_h=Exponential(template.f_l.mean_value * g)) for g in grid]
    if not isinstance(template.f_l, ScaledFamily):
        raise ValidationError("gains sweeps need a scaled-family template")
    return [MarketSlice(c=c, alpha=template.alpha, f_l=ScaledFamily(template.f_l.base, c),
                        f_h=ScaledFamily(template.f_h.base, c)) for c in grid]


def _star_reports(slices):
    """Welfare report of the optimal rule on each slice."""
    return _parallel_map(lambda s: welfare_report(build_p_star(s), s), slices)


def _benchmark_profits(slice_: MarketSlice):
    """Profits of the assortative rule, the anti-assortative rule at q* and at
    1, and the uniform price."""
    rules = (build_p_ass(slice_), build_p_anti(slice_, q_star(slice_)), build_p_anti(slice_, 1.0))
    return [welfare_report(rule, slice_).profit for rule in rules] + [uniform_price_revenue(slice_)[1]]


def _profit_share_rows(template: MarketSlice, m_grid):
    slices = _sweep_points(template, "gamma", m_grid, "figures.m_grid")
    rows = []
    for m, rep, others in zip(m_grid, _star_reports(slices), _parallel_map(_benchmark_profits, slices)):
        for label, profit in zip(("p_star", "p_ass", "p_anti_qstar", "p_anti_1", "uniform"),
                                 (rep.profit, *others)):
            rows.append((m, label, profit, rep.gains, profit / rep.gains))
    return rows


def _cs_alpha_rows(template: MarketSlice, alpha_grid):
    reports = _star_reports(_sweep_points(template, "alpha", alpha_grid, "figures.alpha_grid"))
    return [(a, rep.cs_l, rep.cs_h, rep.profit, rep.share) for a, rep in zip(alpha_grid, reports)]


def _cs_gains_rows(template: MarketSlice, cost_grid):
    slices = _sweep_points(template, "cost_scale", cost_grid, "figures.cost_grid")
    offending = [s.c for s in slices if classify_region(s) is not Region.C1]
    if offending:
        raise RegionViolation("surplus-by-gains sweep needs admissible slices", offending=offending)
    return [(c, rep.gains, rep.cs_l, rep.cs_h, rep.profit)
            for c, rep in zip(cost_grid, _star_reports(slices))]


def _triangle_rows(beta_grid):
    rows = []
    alpha = 0.25
    f_bar, f_lo = Exponential(10.0), Exponential(1.0)
    for beta in beta_grid:
        if not (0.0 <= beta <= 1.0):
            raise ValidationError("figures.beta_grid entries must lie in [0, 1]")
        w_h = beta + alpha * (1.0 - beta)
        w_l = (1.0 - beta) * alpha
        f_h = ExponentialMixture(weights=(w_h, 1.0 - w_h), means=(f_bar.mean_value, f_lo.mean_value))
        f_l = ExponentialMixture(weights=(w_l, 1.0 - w_l), means=(f_bar.mean_value, f_lo.mean_value))
        market = Market(slices=((MarketSlice(c=0.0, alpha=alpha, f_l=f_l, f_h=f_h), 1.0),))
        (v1, v2, v3) = bbm_triangle(market)
        ev = v1[0]
        rows.append((beta, ev, v1[0], v1[1], v2[0], v2[1], v3[0], v3[1]))
    return rows


def cmd_figures(config: ExperimentConfig, out: Path) -> None:
    fig_dir = out / "figures"
    fig_dir.mkdir(parents=True, exist_ok=True)
    exp13 = MarketSlice(c=0.0, alpha=0.5, f_l=Exponential(1.0), f_h=Exponential(3.0))
    _write_csv(fig_dir / "profit_share.csv",
               ("m", "rule", "profit", "total_surplus", "share"),
               _profit_share_rows(exp13, config.fig_m_grid))
    _write_csv(fig_dir / "cs_by_alpha.csv",
               ("alpha", "cs_l", "cs_h", "profit", "share"),
               _cs_alpha_rows(exp13, config.fig_alpha_grid))
    scaled = MarketSlice(c=1.0, alpha=0.5, f_l=ScaledFamily(Exponential(1.0), 1.0),
                         f_h=ScaledFamily(Exponential(12.0), 1.0))
    _write_csv(fig_dir / "cs_by_gains.csv",
               ("c", "gains", "cs_l", "cs_h", "profit"),
               _cs_gains_rows(scaled, config.fig_cost_grid))
    _write_csv(fig_dir / "triangle.csv",
               ("beta", "ev", "v1_profit", "v1_cs", "v2_profit", "v2_cs", "v3_profit", "v3_cs"),
               _triangle_rows(config.fig_beta_grid))


def cmd_outcomes(config: ExperimentConfig, out: Path) -> None:
    rows = []
    for i, (slice_, _) in enumerate(config.market.slices):
        region = classify_region(slice_)
        if region is not Region.C1:
            raise RegionViolation("outcome ranges are defined on C1 slices",
                                  offending=[slice_.c])
        cs_l_star, cs_h_star = surplus_closed_forms(slice_)
        profit_star = analytic_profit(slice_)
        for frac in config.sigma_fractions:
            target = frac * cs_l_star
            mix = mix_for_target_surplus(slice_, target, config.outcome_atoms)
            profit, cs_l, cs_h = coupling_welfare(slice_, mix)
            rows.append((i, slice_.c, slice_.alpha, frac, target, cs_l, cs_h, profit,
                         cs_l_star, cs_h_star, profit_star, mix.source))
    _write_csv(out / "outcomes.csv",
               ("slice", "c", "alpha", "fraction", "sigma_target", "sigma_l", "sigma_h",
                "profit", "cs_l_star", "cs_h_star", "profit_star", "source"),
               rows)


def cmd_sweep(config: ExperimentConfig, out: Path) -> None:
    template = config.market.slices[0][0]
    axes = (("alpha", config.sweep_alpha, "sweep.alpha_grid"),
            ("gamma", config.sweep_gamma, "sweep.gamma_grid"),
            ("cost_scale", config.sweep_gains, "sweep.gains_grid"))
    points = [(axis, value, slice_) for axis, grid, where in axes if grid
              for value, slice_ in zip(grid, _sweep_points(template, axis, grid, where))]
    if not points:
        raise ValidationError("sweep command needs at least one grid in the 'sweep' section")
    rows = [(axis, value, s.c, s.alpha, rep.region, rep.profit,
             rep.cs_l, rep.cs_h, rep.wl_l, rep.wl_h, rep.gains, rep.share)
            for (axis, value, s), rep in zip(points, _star_reports([p[2] for p in points]))]
    _write_csv(out / "sweep.csv",
               ("axis", "value", "c", "alpha", "region", "profit", "cs_l", "cs_h",
                "wl_l", "wl_h", "gains", "share"),
               rows)


COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "figures": cmd_figures,
    "outcomes": cmd_outcomes,
}


def run(config_path, command: str, out_dir=None, oracle_n=None) -> int:
    """Execute one command against a config file; returns the exit code and
    writes error.json next to the outputs on failure."""
    out = Path(out_dir) if out_dir else None
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _emit_error(out, EXIT_CONFIG, type(exc).__name__, str(exc))
        return EXIT_CONFIG
    # read before validation, so that a config error lands in error.json too
    if out is None and isinstance(raw, dict) and isinstance(raw.get("out_dir"), str):
        out = Path(raw["out_dir"] or "out")
    try:
        config = ExperimentConfig(raw)
        if oracle_n is not None:
            config.oracle_n = _oracle_n(oracle_n)
        out = out or Path("out")
        out.mkdir(parents=True, exist_ok=True)
        COMMANDS[command](config, out)
        return EXIT_OK
    except (ValidationError, UnsupportedConfiguration) as exc:
        _emit_error(out, EXIT_CONFIG, type(exc).__name__, str(exc))
        return EXIT_CONFIG
    except NoConvergence as exc:
        _emit_error(out, EXIT_NO_CONVERGENCE, type(exc).__name__, str(exc),
                    details=getattr(exc, "diagnostics", {}))
        return EXIT_NO_CONVERGENCE
    except VerificationFailure as exc:
        _emit_error(out, EXIT_VERIFICATION, type(exc).__name__, str(exc),
                    details={"failures": exc.failures})
        return EXIT_VERIFICATION
    except FairpriceError as exc:
        details = {"offending": getattr(exc, "offending", None),
                   "witness": getattr(exc, "witness", None)}
        _emit_error(out, EXIT_VERIFICATION, type(exc).__name__, str(exc), details=details)
        return EXIT_VERIFICATION


def _emit_error(out, code: int, error: str, message: str, details=None) -> None:
    payload = {"error": error, "message": message, "exit_code": code,
               "details": details or {}}
    if out is not None:
        try:
            out.mkdir(parents=True, exist_ok=True)
            _write_json(out / "error.json", payload)
        except OSError:
            pass
    print(f"error: {message}", file=sys.stderr)


def _jsonable(obj):
    """Plain JSON values: numpy scalars unwrapped, non-finite floats as null
    (JSON has no NaN or infinity)."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fairprice",
        description="Non-discriminatory personalized pricing: solve, certify, and report.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the JSON experiment config")
        cmd.add_argument("--out", default=None, help="output directory (default from config)")
        cmd.add_argument("--oracle-n", type=int, default=None, help="assignment-oracle atom count")
    args = parser.parse_args(argv)
    return run(args.config, args.command, out_dir=args.out, oracle_n=args.oracle_n)


if __name__ == "__main__":
    raise SystemExit(main())
