"""Seeded inputs, ops and output checks of the four benchmark workloads.

Each workload is a closed loop: one client runs one op at a time. Its
INPUTS function draws every input from the seed; an op calls fairprice's
public functions
(or, for verify-cli, its command line) and raises ``CheckFailed`` when an
output is wrong. Op kinds follow a fixed cycle and parameters are stratified,
so a run's mix of cheap and expensive ops does not depend on the seed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import fairprice as fp

# One-line reason each workload exists (repeated as "why" in BENCHMARK.json).
WHY = {
    "solve-cold": "distinct slices through the per-slice solve path with cold caches: dist, cutoffs, "
                  "pricing and welfare do the work; every eighth slice stresses the value scale",
    "sweep-shared": "figures-style alpha sweeps over a few reused family pairs, each point priced under "
                    "five rules: caches hit within a point, load moves to pricing and welfare",
    "verify-cli": "fairprice solve then verify --oracle-n 800 as fresh child processes on 6-slice "
                  "configs: cli start-up and I/O, duality, matching and the assignment oracle",
    "noisy-tilde": "noisy-value variant exp(1) vs exp(m), c=0, alpha=1/2: solve_kappa_tilde and its "
                   "adaptive-Simpson calls, the tilde rule and the n=400 tilde oracle",
}

MAX_OPS = 4000           # inputs generated per run; a run stops early if it uses them all
CLI_TIMEOUT_S = 120.0    # a CLI child that runs longer is killed and its op fails
# Decades of the stress value scale, one per block of 8 ops in this fixed
# order, so that every run (even a short traced one) sees the slow 1e4-1e6
# scales early and in the same proportion. Below 1e-2 ops fail; see
# small_scale_probe.
STRESS_DECADES = (4, -2, 1, 5, -1, 2, 0, 3)
SMALL_SCALES = (1e-6, 1e-4, 1e-3, 1e-2, 0.1)  # probed apart from the timed ops


class CheckFailed(Exception):
    """An op returned, but an output check did not hold."""


class Checker:
    """Output checks of one op; ``force`` fails the first check (self-test)."""

    def __init__(self, force=False):
        self.force = force

    def at_most(self, what, value, bound):
        if self.force or not value <= bound:  # `not <=` also rejects NaN
            self.force = False
            raise CheckFailed(f"{what} = {value!r} exceeds {bound!r}")


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _weyl(rng, n):
    """n points evenly spread over [0, 1) from a seeded start (golden-ratio steps)."""
    return (rng.uniform() + np.arange(n) * (math.sqrt(5.0) - 1.0) / 2.0) % 1.0


def _exp_pair_cost(ratio, region, u):
    """A cost that puts the exponential pair (1, ratio) in ``region``; costs
    scale with the means.

    C1 iff F_l(c) < tv, i.e. c < -log(1 - tv); C2 below the gap maximizer
    v*, C3 at or above it. u in [0, 1) picks a point away from the edges.
    """
    v_star = ratio * math.log(ratio) / (ratio - 1.0)
    tv = math.exp(-v_star / ratio) - math.exp(-v_star)
    c1 = -math.log1p(-tv)
    if region == "C1-zero":
        return 0.0
    if region == "C1":
        return c1 * (0.15 + 0.65 * u)
    if region == "C2":
        return c1 + (v_star - c1) * (0.2 + 0.6 * u)
    return v_star * (1.1 + 0.7 * u)


# ---------------------------------------------------------------- solve-cold

SOLVE_COLD_CYCLE = ("exp:C1-zero", "cost", "exp:C2", "mix", "exp:C1", "cost", "exp:C3", "mix")
STRESS_SLOT = 0  # the cycle position whose value scale spans STRESS_DECADES


def _solve_cold_inputs(seed):
    """Half exponential pairs (all three regions), a quarter cost-scaled
    families and a quarter two-component mixtures, in a fixed cycle of 8.

    Value scales are log-uniform on [0.1, 100], except that the stress slot
    spans 1e-2 to 1e6 (STRESS_DECADES) and mixtures stay on [1, 100] with
    mean ratio >= 2: smaller mixtures can raise OutOfRange, which
    small_scale_probe records instead. The cost-scaled families use mean
    ratios in [9, 12], where they are in region C1, so the median op falls
    inside the C1 cluster of op times.
    """
    rng = _rng(seed, 1)
    n_blocks = MAX_OPS // len(SOLVE_COLD_CYCLE)
    out = []
    for i in range(n_blocks * len(SOLVE_COLD_CYCLE)):
        block, pos = divmod(i, len(SOLVE_COLD_CYCLE))
        kind = SOLVE_COLD_CYCLE[pos]
        if pos == STRESS_SLOT:
            decade = STRESS_DECADES[block % len(STRESS_DECADES)]
            scale = 10.0 ** (decade + rng.uniform())
        elif kind == "mix":
            scale = 10.0 ** rng.uniform(0.0, 2.0)
        else:
            scale = 10.0 ** rng.uniform(-1.0, 2.0)
        ratio = {"cost": (9.0, 12.0), "mix": (2.0, 12.0)}.get(kind, (1.1, 12.0))
        out.append({
            "kind": kind, "scale": scale,
            "ratio": rng.uniform(*ratio), "alpha": rng.uniform(0.15, 0.85),
            "u": rng.uniform(), "w_l": rng.uniform(0.55, 0.9), "w_h": rng.uniform(0.05, 0.35),
        })
    return out


def build_slice(p):
    """MarketSlice for a solve-cold parameter set (built inside the op)."""
    kind, s = p["kind"], p["scale"]
    if kind.startswith("exp:"):
        c = s * _exp_pair_cost(p["ratio"], kind[4:], p["u"])
        return fp.MarketSlice(c=c, alpha=p["alpha"], f_l=fp.Exponential(s),
                              f_h=fp.Exponential(s * p["ratio"]))
    if kind == "cost":
        return fp.MarketSlice(c=s, alpha=p["alpha"], f_l=fp.ScaledFamily(fp.Exponential(1.0), s),
                              f_h=fp.ScaledFamily(fp.Exponential(p["ratio"]), s))
    means = (0.7 * s, 0.7 * s * p["ratio"])
    return fp.MarketSlice(c=0.0, alpha=p["alpha"],
                          f_l=fp.ExponentialMixture(weights=(p["w_l"], 1 - p["w_l"]), means=means),
                          f_h=fp.ExponentialMixture(weights=(p["w_h"], 1 - p["w_h"]), means=means))


def solve_cold_op(p, chk):
    s = build_slice(p)
    region = fp.classify_region(s)
    if region is fp.Region.C1:
        chk.at_most("kappa max residual", fp.solve_kappa(s).max_residual, 1e-8)
    elif region is fp.Region.C2:
        fp.solve_eta(s)
    rule = fp.build_p_star(s)
    cert = fp.build_duals(s)
    report = fp.welfare_report(rule, s)
    chk.at_most("price-cdf gap", fp.check_nondiscrimination(rule, s), 1e-6)
    chk.at_most("|accounting residual|", abs(report.accounting_residual()), 1e-8)
    if region is fp.Region.C1:
        rel = abs(fp.dual_value(cert) - report.profit) / abs(report.profit)
        chk.at_most("dual value vs profit (relative)", rel, 1e-5)


def small_scale_probe():
    """Error type (or None) of the solve-cold op on C1 slices at the value
    scales the timed ops leave out, where the solver is known to fail."""
    out = {}
    for scale in SMALL_SCALES:
        for kind, ratio in (("exp:C1-zero", 12.0), ("cost", 12.0), ("mix", 12.0), ("mix", 1.5)):
            p = {"kind": kind, "scale": scale, "ratio": ratio, "alpha": 0.31, "u": 0.5,
                 "w_l": 0.66, "w_h": 0.29}
            try:
                solve_cold_op(p, Checker())
                out[f"{kind}/{ratio:g}@{scale:g}"] = None
            except Exception as exc:  # every failure is the finding being recorded
                out[f"{kind}/{ratio:g}@{scale:g}"] = type(exc).__name__
    return out


# -------------------------------------------------------------- sweep-shared

def _sweep_shared_inputs(seed):
    rng = _rng(seed, 2)
    families = []
    for _ in range(4):
        ml = rng.uniform(0.5, 2.0)
        families.append((0.0, fp.Exponential(ml), fp.Exponential(ml * rng.uniform(1.5, 10.0))))
    # One mixture, the slow family; its narrow ranges keep the slow tail of
    # the op times similar from seed to seed.
    m1 = rng.uniform(0.6, 0.8)
    means = (m1, m1 * rng.uniform(3.5, 4.5))
    w_l, w_h = rng.uniform(0.65, 0.8), rng.uniform(0.15, 0.25)
    families.append((0.0, fp.ExponentialMixture(weights=(w_l, 1 - w_l), means=means),
                     fp.ExponentialMixture(weights=(w_h, 1 - w_h), means=means)))
    c, lam = rng.uniform(0.3, 2.0), rng.uniform(9.5, 14.0)
    families.append((c, fp.ScaledFamily(fp.Exponential(1.0), c),
                     fp.ScaledFamily(fp.Exponential(lam), c)))
    # Every window of len(families) ops holds one point of each family, and
    # alpha steps through [0.1, 0.9] in golden-ratio order, so even a short
    # run spans the alpha range and its mix does not depend on its length.
    alphas = 0.1 + 0.8 * _weyl(rng, MAX_OPS // len(families))
    return [(families[i % len(families)], float(alphas[i // len(families)]))
            for i in range(len(alphas) * len(families))]


def sweep_shared_op(point, chk):
    (c, f_l, f_h), alpha = point
    s = fp.MarketSlice(c=c, alpha=alpha, f_l=f_l, f_h=f_h)
    star = fp.welfare_report(fp.build_p_star(s), s).profit
    others = (fp.build_p_ass(s), fp.build_p_anti(s, fp.q_star(s)), fp.build_p_anti(s, 1.0))
    for rule in others:
        chk.at_most(f"{rule.name} profit - p_star profit",
                    fp.welfare_report(rule, s).profit - star, 1e-9)
    _, uniform = fp.uniform_price_revenue(s)
    chk.at_most("uniform revenue - p_star profit", uniform - star, 1e-9)


# ---------------------------------------------------------------- verify-cli

VERIFY_CLI_CYCLE = (("exp", "C1-zero"), ("exp", "C2"), ("exp", "C3"),
                    ("cost", "C1"), ("cost", "C2"), ("exp", "C1"))


def _dist(family_mean, scale=None):
    spec = {"family": "exponential", "mean": family_mean}
    return spec if scale is None else {"family": "scaled", "scale": scale, "base": spec}


def _stratum(rng, cell, lo, hi, n):
    """A seeded point of stratum ``cell`` (of ``n`` equal strata) of [lo, hi)."""
    return lo + (hi - lo) * (cell + rng.uniform()) / n


def _verify_cli_inputs(seed):
    """Configs of six slices, one per VERIFY_CLI_CYCLE slot.

    The n=800 assignment dominates an op, and its time doubles to quadruples
    over the alpha and mean-ratio ranges. So in config j, slot k takes alpha,
    ratio and cost position from strata that step with j and k in a fixed
    Latin pattern, and the seed only places each draw inside its stratum:
    op j then costs about the same under every seed. A run holds only 4-5 of
    these ops, and with independent draws the seed alone moved the median
    op time by about a tenth.
    """
    rng = _rng(seed, 3)
    n = len(VERIFY_CLI_CYCLE)
    configs = []
    for j in range(MAX_OPS // 10):
        slices = []
        for k, (family, region) in enumerate(VERIFY_CLI_CYCLE):
            alpha = _stratum(rng, (k + j) % n, 0.15, 0.85, n)
            cell = (k + 2 * j) % n
            if family == "exp":
                ml, ratio = float(rng.uniform(0.5, 2.0)), _stratum(rng, cell, 1.5, 10.0, n)
                c = ml * _exp_pair_cost(ratio, region, _stratum(rng, (k + 3 * j) % n, 0.0, 1.0, n))
                slices.append({"c": c, "alpha": alpha, "f_l": _dist(ml), "f_h": _dist(ml * ratio)})
            else:
                # cost-proportional values: the mean ratio alone fixes the region
                c = float(rng.uniform(0.3, 2.0))
                lam = _stratum(rng, cell, *((9.5, 14.0) if region == "C1" else (2.0, 4.0)), n)
                slices.append({"c": c, "alpha": alpha, "f_l": _dist(1.0, c), "f_h": _dist(lam, c)})
        configs.append({"schema": 1, "market": {"slices": slices}})
    return configs


class CliRunner:
    """Runs fairprice commands as child interpreters from the checkout's src.

    With a tracer, each child starts through cli_boot.py, which installs the
    same wrappers, and its spans are merged into the tracer under the op.
    """

    def __init__(self, root, tmp, tracer=None):
        self.root = Path(root)
        self.tmp = Path(tmp)
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.env.pop("FAIRPRICE_THREADS", None)  # users' default pool
        self.import_ms = []
        self.bytes_written = 0
        self.exit_nonzero = 0

    def run(self, command, config, out, *extra):
        argv = [command, "--config", str(config), "--out", str(out), *extra]
        spans = self.tmp / "child-spans.json"
        start_ns = time.time_ns()
        t_spawn = time.monotonic()
        if self.tracer is None:
            cmd = [sys.executable, "-m", "fairprice", *argv]
        else:
            boot = Path(__file__).with_name("cli_boot.py")
            cmd = [sys.executable, str(boot), str(spans), repr(t_spawn), *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            self.exit_nonzero += 1
        if self.tracer is not None:
            with open(spans) as fh:
                child = json.load(fh)
            spans.unlink()
            self.import_ms.append(1e3 * child["import_s"])
            self.tracer.extend(child["spans"])
            self.bytes_written += sum(f.stat().st_size for f in Path(out).iterdir()
                                      if f.stat().st_mtime_ns >= start_ns)
        return proc


def verify_cli_op(config, chk, runner, op):
    work = runner.tmp / f"op{op}"
    work.mkdir(parents=True)
    try:
        cfg, out = work / "config.json", work / "out"
        cfg.write_text(json.dumps(config))
        for command, extra in (("solve", ()), ("verify", ("--oracle-n", "800"))):
            proc = runner.run(command, cfg, out, *extra)
            stderr = proc.stderr.decode(errors="replace").strip()[-300:]
            chk.at_most(f"fairprice {command} exit code (stderr {stderr!r})", proc.returncode, 0)
        failures = json.loads((out / "verify.json").read_text())["failures"]
        chk.at_most("verify.json failures", len(failures), 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --------------------------------------------------------------- noisy-tilde

def _noisy_tilde_inputs(seed):
    rng = _rng(seed, 4)
    block = 8  # each block of 8 ops draws one m from each eighth of [2, 5]
    ms = []
    while len(ms) < MAX_OPS // 10:
        strata = rng.permutation(block)
        ms.extend(2.0 + 3.0 * (strata + rng.uniform(size=block)) / block)
    return [float(m) for m in ms]


def noisy_tilde_op(m, chk):
    s = fp.MarketSlice(c=0.0, alpha=0.5, f_l=fp.Exponential(1.0), f_h=fp.Exponential(m))
    chk.at_most("kappa~ max residual", fp.solve_kappa_tilde(s).max_residual, 1e-7)
    rule = fp.build_p_tilde_star(s)
    chk.at_most("price-cdf gap", fp.check_nondiscrimination(rule, s), 1e-6)
    chk.at_most("tilde oracle gap (n=400)", fp.oracle_gap_tilde(s, 400), 0.01)


INPUTS = {
    "solve-cold": _solve_cold_inputs,
    "sweep-shared": _sweep_shared_inputs,
    "verify-cli": _verify_cli_inputs,
    "noisy-tilde": _noisy_tilde_inputs,
}
OPS = {
    "solve-cold": solve_cold_op,
    "sweep-shared": sweep_shared_op,
    "noisy-tilde": noisy_tilde_op,
}
