import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairprice.cli import ExperimentConfig, _write_json, main, run


BASE_CONFIG = {
    "schema": 1,
    "market": {"slices": [
        {"c": 0.0, "alpha": 0.5, "weight": 1.0,
         "f_l": {"family": "exponential", "mean": 1.0},
         "f_h": {"family": "exponential", "mean": 3.0}},
    ]},
    "oracle_n": 200,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSolve:
    def test_writes_all_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert run(cfg, "solve", out_dir=out) == 0
        for name in ("kappa.json", "rule.json", "duals.json", "welfare.csv"):
            assert (out / name).exists()
        rows = read_csv(out / "welfare.csv")
        assert rows[0]["region"] == "C1"
        assert 0.95 <= float(rows[0]["share"]) <= 1.0
        kappa = json.loads((out / "kappa.json").read_text())
        assert max(abs(r) for r in kappa[0]["kappa"]["residuals"]) <= 1e-8

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(cfg, "solve", out_dir=out1) == 0
        assert run(cfg, "solve", out_dir=out2) == 0
        for name in ("welfare.csv", "kappa.json", "rule.json", "duals.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_mixed_regions(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["market"]["slices"] = [
            {"c": 0.0, "alpha": 0.5, "weight": 0.5,
             "f_l": {"family": "exponential", "mean": 1.0},
             "f_h": {"family": "exponential", "mean": 3.0}},
            {"c": 1.0, "alpha": 0.5, "weight": 0.5,
             "f_l": {"family": "scaled", "scale": 1.0, "base": {"family": "exponential", "mean": 1.0}},
             "f_h": {"family": "scaled", "scale": 1.0, "base": {"family": "exponential", "mean": 3.0}}},
        ]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(cfg, "solve", out_dir=out) == 0
        rows = read_csv(out / "welfare.csv")
        assert [r["region"] for r in rows] == ["C1", "C2"]
        assert float(rows[1]["cs_l"]) == pytest.approx(0.0, abs=1e-8)


class TestValidation:
    def test_empty_slices_is_config_error(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["market"]["slices"] = []
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(cfg, "solve", out_dir=out) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["exit_code"] == 2

    def test_unknown_key_rejected(self, tmp_path):
        # "seed" is no longer a config key, so it is as unknown as any other
        for key, value in (("surprise", True), ("seed", 7)):
            payload = json.loads(json.dumps(BASE_CONFIG))
            payload[key] = value
            cfg = write_config(tmp_path, payload)
            assert run(cfg, "solve", out_dir=tmp_path / key) == 2

    def test_unknown_distribution_key_rejected(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["market"]["slices"][0]["f_l"]["rate"] = 2.0
        cfg = write_config(tmp_path, payload)
        assert run(cfg, "solve", out_dir=tmp_path / "out") == 2

    def test_wrong_schema_version(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["schema"] = 99
        cfg = write_config(tmp_path, payload)
        assert run(cfg, "solve", out_dir=tmp_path / "out") == 2

    def test_unreadable_config(self, tmp_path):
        assert run(tmp_path / "missing.json", "solve", out_dir=tmp_path / "out") == 2

    def test_oracle_n_bounds(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert run(cfg, "verify", out_dir=tmp_path / "out", oracle_n=7) == 2

    @pytest.mark.parametrize("n_atoms", [5, 10**12])
    def test_n_atoms_bounds(self, tmp_path, n_atoms):
        """outcomes.n_atoms is checked at config load for every command, so
        a count too large to allocate fails before any coupling is built."""
        payload = {**BASE_CONFIG, "outcomes": {"n_atoms": n_atoms}}
        out = tmp_path / "out"
        assert run(write_config(tmp_path, payload), "solve", out_dir=out) == 2
        err = json.loads((out / "error.json").read_text())
        assert (err["exit_code"], err["error"]) == (2, "ValidationError")

    @pytest.mark.parametrize("edit", [
        lambda p: p.update(oracle_n=200.9),
        lambda p: p.update(oracle_n=True),
        lambda p: p.update(outcomes={"n_atoms": 1000.5}),
        lambda p: p.update(outcomes={"n_atoms": True}),
    ], ids=["oracle-n-fraction", "oracle-n-bool", "n-atoms-fraction", "n-atoms-bool"])
    def test_non_integral_count_is_config_error(self, tmp_path, edit):
        """A count is not truncated: 200.9 is an error, not 200."""
        payload = json.loads(json.dumps(BASE_CONFIG))
        edit(payload)
        out = tmp_path / "out"
        assert run(write_config(tmp_path, payload), "solve", out_dir=out) == 2
        err = json.loads((out / "error.json").read_text())
        assert (err["exit_code"], err["error"]) == (2, "ValidationError")
        assert "must be an integer" in err["message"]

    def test_integral_float_count_is_accepted(self):
        """JSON's 1e3 is the count 1000."""
        config = ExperimentConfig({**BASE_CONFIG, "oracle_n": 200.0, "outcomes": {"n_atoms": 1e3}})
        assert (config.oracle_n, config.outcome_atoms) == (200, 1000)
        assert type(config.oracle_n) is int and type(config.outcome_atoms) is int

    @pytest.mark.parametrize("override", [{"oracle_n": "x"}], ids=["oracle-n"])
    def test_non_numeric_override_is_config_error(self, tmp_path, override):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert run(cfg, "solve", out_dir=out, **override) == 2
        assert json.loads((out / "error.json").read_text())["error"] == "ValidationError"

    @pytest.mark.parametrize("fields", [
        {"c": float("nan")},
        {"c": float("inf")},
        {"weight": float("nan")},
        {"f_l": {"family": "exponential_mixture", "weights": [float("nan"), 1.0], "means": [1.0, 2.0]}},
        {"f_l": {"family": "exponential_mixture", "weights": [0.5, 0.5], "means": [1.0, float("inf")]}},
        {"f_l": {"family": "piecewise_linear", "knots": [[0.0, 0.0], [float("nan"), 0.8], [2.0, 1.0]]},
         "f_h": {"family": "piecewise_linear", "knots": [[0.0, 0.0], [1.0, 0.3], [2.0, 1.0]]}},
    ], ids=["cost-nan", "cost-inf", "weight-nan", "mixture-weight-nan", "mixture-mean-inf",
            "knot-nan"])
    def test_non_finite_slice_input_is_config_error(self, tmp_path, fields):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["market"]["slices"][0].update(fields)
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(cfg, "solve", out_dir=out) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["exit_code"] == 2
        assert not (out / "welfare.csv").exists()

    @pytest.mark.parametrize("edit", [
        lambda s: 3.0,
        lambda s: {**s, "f_l": {"family": "exponential", "mean": "abc"}},
        lambda s: {k: v for k, v in s.items() if k != "alpha"},
        lambda s: {**s, "alpha": 0.0},
    ], ids=["slice-not-object", "non-numeric-mean", "missing-alpha", "unsupported-alpha"])
    def test_malformed_or_unsupported_slice_is_config_error(self, tmp_path, edit):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["market"]["slices"][0] = edit(payload["market"]["slices"][0])
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(cfg, "solve", out_dir=out) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["exit_code"] == 2
        assert err["error"] in ("ValidationError", "UnsupportedConfiguration")

    @pytest.mark.parametrize("edit, key", [
        (lambda p: p.update(sweep={"alpha_grid": ["x"]}), "sweep.alpha_grid[0]"),
        (lambda p: p.update(oracle_n=[200]), "oracle_n"),
        (lambda p: p.update(outcomes={"n_atoms": "many"}), "outcomes.n_atoms"),
        (lambda p: p.update(sweep=5), "'sweep'"),
        (lambda p: p.update(figures=None), "'figures'"),
        (lambda p: p.update(outcomes=3.5), "'outcomes'"),
    ], ids=["grid-entry", "oracle-n", "n-atoms",
            "sweep-not-object", "figures-null", "outcomes-not-object"])
    def test_non_numeric_config_value_is_config_error(self, tmp_path, edit, key):
        """solve, which exits 0 on the unedited config, rejects each edited
        value by name: every section is validated whichever command runs."""
        payload = json.loads(json.dumps(BASE_CONFIG))
        edit(payload)
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(cfg, "solve", out_dir=out) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["exit_code"] == 2
        assert err["error"] == "ValidationError"
        assert key in err["message"]

    @pytest.mark.parametrize("edit", [
        lambda doc: "{not json",
        lambda doc: doc[0].update(slice="0"),
        lambda doc: doc[0].update(slice=7),
        lambda doc: doc[0]["kappa"].pop("k2"),
        lambda doc: doc[0]["kappa"].update(k3="abc"),
        lambda doc: doc[0]["kappa"].update(k1=float("nan")),
        lambda doc: doc[0]["kappa"].update(k1=float("inf")),
    ], ids=["invalid-json", "non-integer-slice", "slice-out-of-range", "missing-cutoff",
            "non-numeric-cutoff", "nan-cutoff", "infinite-cutoff"])
    def test_malformed_kappa_json_is_config_error(self, tmp_path, edit):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert run(cfg, "solve", out_dir=out) == 0
        doc = json.loads((out / "kappa.json").read_text())
        text = edit(doc)
        (out / "kappa.json").write_text(text if isinstance(text, str) else json.dumps(doc))
        assert run(cfg, "verify", out_dir=out) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["exit_code"] == 2
        assert err["error"] == "ValidationError"
        assert "kappa.json" in err["message"]

    def test_non_string_out_dir_is_config_error(self, tmp_path, monkeypatch, capsys):
        # without --out the output directory comes from the config
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["out_dir"] = 5
        cfg = write_config(tmp_path, payload)
        monkeypatch.chdir(tmp_path)
        assert run(cfg, "solve") == 2
        assert "out_dir" in capsys.readouterr().err

    @pytest.mark.parametrize("frac", [1.5, -0.5])
    def test_sigma_fraction_outside_unit_interval_is_config_error(self, tmp_path, frac):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["outcomes"] = {"sigma_fractions": [0.5, frac]}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(cfg, "outcomes", out_dir=out) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert "outcomes.sigma_fractions[1]" in err["message"]
        assert not (out / "outcomes.csv").exists()

    def test_config_error_writes_error_json_to_config_out_dir(self, tmp_path, monkeypatch):
        # without --out, a config that fails validation still names where
        # error.json goes
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["out_dir"] = "res"
        payload["outcomes"] = {"sigma_fractions": [1.5]}
        cfg = write_config(tmp_path, payload)
        monkeypatch.chdir(tmp_path)
        assert run(cfg, "outcomes") == 2
        err = json.loads((tmp_path / "res" / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert "outcomes.sigma_fractions[0]" in err["message"]

    def test_lr_order_violation_is_config_error(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["market"]["slices"][0]["f_l"]["mean"] = 5.0
        cfg = write_config(tmp_path, payload)
        assert run(cfg, "solve", out_dir=tmp_path / "out") == 2


class TestVerify:
    def test_clean_verify_passes(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert run(cfg, "solve", out_dir=out) == 0
        assert run(cfg, "verify", out_dir=out, oracle_n=200) == 0
        rows = read_csv(out / "oracle.csv")
        assert float(rows[0]["rel_gap"]) <= 0.01
        assert float(rows[0]["min_dual_slack"]) >= -1e-6

    @pytest.mark.parametrize("eps", [1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 3e-7,
                                     1e-7, 3e-8, 1e-8, 3e-9, 1e-9, 1e-10, 1e-11])
    def test_near_identical_groups_certify(self, tmp_path, eps):
        """exp(1) vs exp(1 + eps): the total variation is about 0.37 eps and
        the chord k5 - k4 is of that order. Solved for k5 with k1, k3 read
        off k5 - k4, 3e-3 and 1e-4 ended in ConsistencyError and 1e-5 and
        3e-8 in NoConvergence. Prices sit within an ulp of values here: on
        the high group's discounted band the price lies below v by far less
        than one ulp. Sale flags tested numerically at such margins failed
        strong duality at 1e-8; the optimal rule's flags now come from its
        cutoffs. At 1e-12 the gap falls below the DegenerateSlice threshold,
        so it is not listed."""
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["market"]["slices"][0]["f_h"]["mean"] = 1.0 + eps
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(cfg, "solve", out_dir=out) == 0
        assert run(cfg, "verify", out_dir=out, oracle_n=200) == 0
        assert json.loads((out / "verify.json").read_text())["failures"] == []

    def test_builds_p_star_once_per_slice(self, tmp_path, monkeypatch):
        """The strong-duality and oracle target is the profit of the rule
        that verify already built for its non-discrimination check."""
        import fairprice.cli as cli
        import fairprice.oracle as oracle

        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["market"]["slices"][0]["weight"] = 0.5
        payload["market"]["slices"].append(dict(payload["market"]["slices"][0], alpha=0.3))
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(cfg, "solve", out_dir=out) == 0
        built = []
        real = cli.build_p_star

        def counted(slice_):
            built.append(slice_)
            return real(slice_)

        monkeypatch.setattr(cli, "build_p_star", counted)
        monkeypatch.setattr(oracle, "build_p_star", counted)
        assert run(cfg, "verify", out_dir=out, oracle_n=200) == 0
        assert [s.alpha for s in built] == [0.5, 0.3]

    def test_tampered_cutoffs_fail_with_witness(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert run(cfg, "solve", out_dir=out) == 0
        doc = json.loads((out / "kappa.json").read_text())
        doc[0]["kappa"]["k1"] += 0.01
        (out / "kappa.json").write_text(json.dumps(doc))
        assert run(cfg, "verify", out_dir=out, oracle_n=200) == 4
        err = json.loads((out / "error.json").read_text())
        checks = {f["check"] for f in err["details"]["failures"]}
        assert {"kappa_residuals", "strong_duality"} <= checks
        assert {"dual_feasibility", "complementary_slackness"} & checks
        witnessed = [f for f in err["details"]["failures"] if f.get("witness")]
        assert witnessed

    def test_non_finite_numbers_are_written_as_null(self, tmp_path):
        # JSON (RFC 8259) has no NaN or infinity: such a residual is written as null
        _write_json(tmp_path / "verify.json",
                    {"residuals": [0.5, math.nan, np.float64(-math.inf)], "slack": math.inf})
        doc = json.loads((tmp_path / "verify.json").read_text(), parse_constant=self._reject_constant)
        assert doc == {"residuals": [0.5, None, None], "slack": None}

    @staticmethod
    def _reject_constant(token):
        raise ValueError(f"non-JSON constant {token}")


class TestFigures:
    def test_figures_bundle(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["figures"] = {"m_grid": [2.0, 3.0], "alpha_grid": [0.25, 0.5, 0.75],
                              "cost_grid": [0.5, 1.0], "beta_grid": [0.0, 0.5, 1.0]}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(cfg, "figures", out_dir=out) == 0

        share = read_csv(out / "figures" / "profit_share.csv")
        by_m = {}
        for row in share:
            by_m.setdefault(row["m"], {})[row["rule"]] = float(row["share"])
        for m, shares in by_m.items():
            assert shares["p_star"] >= 0.95
            assert shares["uniform"] < 0.40
            assert shares["p_star"] >= max(shares.values()) - 1e-9

        tri = read_csv(out / "figures" / "triangle.csv")
        keys = ("ev", "v1_profit", "v2_profit", "v2_cs", "v3_profit", "v3_cs")
        first = [tri[0][k] for k in keys]
        for row in tri[1:]:
            assert [row[k] for k in keys] == first

        alpha_rows = read_csv(out / "figures" / "cs_by_alpha.csv")
        cs_h = [float(r["cs_h"]) for r in alpha_rows]
        assert cs_h == sorted(cs_h, reverse=True)

        gains_rows = read_csv(out / "figures" / "cs_by_gains.csv")
        # scaled family: surplus linear in the cost scale
        ratio = float(gains_rows[1]["cs_l"]) / float(gains_rows[0]["cs_l"])
        assert ratio == pytest.approx(2.0, rel=1e-6)

    def test_sweep_tables_match_sweep_command(self, tmp_path):
        exp13 = json.loads(json.dumps(BASE_CONFIG))
        exp13["sweep"] = {"alpha_grid": [0.25, 0.6]}
        exp13["figures"] = {"m_grid": [2.0], "alpha_grid": [0.25, 0.6], "cost_grid": [0.5, 2.0],
                            "beta_grid": [0.5]}
        scaled = json.loads(json.dumps(exp13))
        scaled["market"]["slices"][0].update(
            c=1.0, f_l={"family": "scaled", "scale": 1.0, "base": {"family": "exponential", "mean": 1.0}},
            f_h={"family": "scaled", "scale": 1.0, "base": {"family": "exponential", "mean": 12.0}})
        scaled["sweep"] = {"gains_grid": [0.5, 2.0]}
        for name, payload in (("exp13", exp13), ("scaled", scaled)):
            assert run(write_config(tmp_path, payload, f"{name}.json"), "sweep",
                       out_dir=tmp_path / name) == 0
        assert run(tmp_path / "exp13.json", "figures", out_dir=tmp_path / "fig") == 0

        def columns(rows, keys):
            return [[row[k] for k in keys] for row in rows]

        keys = ("alpha", "cs_l", "cs_h", "profit", "share")
        assert columns(read_csv(tmp_path / "fig" / "figures" / "cs_by_alpha.csv"), keys) == \
            columns(read_csv(tmp_path / "exp13" / "sweep.csv"), ("value",) + keys[1:])
        keys = ("c", "gains", "cs_l", "cs_h", "profit")
        assert columns(read_csv(tmp_path / "fig" / "figures" / "cs_by_gains.csv"), keys) == \
            columns(read_csv(tmp_path / "scaled" / "sweep.csv"), ("value",) + keys[1:])

    def test_zero_cost_scale_is_config_error(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["figures"] = {"cost_grid": [0.0]}
        out = tmp_path / "out"
        assert run(write_config(tmp_path, payload), "figures", out_dir=out) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["exit_code"] == 2


class TestOutcomesAndSweep:
    def test_outcomes_table(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["outcomes"] = {"sigma_fractions": [0.0, 0.5, 1.0], "n_atoms": 4000}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(cfg, "outcomes", out_dir=out) == 0
        rows = read_csv(out / "outcomes.csv")
        assert len(rows) == 3
        star = float(rows[0]["cs_l_star"])
        for row in rows:
            assert abs(float(row["sigma_l"]) - float(row["sigma_target"])) <= 0.01 * star
            assert float(row["profit"]) == pytest.approx(float(row["profit_star"]), rel=0.01)

    def test_outcomes_reject_full_extraction_regions(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["market"]["slices"][0]["c"] = 1.0
        payload["market"]["slices"][0]["f_l"] = {
            "family": "scaled", "scale": 1.0, "base": {"family": "exponential", "mean": 1.0}}
        payload["market"]["slices"][0]["f_h"] = {
            "family": "scaled", "scale": 1.0, "base": {"family": "exponential", "mean": 3.0}}
        cfg = write_config(tmp_path, payload)
        assert run(cfg, "outcomes", out_dir=tmp_path / "out") == 4

    def test_sweep_axes(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"] = {"alpha_grid": [0.3, 0.5, 0.7], "gamma_grid": [2.0, 4.0]}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(cfg, "sweep", out_dir=out) == 0
        rows = read_csv(out / "sweep.csv")
        assert [r["axis"] for r in rows] == ["alpha"] * 3 + ["gamma"] * 2

    def test_sweep_without_grids_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert run(cfg, "sweep", out_dir=tmp_path / "out") == 2

    def test_gains_sweep_needs_scaled_template(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"] = {"gains_grid": [0.5, 1.0]}
        cfg = write_config(tmp_path, payload)
        assert run(cfg, "sweep", out_dir=tmp_path / "out") == 2


class TestEntryPoint:
    def test_main_solve(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0

    def test_main_requires_command(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_only_verify_loads_scipy_optimize(self, tmp_path):
        """scipy.optimize (~0.5 s to import) loads on the first assignment,
        not with the package; the top-level scipy module stays loaded for
        callers that read its version. solve runs its slices serially, with
        no thread pool."""
        cfg = write_config(tmp_path, BASE_CONFIG)
        child = (
            "import sys\n"
            "from fairprice import cli\n"
            "cfg, out = sys.argv[1:]\n"
            "assert cli.run(cfg, 'solve', out_dir=out) == 0\n"
            "assert 'scipy' in sys.modules\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "assert 'concurrent.futures' not in sys.modules\n"  # scipy.optimize imports it
            "assert cli._pool_size() == 1\n"
            "assert cli.run(cfg, 'verify', out_dir=out) == 0\n"
            "assert 'scipy.optimize' in sys.modules\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", child, str(cfg), str(tmp_path / "out")],
                       env=env, check=True)
