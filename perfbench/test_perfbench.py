"""Self-test of the benchmark (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload for a fraction of a second, so each run makes one or a
few ops; about two minutes in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from layertrace import PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
from workloads import WHY  # noqa: E402  (imports fairprice)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def test_spec_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [(w, WHY[w]) for w in WORKLOADS]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0")
    res = result(proc)
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in res["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0
        assert f"  {name} " in proc.stdout  # the human-readable line
    assert "fail_ratio" in proc.stdout
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1


def test_traced_run_emits_every_per_layer_metric():
    res = result(bench("--workload", "solve-cold", "--seed", "3", "--seconds", "1", "--trace", "1"))
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert res["metrics"]["cutoffs.solve_kappa.calls"]["value"] > 0
    assert res["metrics"]["bench.small_scale_failures"]["value"] > 0


def test_forced_check_failure_counts_in_fail_ratio():
    proc = bench("--workload", "solve-cold", "--seed", "3", "--seconds", "4", "--trace", "0",
                 "--fail-every", "2")
    res = result(proc)
    assert res["attempted"] >= 2
    assert res["failed"] == res["attempted"] // 2
    assert not res["correct"]
    assert f"fail_ratio   {res['failed'] / res['attempted']:.6g}" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "solve-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_verify_cli_op_cost_strata_do_not_depend_on_the_seed():
    from workloads import _verify_cli_inputs

    def cells(seed):
        return [[int(6 * (s["alpha"] - 0.15) / 0.7) for s in cfg["market"]["slices"]]
                for cfg in _verify_cli_inputs(seed)[:12]]

    assert _verify_cli_inputs(1) == _verify_cli_inputs(1)
    assert _verify_cli_inputs(1) != _verify_cli_inputs(2)
    assert cells(1) == cells(2) == cells(3)
