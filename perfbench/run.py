"""fairprice benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of solve-cold, sweep-shared, verify-cli, noisy-tilde, or ``all``
(each in turn). Run from the root of a checkout; fairprice is imported from
its src/. Every workload runs in its own worker process (worker.py) so that
set-up time and peak memory belong to it.

--trace 0 prints the end-to-end metrics: op_p50_ms, op_tail_ms, ops_per_s,
setup_s and peak_rss_mb, plus fail_ratio on the human-readable lines (the
JSON line carries it as failed / attempted). Set-up is measured SETUP_SAMPLES
times, as separate worker starts, and the median is reported. Times are
normalized to a reference host speed (hostspeed.py), except verify-cli's op
times, which stay raw.

--trace 1 runs the workload untraced for half of S and traced for the other
half, on the same seed, and prints the per-layer metrics of layertrace.py,
including both throughputs and their ratio (the tracing overhead).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Details (sample counts, the tail percentile,
failures, the environment record) go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402  (after the path set-up above)
from layertrace import PER_LAYER  # noqa: E402

WORKLOADS = ("solve-cold", "sweep-shared", "verify-cli", "noisy-tilde")
SETUP_SAMPLES = 3
WORKER_GRACE_S = 150.0  # allowance beyond --seconds for set-up and the last op
TAIL_BEYOND = 10        # samples above the tail percentile in runs of 40 ops or more

END_TO_END_UNITS = {"op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def run_worker(workload, seed, seconds, *, trace=False, setup_only=False, fail_every=0):
    """Start a worker; return (set-up time, raw set-up time, result).

    Set-up runs from the worker's start to its ready line; it is normalized
    by a start-up probe taken just before (hostspeed.startup_probe)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    if fail_every:
        cmd += ["--fail-every", str(fail_every)]
    reference = hostspeed.startup_probe()
    t0 = time.perf_counter()
    cmd += ["--spawn-t", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} worker did not finish in {seconds + WORKER_GRACE_S:.0f} s")
    finally:
        if proc.poll() is None:  # timeout, interrupt or SIGTERM: stop the worker first
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise WorkerError(f"{workload} worker exited with code {proc.returncode}")
    res = None if setup_only else json.loads(rest.strip().splitlines()[-1])
    return setup_s * hostspeed.REF_STARTUP_S / reference, setup_s, res


def tail(samples):
    """(value, percentile): the highest percentile with ``beyond`` samples
    above it, where beyond is TAIL_BEYOND once there are 4*TAIL_BEYOND samples
    and a quarter of them (at least one) below that, so that short runs of
    slow ops (verify-cli, noisy-tilde) still report a tail above the median."""
    xs = sorted(samples)
    n = len(xs)
    beyond = min(TAIL_BEYOND, max(1, n // 4)) if n > 1 else 0
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n


def end_to_end(workload, seed, seconds, fail_every=0):
    # set-up samples before and after the timed run, so that one slow phase
    # of the host does not cover all of them
    setups = [run_worker(workload, seed, seconds, setup_only=True)[:2]
              for _ in range(SETUP_SAMPLES // 2)]
    *main_setup, res = run_worker(workload, seed, seconds, fail_every=fail_every)
    setups.append(tuple(main_setup))
    setups += [run_worker(workload, seed, seconds, setup_only=True)[:2]
               for _ in range(SETUP_SAMPLES - len(setups))]
    op_ms = [1e3 * t for t in res["op_norm_s"]]
    tail_ms, tail_pct = tail(op_ms)
    metrics = {
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": tail_ms,
        "ops_per_s": len(op_ms) / sum(res["op_norm_s"]),
        "setup_s": statistics.median(norm for norm, _ in setups),
        "peak_rss_mb": (res["maxrss_kb_self"] + res["maxrss_kb_children"]) / 1024.0,
    }
    detail = {"samples": len(op_ms), "tail_percentile": tail_pct,
              "fail_ratio": res["failed"] / len(op_ms),
              "setup_samples_s": [norm for norm, _ in setups],
              "raw_setup_samples_s": [raw for _, raw in setups]}
    raw_ms = sorted(1e3 * t for t in res["op_s"])
    speed = "raw" if workload == "verify-cli" else "at reference host speed"
    lines = [f"{workload}: {len(op_ms)} ops in {sum(res['op_s']):.2f} s, seed {seed}; times "
             f"{speed} (raw op p50 {statistics.median(raw_ms):.6g} ms, "
             f"probe {1e3 * statistics.median(res['probe_s']):.4g} ms vs "
             f"{1e3 * hostspeed.REF_S:.4g} ms reference)"]
    lines += [f"  {name:<12} {metrics[name]:.6g} {unit}" for name, unit in END_TO_END_UNITS.items()]
    lines.insert(3, f"  {'':<12} (tail = p{tail_pct:.4g} of {len(op_ms)} op times)")
    lines.append(f"  {'fail_ratio':<12} {detail['fail_ratio']:.6g} "
                 f"({res['failed']} of {len(op_ms)})")
    return res, metrics, detail, lines, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def per_layer(workload, seed, seconds):
    plain = run_worker(workload, seed, seconds / 2.0)[2]
    res = run_worker(workload, seed, seconds / 2.0, trace=True)[2]
    layers = dict(res["layers"])
    layers["bench.ops_per_s_untraced"] = len(plain["op_s"]) / sum(plain["op_norm_s"])
    layers["bench.ops_per_s_traced"] = len(res["op_s"]) / sum(res["op_norm_s"])
    layers["bench.trace_overhead"] = layers["bench.ops_per_s_untraced"] / layers["bench.ops_per_s_traced"]
    res["failed"] += plain["failed"]
    for key in ("op_s", "op_norm_s", "failures"):
        res[key] = plain[key] + res[key]
    for kind, count in plain["error_types"].items():
        res["error_types"][kind] = res["error_types"].get(kind, 0) + count
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: (layers[name], units[name]) for name in units}
    lines = [f"{workload} (traced): {len(res['op_s'])} ops, seed {seed}, spans in {res['spans_file']}"]
    lines += [f"  {name:<48} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    for layer, kinds in sorted(res["layer_errors"].items()):
        lines.append(f"  errors in {layer}: {kinds}")
    if res["small_scale_probe"]:
        lines.append(f"  small-scale probe: {res['small_scale_probe']}")
    return res, layers, {"layer_errors": res["layer_errors"]}, lines, metrics


def run_one(workload, seed, seconds, trace, fail_every=0):
    if trace:
        res, values, detail, lines, metrics = per_layer(workload, seed, seconds)
    else:
        res, values, detail, lines, metrics = end_to_end(workload, seed, seconds, fail_every)
    lines.append(f"  env {json.dumps(res['env'], sort_keys=True)}")
    for msg in res["failures"]:
        lines.append(f"  failed {msg}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "metrics": values, **detail, "attempted": len(res["op_s"]), "failed": res["failed"],
              "error_types": res["error_types"], "failures": res["failures"], "env": res["env"],
              "op_ms": [1e3 * t for t in res["op_norm_s"]],
              "raw_op_ms": [1e3 * t for t in res["op_s"]], "probe_ms": [1e3 * t for t in res["probe_s"]]}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print("\n".join(lines), flush=True)
    return {
        "correct": res["failed"] == 0,
        "attempted": len(res["op_s"]),
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_worker, which stops the worker


def main(argv=None):
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fail-every", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fairprice" / "__init__.py").is_file():
        print(f"no fairprice sources under {ROOT / 'src'}; run from a fairprice checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_one(name, args.seed, args.seconds, bool(args.trace), args.fail_every)
                   for name in names}
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
