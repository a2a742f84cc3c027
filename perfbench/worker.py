"""One workload process of the benchmark (started by run.py).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --spawn-t T [--trace] [--setup-only] [--fail-every K]

Imports fairprice from the checkout's src, generates the workload's inputs
from the seed, prints ``ready`` (the parent times set-up up to this line),
then runs ops one at a time until S seconds have passed (at least one op),
sampling the host speed between and during ops (hostspeed.SpeedLog), and
prints one JSON line with the raw and normalized op times, failures,
resource use and the environment. With --trace the layer wrappers are
installed first and the per-layer metrics and span file are added.
--fail-every K forces the output check of every K-th op to fail; the
self-test uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"


def _git_commit():
    """HEAD of the checkout's git metadata, read directly so nothing outside
    the checkout is searched; None in a checkout without .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy
    import fairprice.cli

    saved = os.environ.pop("FAIRPRICE_THREADS", None)
    try:
        pool = fairprice.cli._pool_size()  # what the CLI children resolve
    finally:
        if saved is not None:
            os.environ["FAIRPRICE_THREADS"] = saved
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": sys.modules["scipy"].__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cli_pool_size": pool,
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # subprocess.run then kills a running CLI child


def main(argv=None):
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawn-t", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--fail-every", type=int, default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import fairprice

    if Path(fairprice.__file__).resolve().parent != (ROOT / "src" / "fairprice").resolve():
        print(f"fairprice imported from {fairprice.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import_s = time.monotonic() - args.spawn_t
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    inputs = workloads.INPUTS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = None
    tmp = TMP / f"{args.workload}-{os.getpid()}"
    if args.workload == "verify-cli":
        runner = workloads.CliRunner(ROOT, tmp, tracer)
        tmp.mkdir(parents=True, exist_ok=True)
    op_fn = workloads.OPS.get(args.workload)
    op_s, op_norm_s, failures, error_types = [], [], [], Counter()
    deadline = time.perf_counter() + args.seconds
    try:
        # verify-cli's work runs in CLI children: its op times stay raw
        with hostspeed.SpeedLog(interval=None if runner is not None else 0.5) as speed:
            for i, inp in enumerate(inputs):
                if i and time.perf_counter() >= deadline:
                    break
                if tracer is not None:
                    tracer.op = i
                chk = workloads.Checker(force=args.fail_every > 0 and (i + 1) % args.fail_every == 0)
                t0 = speed.begin()
                try:
                    if runner is not None:
                        workloads.verify_cli_op(inp, chk, runner, i)
                    else:
                        op_fn(inp, chk)
                except Exception as exc:  # a raised error is a failed op, not a benchmark crash
                    error_types[type(exc).__name__] += 1
                    if len(failures) < 5:
                        failures.append(f"op {i}: {type(exc).__name__}: {exc}")
                raw, norm = speed.end(t0)
                op_s.append(raw)
                op_norm_s.append(norm)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "op_s": op_s,
        "op_norm_s": op_norm_s,
        "probe_s": speed.probes,
        "failed": sum(error_types.values()),
        "error_types": dict(error_types),
        "failures": failures,
        "import_s": import_s,
        "maxrss_kb_self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_kb_children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "env": environment(args.seed),
    }
    if tracer is not None:
        from layertrace import layer_metrics

        tracer.enabled = False
        layers, errors = layer_metrics(tracer.spans, len(op_s))
        if runner is not None:
            layers["cli.import.self_ms"] = statistics.median(runner.import_ms)
            layers["cli.bytes_written"] = runner.bytes_written / len(op_s)
            layers["cli.exit_nonzero"] = runner.exit_nonzero
        else:
            layers["cli.import.self_ms"] = 1e3 * import_s
            layers["cli.bytes_written"] = 0
            layers["cli.exit_nonzero"] = 0
        layers["cli.pool_size"] = result["env"]["cli_pool_size"] if runner is not None else 0
        probe = workloads.small_scale_probe() if args.workload == "solve-cold" else {}
        layers["bench.small_scale_failures"] = sum(v is not None for v in probe.values())
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.dump(spans_path)
        result.update(layers=layers, layer_errors=errors, small_scale_probe=probe,
                      spans_file=str(spans_path.relative_to(ROOT)), n_spans=len(tracer.spans))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
