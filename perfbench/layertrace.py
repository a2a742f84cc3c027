"""Outside-in tracing of the fairprice layers.

The package is left untouched: every public function of each layer module is
replaced, at every module binding of its name (so ``fairprice.cutoffs.bisect``
and ``fairprice.welfare.solve_kappa`` are caught as well as the defining
module's own name), by a wrapper that records a span. Spans are kept in
memory as plain lists ``[id, parent, op, name, t0, t1, extra]`` and written
out when the run ends; ``layer_metrics`` turns them into per-layer numbers.

Self time is a span's duration minus the time its child spans cover. Spans
opened on a pool thread (the CLI's ``_parallel_map``) take the innermost open
span of the main thread as their parent; a parent whose children overlap in
time gets its self time clamped at zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("dist", "numerics", "cutoffs", "pricing", "welfare", "duality", "matching", "oracle", "cli")

# Span names for callables that are not module-level public functions.
EXTRA_TARGETS = (
    ("dist", "MarketSlice", "__post_init__", "dist.slice_build"),
    ("dist", "ExponentialMixture", "quantile", "dist.mixture_quantile"),
    ("cli", None, "_parallel_map", "cli.parallel_map"),
)

# numerics primitives take the target callable first; the wrapper counts its
# evaluations. The value is the number of f evaluations that means the loop
# ran to max_iter (bisect and golden_max evaluate both ends first).
ROOT_FINDERS = {"numerics.bisect": 2, "numerics.invert_monotone": 0, "numerics.golden_max": 2}
QUADRATURE = {"numerics.adaptive_simpson"}

BENCHMARK_RULES = ("pricing.build_p_ass", "pricing.build_p_anti", "pricing.q_star")

# Left unwrapped: the two-cdf gap is called ~11,000 times per solve-cold op
# from inside invert_monotone's loop, and wrapping it would charge the
# tracer's own cost to its caller. Its time counts in the caller's self time.
UNWRAPPED = {"dist.delta"}

# Per-layer metrics reported by a traced run: (name, unit, better). Times and
# counts are per op, so runs of different lengths compare.
PER_LAYER = (
    ("dist.self_ms", "ms/op", "lower"),
    ("dist.slice_build.self_ms", "ms/op", "lower"),
    ("dist.gap_profile.self_ms", "ms/op", "lower"),
    ("dist.gap_profile.calls", "1/op", "lower"),
    ("dist.gap_profile.cache_hit_ratio", "ratio", "higher"),
    ("dist.delta_inverse.calls", "1/op", "lower"),
    ("dist.delta_inverse.self_ms", "ms/op", "lower"),
    ("dist.reflect_g_h.calls", "1/op", "lower"),
    ("dist.mixture_quantile.calls", "1/op", "lower"),
    ("dist.mixture_quantile.self_ms", "ms/op", "lower"),
    ("dist.errors", "count", "lower"),
    ("numerics.self_ms", "ms/op", "lower"),
    ("numerics.bisect.calls", "1/op", "lower"),
    ("numerics.bisect.f_evals", "1/op", "lower"),
    ("numerics.invert_monotone.calls", "1/op", "lower"),
    ("numerics.invert_monotone.f_evals", "1/op", "lower"),
    ("numerics.invert_monotone.self_ms", "ms/op", "lower"),
    ("numerics.golden_max.calls", "1/op", "lower"),
    ("numerics.cap_hit_ratio", "ratio", "lower"),
    ("numerics.adaptive_simpson.calls", "1/op", "lower"),
    ("numerics.adaptive_simpson.f_evals", "1/op", "lower"),
    ("numerics.adaptive_simpson.points", "1/op", "lower"),
    ("numerics.adaptive_simpson.self_ms", "ms/op", "lower"),
    ("numerics.errors", "count", "lower"),
    ("cutoffs.self_ms", "ms/op", "lower"),
    ("cutoffs.solve_kappa.self_ms", "ms/op", "lower"),
    ("cutoffs.solve_kappa.calls", "1/op", "lower"),
    ("cutoffs.solve_kappa.cache_hit_ratio", "ratio", "higher"),
    ("cutoffs.kappa_bracket.self_ms", "ms/op", "lower"),
    ("cutoffs.fixed_point_residual.calls", "1/op", "lower"),
    ("cutoffs.solve_eta.self_ms", "ms/op", "lower"),
    ("cutoffs.solve_kappa_tilde.self_ms", "ms/op", "lower"),
    ("cutoffs.errors", "count", "lower"),
    ("pricing.self_ms", "ms/op", "lower"),
    ("pricing.build_p_star.self_ms", "ms/op", "lower"),
    ("pricing.build_p_star.cache_hit_ratio", "ratio", "higher"),
    ("pricing.check_nondiscrimination.self_ms", "ms/op", "lower"),
    ("pricing.sale_pieces.calls", "1/op", "lower"),
    ("pricing.sale_pieces.self_ms", "ms/op", "lower"),
    ("pricing.benchmark_rules.self_ms", "ms/op", "lower"),
    ("pricing.build_p_tilde_star.self_ms", "ms/op", "lower"),
    ("pricing.errors", "count", "lower"),
    ("welfare.self_ms", "ms/op", "lower"),
    ("welfare.welfare_report.self_ms", "ms/op", "lower"),
    ("welfare.welfare_report.cache_hit_ratio", "ratio", "higher"),
    ("welfare.surplus_closed_forms.self_ms", "ms/op", "lower"),
    ("welfare.uniform_price_revenue.self_ms", "ms/op", "lower"),
    ("welfare.errors", "count", "lower"),
    ("duality.self_ms", "ms/op", "lower"),
    ("duality.build_duals.self_ms", "ms/op", "lower"),
    ("duality.check_feasibility.self_ms", "ms/op", "lower"),
    ("duality.check_feasibility.bytes_computed", "B/op", "lower"),
    ("duality.check_complementary_slackness.self_ms", "ms/op", "lower"),
    ("duality.errors", "count", "lower"),
    ("matching.self_ms", "ms/op", "lower"),
    ("matching.build_rho_star.self_ms", "ms/op", "lower"),
    ("matching.build_rho_star.atoms", "1/op", "lower"),
    ("matching.errors", "count", "lower"),
    ("oracle.self_ms", "ms/op", "lower"),
    ("oracle.discretize.self_ms", "ms/op", "lower"),
    ("oracle.solve_assignment.self_ms", "ms/op", "lower"),
    ("oracle.solve_assignment.bytes_computed", "B/op", "lower"),
    ("oracle.analytic_profit.self_ms", "ms/op", "lower"),
    ("oracle.tilde_transport_value.self_ms", "ms/op", "lower"),
    ("oracle.errors", "count", "lower"),
    ("cli.import.self_ms", "ms", "lower"),
    ("cli.run.self_ms", "ms/op", "lower"),
    ("cli.pool_size", "threads", "lower"),
    ("cli.bytes_written", "B/op", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    ("cli.errors", "count", "lower"),
    ("bench.cache_hit_ratio", "ratio", "higher"),
    ("bench.repeat_op_share", "ratio", "higher"),
    ("bench.ops_per_s_untraced", "1/s", "higher"),
    ("bench.ops_per_s_traced", "1/s", "higher"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.spans", "1/op", "lower"),
    ("bench.small_scale_failures", "count", "lower"),
)


class Tracer:
    """Span recorder; ``install`` swaps the wrappers into the fairprice modules."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.enabled = True
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        tracer = self
        cached = hasattr(fn, "cache_info")
        counted = name in ROOT_FINDERS or name in QUADRATURE

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            rec = [next(tracer._ids), parent, tracer.op, name, 0.0, 0.0, None]
            extra = {}
            if counted:
                evals = [0, 0]
                f = args[0]

                def counting(x, *a, **k):
                    evals[0] += 1
                    evals[1] += int(np.size(x))
                    return f(x, *a, **k)

                args = (counting,) + args[1:]
            before = fn.cache_info() if cached else None
            stack.append(rec[0])
            rec[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                extra["error"] = type(exc).__name__
                raise
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
                if cached:
                    extra["hit"] = _cache_outcome(before, fn.cache_info())
                if counted:
                    extra["f_evals"], extra["points"] = evals
                    if name in ROOT_FINDERS:
                        max_iter = kwargs.get("max_iter", _numerics_max_iter())
                        extra["cap_hit"] = evals[0] >= max_iter + ROOT_FINDERS[name]
                rec[6] = extra
                tracer.spans.append(rec)
            _record_sizes(name, extra, args, kwargs, out)
            return out

        functools.update_wrapper(traced, fn)
        if cached:
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self):
        """Wrap every public function of the layer modules at every binding
        of it inside the package, plus the EXTRA_TARGETS."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fairprice.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or f"{layer}.{attr}" in UNWRAPPED):
                    continue
                replaced[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for layer, cls_name, attr, span_name in EXTRA_TARGETS:
            mod = sys.modules[f"fairprice.{layer}"]
            owner = getattr(mod, cls_name) if cls_name else mod
            obj = vars(owner)[attr]
            wrapped = self.wrap(span_name, obj)
            if cls_name:
                setattr(owner, attr, wrapped)
            else:
                replaced[id(obj)] = (obj, wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fairprice" and not mod_name.startswith("fairprice."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")

    def extend(self, spans):
        """Append spans recorded by another process (a CLI child), re-numbered
        into this tracer's id space and attributed to the current op."""
        ids = {rec[0]: next(self._ids) for rec in spans}
        for sid, parent, _op, name, t0, t1, extra in spans:
            self.spans.append([ids[sid], ids.get(parent), self.op, name, t0, t1, extra])


def _cache_outcome(before, after):
    """True for a hit, False for a miss, None when another thread used the
    same cache during the call and the counters cannot tell."""
    hits, misses = after.hits - before.hits, after.misses - before.misses
    if hits + misses != 1:
        return None
    return hits == 1


def _record_sizes(name, extra, args, kwargs, out):
    """Work sizes computed from arguments and results, not measured."""
    if name == "oracle.solve_assignment":
        extra["bytes"] = 8 * args[0].n ** 2  # the n-by-n float64 profit matrix
    elif name == "duality.check_feasibility":
        n = kwargs.get("n", args[2] if len(args) > 2 else 0)
        extra["bytes"] = 8 * n * n  # the slack matrix, breakpoint rows not counted
    elif name == "matching.build_rho_star":
        extra["atoms"] = len(out)


def _numerics_max_iter():
    return sys.modules["fairprice.numerics"].MAX_ITER


def layer_metrics(spans, n_ops):
    """Per-layer metrics (see PER_LAYER) plus error counts by exception type."""
    child_time = defaultdict(float)
    for sid, parent, _op, _name, t0, t1, _extra in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    calls = defaultdict(int)
    self_s = defaultdict(float)
    sums = defaultdict(float)
    errors = defaultdict(lambda: defaultdict(int))
    first_cached = {}  # (op, name) -> (t0, hit) of the op's first call to a cached function
    for sid, parent, op, name, t0, t1, extra in spans:
        layer = name.split(".", 1)[0]
        own = max(0.0, (t1 - t0) - child_time.get(sid, 0.0))
        calls[name] += 1
        self_s[name] += own
        self_s[layer] += own
        for key, value in (extra or {}).items():
            if key == "error":
                errors[layer][value] += 1
            elif key == "hit":
                if first_cached.get((op, name), (t0,))[0] >= t0:
                    first_cached[(op, name)] = (t0, value)
                if value is None:
                    continue
                sums[name + ".hits"] += value
                sums[name + ".cached_calls"] += 1
                sums["hits"] += value
                sums["cached_calls"] += 1
            else:
                sums[f"{name}.{key}"] += value
    per_op = 1.0 / max(n_ops, 1)

    def ms(key):
        return 1e3 * self_s.get(key, 0.0) * per_op

    def ratio(num, den):
        return num / den if den else 0.0

    root_calls = sum(calls[n] for n in ROOT_FINDERS)
    cap_hits = sum(sums[n + ".cap_hit"] for n in ROOT_FINDERS)
    out = {}
    for metric, _unit, _better in PER_LAYER:
        parts = metric.split(".")
        layer, field = parts[0], parts[-1]
        name = ".".join(parts[:-1])
        if layer == "bench" or (layer == "cli" and field != "errors"):
            continue
        if metric == "numerics.cap_hit_ratio":
            out[metric] = ratio(cap_hits, root_calls)
        elif metric == "pricing.benchmark_rules.self_ms":
            out[metric] = sum(ms(n) for n in BENCHMARK_RULES)
        elif field == "errors":
            out[metric] = sum(errors[layer].values())
        elif field == "self_ms":
            out[metric] = ms(name)
        elif field == "calls":
            out[metric] = calls[name] * per_op
        elif field == "cache_hit_ratio":
            out[metric] = ratio(sums[name + ".hits"], sums[name + ".cached_calls"])
        elif field == "bytes_computed":
            out[metric] = sums[name + ".bytes"] * per_op
        else:
            out[metric] = sums[f"{name}.{field}"] * per_op
    out["cli.run.self_ms"] = ms("cli")
    out["bench.cache_hit_ratio"] = ratio(sums["hits"], sums["cached_calls"])
    # an op repeats work when a cached function's first call in it already
    # hits, i.e. the result was computed by an earlier op
    repeat_ops = {op for (op, _name), (_t0, hit) in first_cached.items() if hit is True}
    out["bench.repeat_op_share"] = ratio(len(repeat_ops), len({op for op, _ in first_cached}))
    out["bench.spans"] = len(spans) * per_op
    errors_by_type = {layer: dict(kinds) for layer, kinds in errors.items()}
    return out, errors_by_type
