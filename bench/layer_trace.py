"""Outside-in tracing of heatlab's layers.

``Tracer.install`` wraps the public functions of each layer where heatlab
looks them up: every ``heatlab.*`` module attribute bound to the original
function is rebound to the wrapper, so calls between modules are seen too.
Nothing under src/ changes. Each wrapped call records a span (name, start,
end, parent span, operation index) in memory and adds its counts; the spans
leave the process only in the round's result file. ``summarize`` turns the
spans and counts of one round into the per-layer metrics; a span's self time
is its duration minus the durations of its direct children (calls are
single-threaded, so children nest strictly inside their parent).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# per-layer metric -> unit; the order is the order of the report
METRICS = {
    "kernels.uniformized_exponential.self_s": "s",
    "kernels.uniformized_exponential.calls": "count",
    "kernels.poisson_terms": "count",
    "kernels.matmul_gflop_computed": "GFLOP",
    "kernels.heat_semigroup.calls": "count",
    "kernels.heat_cache_hit_ratio": "ratio",
    "kernels.killed_kernel.self_s": "s",
    "kernels.verify_axioms.self_s": "s",
    "linalg.symmetric_eigvals.self_s": "s",
    "linalg.calls": "count",
    "linalg.matrix_order_sum": "count",
    "traces.semiclassical_scan.self_s": "s",
    "traces.trace_semigroup.self_s": "s",
    "traces.grid_points": "count",
    "paths.bridge_kernel.self_s": "s",
    "paths.bridge_kernel.builds": "count",
    "paths.bridge_cache_hit_ratio": "ratio",
    "paths.bridge_tables_mb_computed": "MB",
    "paths.feynman_kac_trace_mc.self_s": "s",
    "paths.pnfb_probability.self_s": "s",
    "paths.samples": "count",
    "paths.samples_per_s": "1/s",
    "torus.galerkin_schrodinger_trace.self_s": "s",
    "torus.galerkin_calls": "count",
    "torus.galerkin_order_sum": "count",
    "torus.check_truncation.self_s": "s",
    "torus.potential_integral.self_s": "s",
    "potential_class.ricci_admissibility.self_s": "s",
    "potential_class.series_terms": "count",
    "potential_class.terms_per_s": "1/s",
    "potential_class.kato_modulus.self_s": "s",
    "experiments.run.self_s": "s",
    "experiments.artifact_bytes": "bytes",
    "graphs.load_graph.self_s": "s",
    "util.write_csv.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


# ------------------------------------------------------------ count hooks


def _uniformized(counts, args, result):
    products = result[1].n_terms - 1
    n = args["h"].shape[0]
    counts["kernels.poisson_terms"] += products
    counts["kernels.matmul_gflop_computed"] += 2.0 * n ** 3 * products / 1e9


def _eigh(counts, args, result):
    counts["linalg.calls"] += 1
    counts["linalg.matrix_order_sum"] += len(result[0])


def _scan(counts, args, result):
    counts["traces.grid_points"] += len(result.t_grid)


def _bridge_build(counts, args, result):
    bk = args["self"]
    counts["paths.bridge_kernel.builds"] += 1
    counts["paths.bridge_tables_mb_computed"] += (
        bk.powers.nbytes + bk.r.nbytes + bk.pmf.nbytes) / 1e6


def _fk_samples(counts, args, result):
    counts["paths.samples"] += int(args["n_samples"]) * args["graph"].n


def _pnfb_samples(counts, args, result):
    counts["paths.samples"] += int(args["n_samples"])


def _galerkin(counts, args, result):
    model = args["model"]
    counts["torus.galerkin_calls"] += 1
    counts["torus.galerkin_order_sum"] += (2 * model.truncation + 1) ** model.dim


def _series(counts, args, result):
    counts["potential_class.series_terms"] += result.k_max - 1


def _artifacts(counts, args, result):
    counts["experiments.artifact_bytes"] += sum(
        os.path.getsize(p) for p in result.artifacts)


# (module, attribute, span name or None for counts only, count hook)
_WRAPPED = (
    ("kernels", "uniformized_exponential", "kernels.uniformized_exponential",
     _uniformized),
    ("kernels", "heat_semigroup", "kernels.heat_semigroup", None),
    ("kernels", "killed_kernel", "kernels.killed_kernel", None),
    ("kernels", "verify_axioms", "kernels.verify_axioms", None),
    ("linalg", "symmetric_eigvals", "linalg.symmetric_eigvals", None),
    ("linalg", "symmetric_eigh", "linalg.symmetric_eigh", _eigh),
    ("traces", "semiclassical_scan", "traces.semiclassical_scan", _scan),
    ("traces", "trace_semigroup", "traces.trace_semigroup", None),
    ("paths", "bridge_kernel", "paths.bridge_kernel", None),
    ("paths", "BridgeKernel.__init__", None, _bridge_build),
    ("paths", "feynman_kac_trace_mc", "paths.feynman_kac_trace_mc",
     _fk_samples),
    ("paths", "pnfb_probability", "paths.pnfb_probability", _pnfb_samples),
    ("torus", "galerkin_schrodinger_trace",
     "torus.galerkin_schrodinger_trace", _galerkin),
    ("torus", "check_truncation", "torus.check_truncation", None),
    ("torus", "potential_integral", "torus.potential_integral", None),
    ("potential_class", "ricci_admissibility",
     "potential_class.ricci_admissibility", _series),
    ("potential_class", "kato_modulus", "potential_class.kato_modulus", None),
    ("experiments", "run", "experiments.run", _artifacts),
    ("graphs", "load_graph", "graphs.load_graph", None),
    ("util", "write_csv", "util.write_csv", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.counts = defaultdict(float)
        self._stack = []
        self._op = -1
        self._active = False

    def begin_op(self, index: int) -> None:
        self._op = index
        self._active = True

    def end_op(self) -> None:
        self._active = False

    def _wrap(self, fn, name, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            idx = -1
            if name is not None:
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append([name, time.perf_counter(), 0.0, parent,
                                   self._op])
                self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx >= 0:
                    self._stack.pop()
                    self.spans[idx][2] = time.perf_counter()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        import heatlab  # noqa: F401  (loads every heatlab module)

        for module, attr, name, count in _WRAPPED:
            mod = sys.modules[f"heatlab.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, method,
                        self._wrap(getattr(cls, method), name, count))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name, count)
            for key, other in list(sys.modules.items()):
                if key == "heatlab" or key.startswith("heatlab."):
                    for ref, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, ref, wrapper)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans) -> dict:
    """Sum of self time per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out


def summarize(trace: dict) -> dict:
    """Per-layer metrics (all but trace.overhead_s) of one traced round."""
    spans, counts = trace["spans"], defaultdict(float, trace["counts"])
    own = self_times(spans)
    calls = defaultdict(int)
    for name, *_ in spans:
        calls[name] += 1
    # a heat_semigroup call that ran no uniformized_exponential was served
    # from the table cache
    misses = {parent for name, _, _, parent, _ in spans
              if name == "kernels.uniformized_exponential" and parent >= 0
              and spans[parent][0] == "kernels.heat_semigroup"}
    heat_calls = calls["kernels.heat_semigroup"]
    bridge_calls = calls["paths.bridge_kernel"]
    sampling_s = (own["paths.feynman_kac_trace_mc"]
                  + own["paths.pnfb_probability"])
    series_s = own["potential_class.ricci_admissibility"]
    out = {
        "kernels.uniformized_exponential.calls":
            calls["kernels.uniformized_exponential"],
        "kernels.heat_semigroup.calls": heat_calls,
        "kernels.heat_cache_hit_ratio":
            (heat_calls - len(misses)) / heat_calls if heat_calls else 0.0,
        "linalg.symmetric_eigvals.self_s":
            own["linalg.symmetric_eigvals"] + own["linalg.symmetric_eigh"],
        "paths.bridge_cache_hit_ratio":
            1.0 - counts["paths.bridge_kernel.builds"] / bridge_calls
            if bridge_calls else 0.0,
        "paths.samples_per_s":
            counts["paths.samples"] / sampling_s if sampling_s else 0.0,
        "potential_class.terms_per_s":
            counts["potential_class.series_terms"] / series_s
            if series_s else 0.0,
    }
    for metric in METRICS:
        if metric in out or metric == "trace.overhead_s":
            continue
        if metric.endswith(".self_s"):
            out[metric] = own[metric[:-len(".self_s")]]
        else:
            out[metric] = counts[metric]
    return out
