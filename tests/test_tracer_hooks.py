"""The benchmark tracer's hooks still find what they wrap and read.

bench/layer_trace.py rebinds heatlab functions by name and its count hooks
read arguments and attributes of heatlab objects. These checks load that
module without installing it, so no heatlab function is rebound, and fail
when a clean-up removes something a traced run (bench/run.py --trace 1)
relies on.
"""

import importlib
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

import heatlab as hl
from heatlab import experiments, torus
from heatlab.kernels import uniformized_exponential
from heatlab.paths import BridgeKernel, feynman_kac_trace_mc, pnfb_probability
from heatlab.potential_class import GrowthProfile, power_rule, \
    ricci_admissibility
from heatlab.torus import TorusModel, cosine_well, galerkin_schrodinger_trace
from heatlab.traces import semiclassical_scan

LAYER_TRACE = Path(__file__).resolve().parents[1] / "bench" / "layer_trace.py"


def _layer_trace():
    spec = importlib.util.spec_from_file_location("_layer_trace", LAYER_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves():
    for module, attr, _, _ in _layer_trace()._WRAPPED:
        target = importlib.import_module(f"heatlab.{module}")
        for part in attr.split("."):
            assert hasattr(target, part), f"heatlab.{module}.{attr}"
            target = getattr(target, part)
        assert callable(target)


def test_count_hooks_read_live_names():
    lt = _layer_trace()
    assert "h" in inspect.signature(uniformized_exponential).parameters
    g = hl.path_graph(4)
    bk = BridgeKernel(g, 0.5, 1)
    for name in ("r", "powers", "pmf"):
        assert hasattr(bk, name)
    counts = defaultdict(float)
    h = g.generator_matrix()
    lt._uniformized(counts, {"h": h}, uniformized_exponential(h, 0.5))
    lt._bridge_build(counts, {"self": bk}, None)
    assert counts["kernels.poisson_terms"] > 0
    assert counts["paths.bridge_kernel.builds"] == 1


def _hooked(hook, fn, *args):
    """Counts of one call of fn, its arguments bound as a traced run binds
    them (defaults applied) and handed to hook with the result."""
    bound = inspect.signature(fn).bind(*args)
    bound.apply_defaults()
    counts = defaultdict(float)
    hook(counts, bound.arguments, fn(*args))
    return counts


def test_count_hooks_bind_to_live_signatures(tmp_path):
    lt = _layer_trace()
    g = hl.path_graph(4)
    w = [0.0, 1.0, 0.5, 2.0]
    model = TorusModel(2, (6.0, 5.0), 3, cosine_well((6.0, 5.0)))
    assert _hooked(lt._galerkin, galerkin_schrodinger_trace, model, 0.5) == \
        {"torus.galerkin_calls": 1, "torus.galerkin_order_sum": 7 ** 2}
    profile = GrowthProfile(m=1, a=0.0, c_values=power_rule(-3.0), k_max=500)
    assert _hooked(lt._series, ricci_admissibility, profile) == \
        {"potential_class.series_terms": 499}
    assert _hooked(lt._scan, semiclassical_scan, g, w, [1.0, 0.5]) == \
        {"traces.grid_points": 2}
    assert _hooked(lt._fk_samples, feynman_kac_trace_mc, g, w, 0.5, 20,
                   1) == {"paths.samples": 20 * g.n}
    assert _hooked(lt._pnfb_samples, pnfb_probability, g, 0, [0, 1], 0.5,
                   20, 1) == {"paths.samples": 20}
    cfg = experiments.ExperimentConfig.from_doc(
        {"kind": "axioms", "graph": "fixture:p5", "s": 0.3, "t": 0.7},
        tmp_path, "ax", "test")
    counts = _hooked(lt._artifacts, experiments.run, cfg, tmp_path / "out")
    assert counts["experiments.artifact_bytes"] == sum(
        p.stat().st_size for p in (tmp_path / "out").iterdir()) > 0


def test_separable_trace_is_one_call_of_the_wrapped_name(monkeypatch):
    # the tracer rebinds torus.galerkin_schrodinger_trace; the per-axis
    # recursion must not go through that name, or torus.galerkin_calls
    # would count 1 + dim calls for one separable trace
    calls = []

    def counted(*args):
        calls.append(args)
        return galerkin_schrodinger_trace(*args)

    monkeypatch.setattr(torus, "galerkin_schrodinger_trace", counted)
    model = TorusModel(2, (6.0, 5.0), 4, cosine_well((6.0, 5.0)))
    torus.galerkin_schrodinger_trace(model, 1.0)
    torus.check_truncation(model, 1.0)
    assert len(calls) == 3
