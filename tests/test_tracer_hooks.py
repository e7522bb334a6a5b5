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
from heatlab.kernels import uniformized_exponential
from heatlab.paths import BridgeKernel

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
