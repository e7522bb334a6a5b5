"""The benchmark's inputs still parse.

bench/workloads.py writes the configs and profiles a benchmark round runs.
A key heatlab refuses would turn every round into failed operations, so
each input is parsed here as the runs parse it, without running it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from heatlab.experiments import ExperimentConfig, read_json
from heatlab.potential_class import growth_profile_from_config

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_inputs_parse(tmp_path, workload):
    plan = workloads.build(workload, 1, tmp_path)
    parsed = 0
    for op in plan["ops"]:
        command, *rest = op.get("argv", [None])
        if command == "run":
            cfg = ExperimentConfig.from_file(rest[0])
            if cfg.kind == "admissibility":
                growth_profile_from_config(cfg.doc["profile"])
            parsed += 1
        elif command == "check-admissibility":
            # the command strips expect before it parses the profile
            profile = read_json(rest[0])
            profile.pop("expect", None)
            growth_profile_from_config(profile)
            parsed += 1
    assert parsed > 0
