"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

The oracles must agree with heatlab on the shipped acceptance fixtures, and a
deliberately corrupted output must be counted as a failed operation.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402

SHIPPED = ROOT / "configs" / "acceptance"


def _plan_for_shipped(names) -> dict:
    ops = []
    for name in names:
        path = SHIPPED / f"{name}.json"
        op = {"name": name, "call": "cli",
              "argv": ["run", str(path), "--out", "{out}", "--threads", "1"],
              "check": {"kind": "run", "config": str(path)}}
        cfg = json.loads(path.read_text())
        if cfg["kind"] == "axioms":
            s, t = float(cfg["s"]), float(cfg["t"])
            op["capture"] = {"graph": str(SHIPPED / cfg["graph"]),
                             "times": [s, t, s + t]}
        ops.append(op)
    return {"ops": ops}


def _round(plan: dict, tmp_path: Path) -> dict:
    return worker.run_round(plan, tmp_path / "round000", None)


def test_oracles_agree_with_program_on_shipped_fixtures(tmp_path):
    names = sorted(p.stem for p in SHIPPED.glob("*.json"))
    plan = _plan_for_shipped(names)
    attempted, failed, failures = run.check_rounds(plan, [_round(plan,
                                                                 tmp_path)])
    assert attempted == len(names)
    assert failures == []
    assert failed == 0


def test_library_and_cli_ops_agree_with_oracles(tmp_path):
    # one small copy of each non-`run` operation kind the workloads use
    graph = SHIPPED.parent / "graphs" / "random10.graph"
    w = [float(v) for v in np.linspace(-1.0, 2.0, 10)]
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"m": 1, "A": 0.0, "k_max": 5000,
                                   "rule": {"rule": "power",
                                            "exponent": -3.0}}))
    ops = [
        {"name": "vk", "call": "cli",
         "argv": ["verify-kernel", "--graph", str(graph), "--s", "0.25",
                  "--t", "0.5", "--out", "{out}"],
         "capture": {"graph": str(graph), "times": [0.25, 0.5, 0.75]},
         "check": {"kind": "verify-kernel", "graph": str(graph)}},
        {"name": "fk", "call": "cli",
         "argv": ["sample-paths", "--graph", str(graph), "--t", "0.5",
                  "--samples", "2000", "--seed", "3", "--mode", "fk-trace",
                  "--potential=" + ",".join(map(repr, w)), "--out",
                  "{out}"],
         "check": {"kind": "fk-trace", "graph": str(graph), "potential": w,
                   "t": 0.5}},
        {"name": "kato-t1", "call": "kato_modulus", "graph": str(graph),
         "potential": w, "t": 1.0,
         "check": {"kind": "kato", "graph": str(graph), "potential": w,
                   "t": 1.0, "smaller": None}},
        {"name": "kato-t2", "call": "kato_modulus", "graph": str(graph),
         "potential": w, "t": 2.0,
         "check": {"kind": "kato", "graph": str(graph), "potential": w,
                   "t": 2.0, "smaller": "kato-t1"}},
        {"name": "minimal", "call": "minimal_heat_kernel",
         "graph": str(graph), "subsets": [[0, 1, 4], [0, 1, 2, 4, 7],
                                          list(range(10))],
         "t": 0.5, "x": 0, "y": 1,
         "check": {"kind": "minimal", "graph": str(graph),
                   "subsets": [[0, 1, 4], [0, 1, 2, 4, 7], list(range(10))],
                   "t": 0.5, "x": 0, "y": 1}},
        {"name": "adm", "call": "cli",
         "argv": ["check-admissibility", str(profile), "--out", "{out}"],
         "check": {"kind": "check-admissibility", "profile": str(profile)}},
    ]
    plan = {"ops": ops}
    attempted, failed, failures = run.check_rounds(plan, [_round(plan,
                                                                 tmp_path)])
    assert (attempted, failed, failures) == (len(ops), 0, [])


def _scale_csv_cell(path: Path, column: str, factor: float) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    col = header.index(column)
    cells[col] = repr(float(cells[col]) * factor)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _corrupt_scan(out: Path):
    _scale_csv_cell(out / "graph_limit_p5.csv", "scaled_trace", 1 + 1e-6)


def _corrupt_torus(out: Path):
    _scale_csv_cell(out / "torus_1d_cosine.csv", "scaled_trace", 1 + 1e-6)


def _corrupt_mc(out: Path):
    _scale_csv_cell(out / "fk_k5.csv", "estimate", 1.05)


def _corrupt_table(out: Path):
    data = dict(np.load(out / "tables.npz"))
    data["values"] = data["values"].copy()
    data["values"][0, 0, 1] += 1e-9
    np.savez(out / "tables.npz", **data)


def _corrupt_verdict(out: Path):
    path = out / "adm_p_series_desk.json"
    doc = json.loads(path.read_text())
    doc["verdict"] = "admissible"
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("name, corrupt", [
    ("graph_limit_p5", _corrupt_scan),
    ("torus_1d_cosine", _corrupt_torus),
    ("fk_k5", _corrupt_mc),
    ("axioms_random10", _corrupt_table),
    ("adm_p_series_desk", _corrupt_verdict),
])
def test_corrupted_output_is_counted_as_failed(tmp_path, name, corrupt):
    plan = _plan_for_shipped([name])
    rnd = _round(plan, tmp_path)
    assert run.check_rounds(plan, [rnd])[:2] == (1, 0)
    corrupt(Path(rnd["ops"][0]["out"]))
    attempted, failed, failures = run.check_rounds(plan, [rnd])
    assert (attempted, failed) == (1, 1)
    assert failures[0]["op"] == name


def _corrupt_axiom_defect(out: Path):
    _scale_csv_cell(out / "axioms.csv", "ck_defect", 1e6)


def _corrupt_fault_table(out: Path):
    data = dict(np.load(out / "tables.npz"))
    data["values"] = data["values"].copy()
    data["values"][2, 0, 1] *= 1.0 + 1e-6
    np.savez(out / "tables.npz", **data)


def _corrupt_fault_deficit(out: Path):
    _scale_csv_cell(out / "axioms.csv", "mass_deficit", 10.0)


def _drop_fault_tables(out: Path):
    (out / "tables.npz").unlink()


def test_known_fault_is_expected_only_as_itself(tmp_path):
    import workloads
    plan = workloads.build("semigroup", 1, tmp_path / "inputs")
    plan["ops"] = [op for op in plan["ops"] if op.get("known_fault")]
    assert [op["name"] for op in plan["ops"]] == ["verify-kernel-rate960"]
    rnd = _round(plan, tmp_path)
    attempted, failed, failures = run.check_rounds(plan, [rnd])
    assert (attempted, failed) == (1, 1)
    assert failures[0]["expected"], failures
    # any other fault in the same operation's output is unexpected
    out = Path(rnd["ops"][0]["out"])
    saved = {p.name: p.read_bytes() for p in out.iterdir()}
    for corrupt in (_corrupt_axiom_defect, _corrupt_fault_table,
                    _corrupt_fault_deficit, _drop_fault_tables):
        corrupt(out)
        failures = run.check_rounds(plan, [rnd])[2]
        assert len(failures) == 1 and not failures[0]["expected"], \
            (corrupt.__name__, failures)
        for name, data in saved.items():
            (out / name).write_bytes(data)
    # without the known-fault mark the same output is unexpected too
    del plan["ops"][0]["known_fault"]
    assert not run.check_rounds(plan, [rnd])[2][0]["expected"]


def test_missing_output_is_counted_as_failed(tmp_path):
    plan = _plan_for_shipped(["graph_limit_k5"])
    rnd = _round(plan, tmp_path)
    shutil.rmtree(rnd["ops"][0]["out"])
    assert run.check_rounds(plan, [rnd])[:2] == (1, 1)


def test_inputs_depend_only_on_the_seed(tmp_path):
    import workloads
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 5, tmp_path / "a" / name)
        b = workloads.build(name, 5, tmp_path / "b" / name)
        assert [op["name"] for op in a["ops"]] == [op["name"]
                                                  for op in b["ops"]]
        for fa in sorted((tmp_path / "a" / name).iterdir()):
            assert fa.read_bytes() == (tmp_path / "b" / name /
                                       fa.name).read_bytes()


def test_runner_refuses_a_tree_without_heatlab(tmp_path):
    # a copy of only the benchmark's own files must exit 2 with no result
    copy = tmp_path / "bench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns(
        "results", "__pycache__", "tests"))
    import subprocess
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "semigroup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""


def test_slowdown_scales_with_the_reference_times():
    import calibrate
    import workloads
    nominal = {name: calibrate.NOMINAL[name]
               for name in ("rotations", "matmul")}
    assert calibrate.slowdown(nominal, nominal) == pytest.approx(1.0)
    twice = {name: 2.0 * t for name, t in nominal.items()}
    assert calibrate.slowdown(twice, twice) == pytest.approx(2.0)
    assert calibrate.slowdown(nominal, twice) == pytest.approx(1.5)
    # every workload names at least one known reference computation
    for names in workloads.CALIBRATE.values():
        assert names and set(names) <= set(calibrate.NOMINAL)
    assert set(calibrate.measure(["eig"])) == {"eig"}
