"""Config-driven experiment runner and the command-line entry point."""

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatlab as hl
from heatlab import cli, experiments
from heatlab.errors import AssertionFailed, ConfigError, InputError
from heatlab.experiments import ExperimentConfig, run, run_suite


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return path


PASSING_SCAN = {
    "kind": "graph-limit",
    "graph": "fixture:two_vertex",
    "potential": [0.0, 2.0],
    "t_grid": {"t0": 1.0, "ratio": 0.5, "points": 8},
    "tolerances": {"final_rel_error": 0.05, "monotone_tail": 4},
}


# -------------------------------------------------------------- config I/O


def test_config_from_file(tmp_path):
    p = write_config(tmp_path / "scan_a.json", PASSING_SCAN)
    cfg = ExperimentConfig.from_file(p)
    assert cfg.kind == "graph-limit"
    assert cfg.name == "scan_a"        # defaults to the file stem
    assert cfg.seed == 0
    assert cfg.base_dir == tmp_path


def test_config_explicit_name_and_seed(tmp_path):
    doc = dict(PASSING_SCAN, name="custom", seed=42)
    cfg = ExperimentConfig.from_file(write_config(tmp_path / "x.json", doc))
    assert cfg.name == "custom" and cfg.seed == 42


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(tmp_path / "nope.json")


def test_config_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(p)


def test_config_non_object(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(p)


@pytest.mark.parametrize("name", ["", ".", "..", "../up", "a/b", "a\\b",
                                  "a\0b", "x" * 251, "\u00e9" * 126, 7,
                                  None, ["a"]])
def test_config_name_must_be_a_file_stem(tmp_path, name):
    # artifacts are <name>.csv and <name>.json inside --out
    doc = dict(PASSING_SCAN, name=name)
    with pytest.raises(ConfigError, match="name"):
        ExperimentConfig.from_file(write_config(tmp_path / "n.json", doc))


def test_config_name_at_the_file_name_limit(tmp_path):
    doc = dict(PASSING_SCAN, name="x" * 250)     # 255 bytes with ".json"
    cfg = ExperimentConfig.from_file(write_config(tmp_path / "n.json", doc))
    result = run(cfg, tmp_path / "out")
    assert sorted(a.name for a in result.artifacts) == [
        "x" * 250 + ".csv", "x" * 250 + ".json"]


def test_config_unknown_kind(tmp_path):
    p = write_config(tmp_path / "k.json", {"kind": "mystery"})
    with pytest.raises(ConfigError, match="mystery"):
        ExperimentConfig.from_file(p)


# ------------------------------------------------------------- single runs


# one small config per kind, and the change that makes one of its checks
# fail: new tolerances, or for admissibility a wrong expected verdict
KIND_CASES = {
    "graph-limit": (PASSING_SCAN, {"tolerances": {"final_rel_error": 1e-12}}),
    "torus-limit": ({"kind": "torus-limit", "dim": 1,
                     "lengths": [2 * math.pi], "truncation": 16,
                     "t_grid": {"points": 6},
                     "tolerances": {"final_rel_error": 0.05,
                                    "monotone": False}},
                    {"tolerances": {"final_rel_error": 1e-300,
                                    "monotone": False}}),
    "fk-crosscheck": ({"kind": "fk-crosscheck", "graph": "fixture:two_vertex",
                       "potential": [0.0, 2.0], "t": 0.5, "samples": 200,
                       "seed": 1, "tolerances": {"k_sigma": 4.0}},
                      {"tolerances": {"max_rel_se": 1e-12}}),
    "pnfb": ({"kind": "pnfb", "graph": "fixture:p5", "x": 2, "K": [1, 2, 3],
              "t_list": [0.5, 0.1], "samples": 200,
              "tolerances": {"final_min": 0.5}},
             {"tolerances": {"final_min": 1.5}}),
    "axioms": ({"kind": "axioms", "graph": "fixture:p5", "s": 0.3, "t": 0.7},
               {"tolerances": {"mass": -1.0}}),
    "admissibility": ({"kind": "admissibility", "expect": "inadmissible",
                       "profile": {"m": 2, "A": 1.0, "k_max": 100,
                                   "rule": {"rule": "constant",
                                            "value": 1.0}}},
                      {"expect": "admissible"}),
}


@pytest.mark.parametrize("failing", [False, True], ids=["pass", "fail"])
@pytest.mark.parametrize("kind", list(KIND_CASES))
def test_run_writes_artifacts(tmp_path, kind, failing):
    # run writes <name>.csv and <name>.json, and nothing else, before it
    # evaluates the checks, so a failing run leaves the same two files
    doc, breaking = KIND_CASES[kind]
    cfg = ExperimentConfig.from_file(write_config(
        tmp_path / "exp.json", dict(doc, **breaking) if failing else doc))
    out = tmp_path / "out"
    try:
        result = run(cfg, out)
    except AssertionFailed as exc:
        result = exc.result
    assert result.status == ("fail" if failing else "pass")
    assert sorted(a.name for a in result.artifacts) == ["exp.csv",
                                                        "exp.json"]
    assert sorted(p.name for p in out.iterdir()) == ["exp.csv", "exp.json"]


def test_run_failing_tolerance_names_the_check(tmp_path):
    doc = dict(PASSING_SCAN,
               tolerances={"final_rel_error": 1e-12, "monotone_tail": 4})
    cfg = ExperimentConfig.from_file(write_config(tmp_path / "f.json", doc))
    with pytest.raises(AssertionFailed, match="^final_rel_error:"):
        run(cfg, tmp_path / "out")
    # artifacts are still written before the checks run
    assert (tmp_path / "out" / "f.csv").exists()


def test_run_missing_graph_file(tmp_path):
    doc = dict(PASSING_SCAN, graph="missing.graph")
    cfg = ExperimentConfig.from_file(write_config(tmp_path / "g.json", doc))
    with pytest.raises(InputError):
        run(cfg, tmp_path / "out")


def test_run_unknown_fixture(tmp_path):
    doc = dict(PASSING_SCAN, graph="fixture:made_up")
    cfg = ExperimentConfig.from_file(write_config(tmp_path / "g.json", doc))
    with pytest.raises(ConfigError):
        run(cfg, tmp_path / "out")


def test_fixture_lookup_builds_only_that_fixture(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a fixture that was not asked for")

    for builder in ("two_vertex", "complete_graph", "random_connected_graph"):
        monkeypatch.setattr(hl.fixtures, builder, refuse)
    g = experiments._resolve_graph("fixture:p5", Path("."))
    assert g.fingerprint() == hl.path_graph(5).fingerprint()


def test_run_wrong_potential_length(tmp_path):
    doc = dict(PASSING_SCAN, potential=[0.0, 1.0, 2.0])
    cfg = ExperimentConfig.from_file(write_config(tmp_path / "p.json", doc))
    with pytest.raises(ConfigError, match="entries"):
        run(cfg, tmp_path / "out")


def test_run_fk_seed_override(tmp_path):
    doc = {"kind": "fk-crosscheck", "graph": "fixture:two_vertex",
           "potential": 0.5, "t": 0.5, "samples": 200, "seed": 1,
           "tolerances": {"k_sigma": 4.0}}
    cfg = ExperimentConfig.from_file(write_config(tmp_path / "fk.json", doc))
    run(cfg, tmp_path / "a", seed=77)
    payload = json.loads((tmp_path / "a" / "fk.json").read_text())
    assert payload["seed"] == 77
    # without an override the config's own seed applies
    run(cfg, tmp_path / "b")
    assert json.loads((tmp_path / "b" / "fk.json").read_text())["seed"] == 1


def test_run_pnfb_rejects_bad_time_ladder(tmp_path):
    doc = {"kind": "pnfb", "graph": "fixture:p5", "x": 2, "K": [1, 2, 3],
           "t_list": [0.1, 0.5], "samples": 100}
    cfg = ExperimentConfig.from_file(write_config(tmp_path / "b.json", doc))
    with pytest.raises(ConfigError, match="decreasing"):
        run(cfg, tmp_path / "out")


def test_run_axioms(tmp_path):
    doc = {"kind": "axioms", "graph": "fixture:p5", "s": 0.3, "t": 0.7}
    cfg = ExperimentConfig.from_file(write_config(tmp_path / "ax.json", doc))
    result = run(cfg, tmp_path / "out")
    assert result.status == "pass"
    payload = json.loads((tmp_path / "out" / "ax.json").read_text())
    assert payload["passed"] is True
    assert payload["ck_defect"] <= 1e-10


def test_run_admissibility_expected_verdict_mismatch(tmp_path):
    doc = {"kind": "admissibility", "expect": "admissible",
           "profile": {"m": 2, "A": 1.0, "k_max": 100,
                       "rule": {"rule": "constant", "value": 1.0}}}
    cfg = ExperimentConfig.from_file(write_config(tmp_path / "ad.json", doc))
    with pytest.raises(AssertionFailed, match="^expected_verdict:"):
        run(cfg, tmp_path / "out")


def test_run_torus_doubling_gate_fails_as_assertion(tmp_path):
    # truncation 4 at t = 0.01 is far from converged on the unit circle
    doc = {"kind": "torus-limit", "dim": 1, "lengths": [1.0],
           "truncation": 4, "t_grid": [0.01, 0.005]}
    cfg = ExperimentConfig.from_file(write_config(tmp_path / "tr.json", doc))
    with pytest.raises(AssertionFailed, match="^truncation_doubling:") as exc:
        run(cfg, tmp_path / "out")
    # no report exists, so the failed gate writes neither file
    assert exc.value.result.artifacts == []
    assert list((tmp_path / "out").iterdir()) == []


# a trace that underflows to 0.0: e^{-800} on the circle of length 2 pi
UNDERFLOWING_TORUS = {"kind": "torus-limit", "dim": 1,
                      "lengths": [2 * math.pi], "truncation": 8,
                      "potential": "constant:800", "t_grid": {"t0": 1.0}}


def test_cli_run_torus_trace_underflow_keeps_exit_contract(tmp_path, capsys):
    p = write_config(tmp_path / "under.json", UNDERFLOWING_TORUS)
    code = cli.main(["run", str(p), "--out", str(tmp_path / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_suite_torus_trace_underflow_gets_summary_row(tmp_path, capsys):
    d = make_suite_dir(tmp_path)
    write_config(d / "c_under.json", UNDERFLOWING_TORUS)
    code = cli.main(["suite", str(d), "--out", str(tmp_path / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
    rows = (tmp_path / "out" / "suite_summary.csv").read_text().splitlines()
    assert any(r.startswith("c_under,torus-limit,") for r in rows)


# ------------------------------------------------------------------- suite


def make_suite_dir(tmp_path, include_fail=False, include_error=False):
    d = tmp_path / "configs"
    d.mkdir()
    write_config(d / "a_scan.json", PASSING_SCAN)
    write_config(d / "b_axioms.json",
                 {"kind": "axioms", "graph": "fixture:two_vertex",
                  "s": 0.5, "t": 0.5})
    if include_fail:
        write_config(d / "c_fail.json",
                     dict(PASSING_SCAN,
                          tolerances={"final_rel_error": 1e-12}))
    if include_error:
        write_config(d / "d_error.json", {"kind": "mystery"})
    return d


def test_suite_all_pass(tmp_path):
    d = make_suite_dir(tmp_path)
    suite = run_suite(d, tmp_path / "out")
    assert [r.status for r in suite.results] == ["pass", "pass"]
    assert suite.exit_code == 0
    assert suite.summary_path.exists()


def test_suite_failure_isolated(tmp_path):
    d = make_suite_dir(tmp_path, include_fail=True)
    suite = run_suite(d, tmp_path / "out")
    assert [r.status for r in suite.results] == ["pass", "pass", "fail"]
    assert suite.exit_code == 1
    failing = suite.results[2]
    assert failing.detail.startswith("final_rel_error:")


def test_suite_error_wins_exit_code(tmp_path):
    d = make_suite_dir(tmp_path, include_fail=True, include_error=True)
    suite = run_suite(d, tmp_path / "out")
    assert [r.status for r in suite.results] == \
        ["pass", "pass", "fail", "error"]
    assert suite.exit_code == 2


def test_suite_empty_dir(tmp_path):
    d = tmp_path / "nothing"
    d.mkdir()
    with pytest.raises(ConfigError):
        run_suite(d, tmp_path / "out")


def test_suite_summary_matches_results(tmp_path):
    d = make_suite_dir(tmp_path, include_fail=True)
    suite = run_suite(d, tmp_path / "out")
    lines = suite.summary_path.read_text().splitlines()
    assert lines[0] == "name,kind,status,detail"
    assert len(lines) == 1 + len(suite.results)
    assert lines[1].startswith("a_scan,graph-limit,pass")


def test_suite_deterministic_bytes(tmp_path):
    d = make_suite_dir(tmp_path)
    run_suite(d, tmp_path / "out1")
    run_suite(d, tmp_path / "out2")
    for p1 in sorted((tmp_path / "out1").iterdir()):
        p2 = tmp_path / "out2" / p1.name
        assert p1.read_bytes() == p2.read_bytes(), p1.name


def test_suite_parallel_matches_serial(tmp_path):
    d = make_suite_dir(tmp_path, include_fail=True)
    serial = run_suite(d, tmp_path / "s")
    parallel = run_suite(d, tmp_path / "p", threads=4)
    assert [r.status for r in serial.results] == \
        [r.status for r in parallel.results]
    for p1 in sorted((tmp_path / "s").iterdir()):
        assert p1.read_bytes() == (tmp_path / "p" / p1.name).read_bytes()


# --------------------------------------------------------------------- CLI


def test_cli_run_ok(tmp_path, capsys):
    p = write_config(tmp_path / "scan.json", PASSING_SCAN)
    code = cli.main(["run", str(p), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "scan: pass" in capsys.readouterr().out


def test_cli_run_assertion_exit_1(tmp_path, capsys):
    doc = dict(PASSING_SCAN, tolerances={"final_rel_error": 1e-12})
    p = write_config(tmp_path / "f.json", doc)
    code = cli.main(["run", str(p), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "final_rel_error" in capsys.readouterr().err


def test_cli_run_config_error_exit_2(tmp_path, capsys):
    p = write_config(tmp_path / "bad.json", {"kind": "mystery"})
    assert cli.main(["run", str(p), "--out", str(tmp_path / "out")]) == 2


def test_cli_suite_exit_codes(tmp_path):
    d = make_suite_dir(tmp_path, include_fail=True)
    assert cli.main(["suite", str(d), "--out", str(tmp_path / "out")]) == 1


def test_cli_verify_kernel(tmp_path):
    g = hl.fixture_registry()["p5"][0]
    gp = tmp_path / "p5.graph"
    hl.save_graph(g, gp)
    code = cli.main(["verify-kernel", "--graph", str(gp),
                     "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "axioms.csv").exists()


def test_cli_verify_kernel_malformed_json_graph_exit_2(tmp_path, capsys):
    gp = tmp_path / "bad.json"
    gp.write_text(json.dumps({"vertices": [{"id": 0}]}))
    code = cli.main(["verify-kernel", "--graph", str(gp),
                     "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "vertices[0]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["verify-kernel"],
    ["sample-paths", "--t", "1", "--samples", "10", "--mode", "free",
     "--x", "1"],
], ids=["verify-kernel", "sample-paths"])
def test_cli_non_finite_degree_graph_exit_2(tmp_path, capsys, command):
    # sum_y b(0,y) = 1 is finite but Deg(0) = 1 / 1e-320 is not
    gp = tmp_path / "tiny.graph"
    gp.write_text("v 0 1e-320\nv 1 1.0\ne 0 1 1.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command[0], "--graph", str(gp), *command[1:],
                         "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: weighted degree Deg(0)")


def test_suite_malformed_json_graph_gets_summary_row(tmp_path):
    d = make_suite_dir(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [{"id": 0}]}))
    write_config(d / "c_bad_graph.json",
                 {"kind": "axioms", "graph": str(bad), "s": 0.5, "t": 0.5})
    suite = run_suite(d, tmp_path / "out")
    assert [r.status for r in suite.results] == ["pass", "pass", "error"]
    assert suite.exit_code == 2
    rows = suite.summary_path.read_text().splitlines()
    assert any(r.startswith("c_bad_graph,axioms,error,") for r in rows)


def test_cli_sample_paths_missing_vertex_exit_2(tmp_path):
    g = hl.fixture_registry()["two_vertex"][0]
    gp = tmp_path / "g.graph"
    hl.save_graph(g, gp)
    code = cli.main(["sample-paths", "--graph", str(gp), "--t", "1",
                     "--samples", "10", "--mode", "free",
                     "--out", str(tmp_path)])
    assert code == 2              # free mode needs --x


def test_cli_sample_paths_fk(tmp_path, capsys):
    g = hl.fixture_registry()["two_vertex"][0]
    gp = tmp_path / "g.graph"
    hl.save_graph(g, gp)
    code = cli.main(["sample-paths", "--graph", str(gp), "--t", "1",
                     "--samples", "500", "--mode", "fk-trace",
                     "--constant", "0.5", "--seed", "3",
                     "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "sample_paths.csv").read_text()
    assert text.splitlines()[0].startswith("statistic,t,estimate")


def test_cli_fk_trace_matches_fk_crosscheck(tmp_path, capsys):
    # the CLI mode and the runner build the fk_trace row with one helper
    gp = tmp_path / "g.graph"
    hl.save_graph(hl.two_vertex(), gp)
    code = cli.main(["sample-paths", "--graph", str(gp), "--t", "0.5",
                     "--samples", "300", "--mode", "fk-trace",
                     "--potential", "0,2", "--seed", "7",
                     "--out", str(tmp_path / "cli")])
    assert code == 0
    doc = {"kind": "fk-crosscheck", "name": "fk", "graph": str(gp),
           "potential": [0.0, 2.0], "t": 0.5, "samples": 300, "seed": 7}
    with contextlib.suppress(AssertionFailed):
        run(ExperimentConfig.from_doc(doc, tmp_path, "fk", "fk test"),
            tmp_path / "run")
    cli_text = (tmp_path / "cli" / "sample_paths.csv").read_text()
    run_text = (tmp_path / "run" / "fk.csv").read_text()
    assert cli_text.splitlines()[1].startswith("fk_trace,")
    assert cli_text == run_text


def test_cli_pnfb_matches_one_time_pnfb(tmp_path, capsys):
    gp = tmp_path / "g.graph"
    hl.save_graph(hl.path_graph(5), gp)
    code = cli.main(["sample-paths", "--graph", str(gp), "--t", "0.5",
                     "--samples", "300", "--mode", "pnfb", "--x", "2",
                     "--K", "1,2,3", "--seed", "11",
                     "--out", str(tmp_path / "cli")])
    assert code == 0
    doc = {"kind": "pnfb", "name": "pn", "graph": str(gp), "x": 2,
           "K": [1, 2, 3], "t_list": [0.5], "samples": 300, "seed": 11}
    with contextlib.suppress(AssertionFailed):
        run(ExperimentConfig.from_doc(doc, tmp_path, "pn", "pnfb test"),
            tmp_path / "run")
    cli_rows = {r[0]: r for r in (
        line.split(",") for line in
        (tmp_path / "cli" / "sample_paths.csv").read_text().splitlines())}
    header, row = (line.split(",") for line in
                   (tmp_path / "run" / "pn.csv").read_text().splitlines())
    got = dict(zip(header, row))
    stay = cli_rows["stay_probability"]
    # t, estimate, std_error, n_samples, seed; then the exact ratio and the
    # no-jump bound
    assert stay[1:6] == [got[k] for k in ("t", "estimate", "std_error",
                                          "n_samples", "seed")]
    assert stay[6] == got["exact_ratio"]
    assert cli_rows["stay_lower_bound"][2] == got["lower_bound"]


def test_cli_vertex_tokens_are_labels_first(tmp_path, capsys):
    # vertex 0 is labelled 5 and vertex 5 is labelled x: a token names the
    # vertex it labels, as a config's "5" does, and an index only otherwise
    base = hl.path_graph(7)
    g = hl.WeightedGraph(base.mu, base.edges,
                         labels=["5", "1", "2", "3", "4", "x", "6"])
    gp = tmp_path / "g.graph"
    hl.save_graph(g, gp)
    code = cli.main(["sample-paths", "--graph", str(gp), "--t", "0.5",
                     "--samples", "300", "--mode", "pnfb", "--x", "5",
                     "--K", "5,1,2", "--seed", "11",
                     "--out", str(tmp_path / "cli")])
    assert code == 0
    est, bound, exact = experiments.pnfb_at(g, "5", ["5", "1", "2"], 0.5,
                                            300, 11)
    assert exact == experiments.pnfb_at(g, 0, [0, 1, 2], 0.5, 300, 11)[2]
    rows = (tmp_path / "cli" / "sample_paths.csv").read_text().splitlines()
    assert rows[1:] == [
        f"stay_probability,0.5,{est.mean!r},{est.std_error!r},300,11,"
        f"{exact!r},{abs(est.mean - exact)!r}",
        f"stay_lower_bound,0.5,{bound!r},0.0,0,11,,"]
    # a token that is no label is an index: 6 is vertex 6, x is vertex 5
    assert cli._vertex(g, "6", "--x") == 6
    assert cli._vertex(g, "x", "--x") == 5
    plain = hl.path_graph(7)
    assert [cli._vertex(plain, v, "--K") for v in ("5", "0")] == [5, 0]


def test_cli_sample_paths_bridge(tmp_path, capsys):
    # x = y on the two-vertex graph: the no-jump probability of the bridge
    # is e^{-t Deg} / (p mu), the reference the CLI writes
    gp = tmp_path / "g.graph"
    hl.save_graph(hl.two_vertex(), gp)
    n = 4000
    texts = []
    for run_dir in ("a", "b"):
        code = cli.main(["sample-paths", "--graph", str(gp), "--t", "1",
                         "--samples", str(n), "--mode", "bridge", "--x", "0",
                         "--y", "0", "--seed", "5",
                         "--out", str(tmp_path / run_dir)])
        assert code == 0
        texts.append((tmp_path / run_dir / "sample_paths.csv").read_bytes())
    assert texts[0] == texts[1]
    rows = {r.split(",")[0]: r.split(",")
            for r in texts[0].decode().splitlines()[1:]}
    assert set(rows) == {"jump_count_mean", "no_jump_probability"}
    no_jump = rows["no_jump_probability"]
    freq, ref = float(no_jump[2]), float(no_jump[6])
    assert ref == pytest.approx(0.6480542736638855, abs=1e-13)
    assert abs(freq - ref) <= 4 * math.sqrt(ref * (1 - ref) / n)


def _exit_code(argv) -> int:
    """cli.main's exit code, also when argparse rejects a flag."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


SAMPLE = ["sample-paths", "--graph", str(CONFIGS / "graphs" /
                                          "two_vertex.graph"),
          "--t", "1", "--samples", "10"]
FK_CONFIG = str(CONFIGS / "acceptance" / "fk_two_vertex.json")


@pytest.mark.parametrize("argv", [
    SAMPLE + ["--mode", "fk-trace", "--potential=1,2,3"],
    SAMPLE + ["--mode", "fk-trace", "--potential=1,a"],
    SAMPLE + ["--mode", "fk-trace", "--potential=1,nan"],
    SAMPLE + ["--mode", "pnfb", "--x", "0", "--K", "0,a"],
    SAMPLE + ["--mode", "fk-trace", "--threads", "0"],
    SAMPLE + ["--mode", "fk-trace", "--threads", "-1"],
    SAMPLE + ["--mode", "free", "--x", "0", "--seed", "-1"],
    SAMPLE[:4] + ["nan", "--samples", "10", "--mode", "fk-trace"],
    ["run", FK_CONFIG, "--seed", "-1"],
    ["run", FK_CONFIG, "--threads", "0"],
    ["suite", str(CONFIGS / "acceptance"), "--threads", "-1"],
], ids=["potential-length", "potential-text", "potential-nan", "K-text",
        "sample-threads-0", "sample-threads-neg", "sample-seed-neg", "t-nan",
        "run-seed-neg", "run-threads-0", "suite-threads-neg"])
def test_bad_flag_exits_2_without_traceback(tmp_path, capsys, argv):
    assert _exit_code(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error:" in err
    assert not (tmp_path / "out").exists()


def _main_output(argv):
    """(exit code, stdout, stderr) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _exit_code(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_calls_in_one_process_match_fresh_calls(tmp_path):
    # the parser is built once per process: no subcommand's values or
    # defaults may carry over into the next call
    graph = str(CONFIGS / "graphs" / "two_vertex.graph")
    calls = [
        ["run", FK_CONFIG, "--seed", "5", "--threads", "2",
         "--out", str(tmp_path / "run")],
        ["verify-kernel", "--graph", graph, "--s", "0.3",
         "--out", str(tmp_path / "verify")],
        SAMPLE + ["--mode", "free", "--x", "0", "--out", str(tmp_path)],
        ["run", FK_CONFIG, "--threads", "0"],
        ["verify-kernel", "--graph", graph, "--out", str(tmp_path / "v2")],
        ["run", FK_CONFIG, "--out", str(tmp_path / "run")],
    ]
    in_one = [_main_output(argv) for argv in calls]
    assert [code for code, _, _ in in_one] == [0, 0, 0, 2, 0, 0]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(_main_output(argv))
    assert in_one == fresh
    parser = cli._build_parser()
    assert parser is cli._build_parser()
    parser.parse_args(["run", FK_CONFIG, "--seed", "5", "--threads", "2"])
    args = parser.parse_args(["verify-kernel", "--graph", graph])
    assert (args.seed, args.threads, args.s) == (None, 1, 0.5)
    args = parser.parse_args(["run", FK_CONFIG])
    assert (args.seed, args.threads, args.out) == (None, 1, ".")


def test_cli_check_admissibility(tmp_path):
    doc = {"m": 2, "A": 1.0, "k_max": 100,
           "rule": {"rule": "quadratic-growth", "rate": 1.0},
           "expect": "admissible"}
    p = write_config(tmp_path / "prof.json", doc)
    assert cli.main(["check-admissibility", str(p),
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "admissibility.csv").exists()
    # a wrong expectation trips the assertion path
    doc["expect"] = "inadmissible"
    p2 = write_config(tmp_path / "prof2.json", doc)
    assert cli.main(["check-admissibility", str(p2),
                     "--out", str(tmp_path)]) == 1


# ------------------------------------ CLI commands as experiment kinds

# the verdict line that bench/checks.py parses from check-admissibility
VERDICT_LINE = re.compile(r"verdict: (\w+) \(k_max (\d+), partial sum (\S+), "
                          r"tail bound (\S+)\)")


def test_verify_kernel_is_the_axioms_kind(tmp_path):
    gp = tmp_path / "p5.graph"
    hl.save_graph(hl.fixture_registry()["p5"][0], gp)
    assert cli.main(["verify-kernel", "--graph", str(gp), "--s", ".3",
                     "--t", ".7", "--out", str(tmp_path / "cli")]) == 0
    cfg = write_config(tmp_path / "axioms.json",
                       {"kind": "axioms", "graph": str(gp), "s": 0.3,
                        "t": 0.7})
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    for name in ("axioms.csv", "axioms.json"):
        assert (tmp_path / "cli" / name).read_bytes() == \
            (tmp_path / "run" / name).read_bytes(), name


def test_check_admissibility_is_the_admissibility_kind(tmp_path, capsys):
    profile = json.loads(
        (CONFIGS / "profiles" / "gaussian_decay.json").read_text())
    p = write_config(tmp_path / "prof.json", profile)
    assert cli.main(["check-admissibility", str(p),
                     "--out", str(tmp_path / "cli")]) == 0
    match = VERDICT_LINE.search(capsys.readouterr().out)
    assert match is not None and match.group(1) == "admissible"
    assert int(match.group(2)) == profile["k_max"]
    # the run document carries expect beside the profile, not in it
    expect = profile.pop("expect")
    cfg = write_config(tmp_path / "admissibility.json",
                       {"kind": "admissibility", "profile": profile,
                        "expect": expect})
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    for name in ("admissibility.csv", "admissibility.json"):
        assert (tmp_path / "cli" / name).read_bytes() == \
            (tmp_path / "run" / name).read_bytes(), name


def test_verify_kernel_failing_tolerance_names_the_check(tmp_path, capsys):
    gp = tmp_path / "p5.graph"
    hl.save_graph(hl.fixture_registry()["p5"][0], gp)
    # at s = t the table at 2s can be the exact square of the one at s,
    # which leaves no defect at all; s = .3, t = .7 leaves a rounding-sized one
    code = cli.main(["verify-kernel", "--graph", str(gp), "--s", ".3",
                     "--t", ".7", "--ck-tol", "1e-30", "--out", str(tmp_path)])
    assert code == 1
    assert "FAILED chapman_kolmogorov:" in capsys.readouterr().err
    assert (tmp_path / "axioms.csv").exists()


def test_axiom_report_owns_its_checks(tmp_path):
    g = hl.fixture_registry()["p5"][0]
    tables = [hl.heat_semigroup(g, t) for t in (0.3, 0.7, 1.0)]
    report = hl.verify_axioms(*tables, mass_tol=0.0)
    names = [name for name, _, _ in report.checks]
    assert names == ["chapman_kolmogorov", "symmetry", "mass_window"]
    assert [ok for _, ok, _ in report.checks] == [True, True, False]
    assert not report.passed


def test_check_admissibility_invalid_expect_exit_2(tmp_path, capsys):
    doc = {"m": 2, "A": 1.0, "k_max": 100,
           "rule": {"rule": "quadratic-growth", "rate": 1.0},
           "expect": "probably"}
    p = write_config(tmp_path / "prof.json", doc)
    assert cli.main(["check-admissibility", str(p),
                     "--out", str(tmp_path)]) == 2
    assert "probably" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1, 2]", "\"profile\"", "{not json"])
def test_check_admissibility_bad_document_exit_2(tmp_path, capsys, text):
    p = tmp_path / "prof.json"
    p.write_text(text)
    assert cli.main(["check-admissibility", str(p),
                     "--out", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


# ------------------------------------------ undecodable and over-deep files

# a graph with byte 0xff at offset 19 (a CRLF counts two bytes), a config
# with a Latin-1 e-acute at offset 31, and JSON nested 200,000 deep
NOT_UTF8_GRAPH = b"v 0 1\nv 1 1\r\ne 0 1 \xff\n"
NOT_UTF8_CONFIG = b'{"kind": "axioms", "name": "caf\xe9"}'
DEEP = b"[" * 200_000 + b"]" * 200_000
DEEP_GRAPH = b'{"vertices": ' + DEEP + b"}"


@pytest.mark.parametrize("command,content,message", [
    ("verify-kernel", NOT_UTF8_GRAPH,
     "bad is not UTF-8: byte 0xff at offset 19"),
    ("verify-kernel", DEEP_GRAPH,
     "invalid JSON graph document: maximum recursion depth"),
    ("run", NOT_UTF8_CONFIG, "bad is not UTF-8: byte 0xe9 at offset 31"),
    ("run", DEEP, "bad: maximum recursion depth"),
    ("check-admissibility", NOT_UTF8_CONFIG,
     "bad is not UTF-8: byte 0xe9 at offset 31"),
    ("check-admissibility", DEEP, "bad: maximum recursion depth"),
], ids=["graph-utf8", "graph-deep", "run-utf8", "run-deep", "adm-utf8",
        "adm-deep"])
def test_undecodable_or_deep_file_exits_2(tmp_path, capsys, command, content,
                                          message):
    p = tmp_path / "bad"
    p.write_bytes(content)
    args = (["verify-kernel", "--graph", str(p)]
            if command == "verify-kernel" else [command, str(p)])
    assert cli.main(args + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_suite_records_undecodable_and_deep_files_as_errors(tmp_path):
    d = tmp_path / "configs"
    d.mkdir()
    shutil.copy(CONFIGS / "acceptance" / "adm_gaussian.json", d)
    (d / "b_not_utf8.json").write_bytes(NOT_UTF8_CONFIG)
    (d / "c_deep.json").write_bytes(DEEP)
    (d / "bad.graph").write_bytes(NOT_UTF8_GRAPH)
    (d / "deep.graph").write_bytes(DEEP_GRAPH)
    for name in ("bad", "deep"):
        write_config(d / f"d_{name}_graph.json",
                     {"kind": "axioms", "graph": f"{name}.graph",
                      "s": 0.5, "t": 0.5})
    suite = run_suite(d, tmp_path / "out")
    assert [(r.name, r.status) for r in suite.results] == [
        ("adm_gaussian", "pass"), ("b_not_utf8", "error"),
        ("c_deep", "error"), ("d_bad_graph", "error"),
        ("d_deep_graph", "error")]
    assert "not UTF-8" in suite.results[1].detail
    assert "recursion depth" in suite.results[4].detail
    assert suite.exit_code == 2
    assert len(suite.summary_path.read_text().splitlines()) == 6


# --------------------------------------- malformed values in shipped configs

VALUE_MUTANTS = [
    ("graph_limit_k5.json", ["t_grid"], [1.0, -1.0]),
    ("graph_limit_k5.json", ["t_grid"], [1.0, float("nan")]),
    ("graph_limit_k5.json", ["t_grid", "t0"], -1.0),
    ("graph_limit_p5.json", ["potential", "values"], [0.0, "x", 0, 0, 0]),
    ("axioms_random10.json", ["s"], "abc"),
    ("axioms_random10.json", ["tolerances", "ck"], "abc"),
    ("adm_gaussian.json", ["window"], "abc"),
    ("adm_gaussian.json", ["window"], -1),
    ("adm_gaussian.json", ["profile", "rule", "rate"], "abc"),
    ("fk_k5.json", ["samples"], "abc"),
    ("pnfb_p5.json", ["samples"], -5),
    ("pnfb_p5.json", ["K"], 3),
    ("torus_1d_zero.json", ["truncation"], "abc"),
    ("torus_1d_zero.json", ["lengths"], [float("nan")]),
    ("axioms_random10.json", ["s"], "0.3"),
    ("fk_k5.json", ["samples"], 2.9),
    ("torus_1d_cosine.json", ["truncation"], 1.5),
    ("torus_1d_zero.json", ["tolerances", "monotone"], "false"),
    ("axioms_random10.json", ["conservative"], "no"),
    ("pnfb_p5.json", ["t_list"], {"values": [1.0, 0.5]}),
    ("pnfb_p5.json", ["t_list"], {"t0": 1.0, "ratio": 0.5, "points": 3}),
    ("graph_limit_k5.json", ["t_grid"], ["1.0", "0.5"]),
    ("torus_1d_zero.json", ["lengths"], [10 ** 400]),
    ("pnfb_p5.json", ["x"], float("inf")),
    ("adm_gaussian.json", ["profile", "A"], 10 ** 400),
    ("graph_limit_k5.json", ["name"], "../escaped"),
    ("graph_limit_k5.json", ["name"], "x" * 300),
    ("adm_gaussian.json", ["profile", "m"], "3"),
    ("adm_gaussian.json", ["profile", "m"], 2.5),
    ("adm_gaussian.json", ["profile", "m"], 10 ** 400),
    ("torus_1d_zero.json", ["potential"], {"coefficients": [{"k": "a"}]}),
    ("adm_gaussian.json", ["profile", "rule"],
     {"rule": "table", "values": ["1", "2"]}),
    ("graph_limit_k5.json", ["t_grid"], {"values": [1.0, 0.5]}),
    ("graph_limit_k5.json", ["t_grid"], {"t0": 1, "ratio": 0.5, "point": 3}),
]
# a key no kind reads: one misspelled key per kind, then the removed
# options at the values they used to take
KEY_MUTANTS = [
    ("graph_limit_k5.json", ["tolerances", "final_rel_err"], 1e-30),
    ("torus_1d_zero.json", ["truncaton"], 8),
    ("fk_k5.json", ["sed"], 3),
    ("pnfb_p5.json", ["tolerances", "final_minimum"], 0.5),
    ("axioms_random10.json", ["tolerances", "mas"], 1e-3),
    ("adm_gaussian.json", ["profile", "rule", "rat"], 1.0),
    ("axioms_random10.json", ["conservative"], True),
    ("adm_gaussian.json", ["window"], 16),
    ("torus_1d_zero.json", ["tolerances", "truncation_doubling"], 1e-6),
    # a potential object is exactly {"values": [...]} or {"constant": x}
    ("graph_limit_k5.json", ["potential", "constant"], 1.0),
    ("graph_limit_k5.json", ["potential", "scale"], 3.0),
]
MUTANTS = VALUE_MUTANTS + KEY_MUTANTS


DROP = object()


def _mutant(tmp_path, name, path, value, base=None):
    """A shipped config (or base, a copy of one) with one value replaced or
    dropped, next to a copy of the shipped graphs so its relative graph
    reference still resolves."""
    shutil.copytree(CONFIGS / "graphs", tmp_path / "graphs")
    doc = base or json.loads((CONFIGS / "acceptance" / name).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    (tmp_path / "configs").mkdir()
    return write_config(tmp_path / "configs" / name, doc)


@pytest.mark.parametrize("name,path,value", MUTANTS)
def test_malformed_value_exits_2(tmp_path, capsys, name, path, value):
    p = _mutant(tmp_path, name, path, value)
    assert cli.main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # nothing lands outside --out
    assert {f.name for f in tmp_path.iterdir()} <= {"graphs", "configs",
                                                    "out"}


# every third value mutant (the last is the misspelled t_grid key), the
# deleted {"values": [...]} t_grid form and a misspelled tolerance
@pytest.mark.parametrize("name,path,value", VALUE_MUTANTS[::3]
                         + VALUE_MUTANTS[-2:-1] + KEY_MUTANTS[:1])
def test_malformed_value_gets_suite_error_row(tmp_path, name, path, value):
    p = _mutant(tmp_path, name, path, value)
    for other in ("axioms_random10.json", "graph_limit_two_vertex.json"):
        if other != name:
            shutil.copy(CONFIGS / "acceptance" / other, p.parent)
    suite = run_suite(p.parent, tmp_path / "out")
    statuses = {r.name: r.status for r in suite.results}
    assert statuses.pop(p.stem) == "error"
    assert set(statuses.values()) == {"pass"}
    rows = suite.summary_path.read_text().splitlines()
    assert any(r.startswith(f"{p.stem},") and ",error," in r for r in rows)


# values that used to run: a non-finite torus constant wrote rows of nan or
# inf and failed as an assertion (exit 1); a bool or fractional vertex id
# was cast to vertex 1 and the pnfb run passed
UNCAST_MUTANTS = [
    ("torus_1d_zero.json", ["potential"], "constant:nan"),
    ("torus_1d_zero.json", ["potential"], "constant:inf"),
    ("torus_1d_zero.json", ["potential"], "constant:-1e999"),
    ("pnfb_p5.json", ["x"], True),
    ("pnfb_p5.json", ["K"], [0, 1.7, 2]),
]


@pytest.mark.parametrize("name,path,value", UNCAST_MUTANTS)
def test_uncast_value_exits_2_and_gets_suite_error_row(tmp_path, capsys, name,
                                                       path, value):
    p = _mutant(tmp_path, name, path, value)
    out = tmp_path / "out"
    assert cli.main(["run", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())
    shutil.copy(CONFIGS / "acceptance" / "graph_limit_two_vertex.json",
                p.parent)
    suite = run_suite(p.parent, tmp_path / "suite")
    assert {r.name: r.status for r in suite.results} == {
        p.stem: "error", "graph_limit_two_vertex": "pass"}


@pytest.mark.parametrize("name,path,value", KEY_MUTANTS)
def test_unknown_key_error_names_it(tmp_path, capsys, name, path, value):
    # refused before anything runs: an ignored key would leave its default
    # in place, and a misspelled tolerance would fail or pass by that
    p = _mutant(tmp_path, name, path, value)
    assert cli.main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown ") and err.count("\n") == 1
    assert repr(path[-1]) in err


@pytest.mark.parametrize("key", ["window", "k_maxx"])
def test_check_admissibility_refuses_unknown_profile_key(tmp_path, capsys,
                                                         key):
    doc = json.loads((CONFIGS / "profiles" / "gaussian_decay.json")
                     .read_text())
    p = write_config(tmp_path / "prof.json", dict(doc, **{key: 16}))
    assert cli.main(["check-admissibility", str(p),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown profile keys") and repr(key) in err
    assert err.count("\n") == 1


def _key_paths(doc, prefix=()):
    for key, value in sorted(doc.items()):
        if key != "kind":
            yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


# one config per kind; MC sample counts cut to 200 to bound the run time
PROPERTY_CONFIGS = ["graph_limit_k5.json", "torus_1d_zero.json",
                    "fk_two_vertex.json", "pnfb_p5.json",
                    "axioms_random10.json", "adm_gaussian.json"]
BAD_VALUES = ["abc", float("nan"), float("inf"), -1, -1.5, 0, None, [], {},
              [1.0, -1.0], True, DROP]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_mutant_keeps_exit_contract(tmp_path_factory, data):
    name = data.draw(st.sampled_from(PROPERTY_CONFIGS))
    doc = json.loads((CONFIGS / "acceptance" / name).read_text())
    if "samples" in doc:
        doc["samples"] = 200
    path = data.draw(st.sampled_from(list(_key_paths(doc))))
    value = data.draw(st.sampled_from(BAD_VALUES))
    tmp_path = tmp_path_factory.mktemp("mutant")
    p = _mutant(tmp_path, name, path, value, base=doc)
    # any exception escaping main would be a traceback on the console
    code = cli.main(["suite", str(p.parent), "--out", str(tmp_path / "out")])
    assert code in (0, 1, 2)
    rows = (tmp_path / "out" / "suite_summary.csv").read_text().splitlines()
    assert len(rows) == 2


# flag texts: small and edge-case numbers, and arbitrary text; each flag
# also draws from its own valid values, thread counts far above the CPUs'
FLAG_TEXT = st.one_of(
    st.integers(min_value=-3, max_value=12).map(str),
    st.floats().map(repr),
    st.sampled_from(["", " 3 ", "1_0", "0x10", "1e3", "-0", "+inf", "2.",
                     "1e-320", "٣", "99999999999999999999"]),
    st.text(max_size=8))
VALID_FLAG_TEXT = {
    "--t": st.floats(min_value=1e-6, max_value=5.0).map(repr),
    "--samples": st.integers(min_value=1, max_value=300).map(str),
    "--threads": st.integers(min_value=1, max_value=10**6).map(str),
    "--seed": st.integers(min_value=0, max_value=2**70).map(str)}
TWO_VERTEX_GRAPH = str(CONFIGS / "graphs" / "two_vertex.graph")
SAMPLE_MODES = {"free": ["--x", "0"], "bridge": ["--x", "0", "--y", "1"],
                "fk-trace": ["--potential=0.5,-1"],
                "pnfb": ["--x", "0", "--K", "0,1"]}


def _affordable(flag, text):
    """Whether a value the flag may accept keeps the run short: a sample
    count or a time (about t jumps per path on the two-vertex graph) too
    large would run for minutes, not fail."""
    try:
        if flag == "--samples":
            return int(text) <= 300
        if flag == "--t":
            return not float(text) > 5.0
    except ValueError:
        pass
    return True


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_property_cli_flags_keep_exit_contract(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("flags")
    if data.draw(st.booleans()):
        cfg = write_config(tmp_path / "fk.json", {
            "kind": "fk-crosscheck", "graph": "fixture:two_vertex",
            "potential": [0.0, 2.0], "t": 1.0, "samples": 200, "seed": 5,
            "tolerances": {"k_sigma": 3.0, "max_rel_se": 0.2}})
        argv, required = ["run", str(cfg)], []
    else:
        mode = data.draw(st.sampled_from(sorted(SAMPLE_MODES)))
        argv = ["sample-paths", "--graph", TWO_VERTEX_GRAPH, "--mode", mode,
                *SAMPLE_MODES[mode]]
        required = ["--t", "--samples"]
    for flag in required + ["--threads", "--seed"]:
        if flag in required or data.draw(st.booleans()):
            text = data.draw(st.one_of(
                VALID_FLAG_TEXT[flag],
                FLAG_TEXT.filter(lambda v, flag=flag: _affordable(flag, v))),
                label=flag)
            argv.append(f"{flag}={text}")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        # any exception escaping main fails the test: it would print a
        # traceback on the console
        code = _exit_code(argv + ["--out", str(tmp_path / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# ----------------------------------------------------------- process start


@pytest.fixture(scope="module")
def start_modules():
    """sys.modules of a fresh process after ``import heatlab, heatlab.cli``,
    what every heatlab process imports before it runs a command."""
    src = str(Path(hl.__file__).resolve().parents[1])
    probe = ("import sys, heatlab, heatlab.cli; "
             "print('\\n'.join(sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    return set(done.stdout.split())


@pytest.mark.parametrize("module", [
    "concurrent.futures",  # the pool: the first parallel_map that starts one
    "numpy.fft",           # the first torus coefficient table
    "numpy.random",        # the samplers; it maps OpenSSL through secrets
    "hashlib",             # the graph cache key is the content, not a hash
    "_hashlib",            # OpenSSL itself
])
def test_start_path_does_not_import(start_modules, module):
    assert module not in start_modules
