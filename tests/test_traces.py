"""Schrodinger traces, the small-time scan and the trace inequality."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import heatlab as hl
from heatlab import experiments, kernels
from heatlab.errors import (AssertionFailed, EmptyGrid, InputError,
                            NonpositiveTime)
from heatlab.kernels import uniformized_exponential
from heatlab.traces import (as_potential, assemble_report, semiclassical_scan,
                            trace_semigroup)
from heatlab.util import default_time_grid, write_csv


def test_operator_matrix_two_vertex(two_vertex):
    # H + diag(0, 2) = [[1, -1], [-1, 3]] has eigenvalues 2 -+ sqrt(2)
    for t in (0.4, 1.3):
        expected = (math.exp(-t * (2 - math.sqrt(2)))
                    + math.exp(-t * (2 + math.sqrt(2))))
        assert trace_semigroup(two_vertex, [0.0, 2.0], t) == pytest.approx(
            expected, abs=1e-13)


def test_trace_against_expm_oracle():
    # independent route: scipy expm of the non-symmetric generator + diag(w)
    g = hl.random_connected_graph(8, 21)
    rng = np.random.default_rng(3)
    w = rng.uniform(-1.0, 2.0, size=g.n)
    for t in (0.3, 1.0):
        ref = float(np.trace(expm(-t * (g.generator_matrix() + np.diag(w)))))
        assert trace_semigroup(g, w, t) == pytest.approx(ref, rel=1e-11)


def test_trace_zero_potential_is_heat_trace(two_vertex):
    # eigenvalues {0, 2}
    t = 0.9
    assert trace_semigroup(two_vertex, 0.0, t) == pytest.approx(
        1 + math.exp(-2 * t), abs=1e-13)


def test_as_potential_coercions(two_vertex):
    assert np.array_equal(as_potential(1.5, 2), [1.5, 1.5])
    assert np.array_equal(as_potential([1, 2], 2), [1.0, 2.0])
    pot = as_potential(np.array([0.0, -1.0]), 2)
    assert pot.dtype == float and np.array_equal(as_potential(pot, 2), pot)
    with pytest.raises(InputError):
        as_potential([[1.0, 2.0]], 2)
    with pytest.raises(InputError):
        as_potential(np.inf, 2)
    with pytest.raises(InputError):
        as_potential([1.0], 2)
    with pytest.raises(InputError):
        as_potential([np.nan, 0.0], 2)
    with pytest.raises(InputError):
        as_potential(["a", 0.0], 2)
    with pytest.raises(InputError):
        as_potential("a", 2)


# ---------------------------------------------------------------- the scan


def test_scan_two_vertex_limit(two_vertex):
    grid = 2.0 ** -np.arange(11)
    rep = semiclassical_scan(two_vertex, [0.0, 2.0], grid)
    target = 1 + math.exp(-2)
    assert rep.target == pytest.approx(target, abs=1e-14)
    assert rep.final_error <= 0.01 * target
    assert rep.tail_monotone()
    assert rep.verdict == "pass"
    # leading error constant: sum of degree-weighted Boltzmann factors
    slope = rep.abs_errors[-1] / grid[-1]
    assert slope == pytest.approx(1 + math.exp(-2), rel=0.05)


def test_scan_respects_weighted_measure():
    # the on-diagonal limit density is 1/mu, so the target is
    # sum_x e^{-w(x)}; independent of mu
    g = hl.WeightedGraph([0.5, 2.0], [(0, 1, 1.0)])
    rep = semiclassical_scan(g, [1.0, 0.0], 2.0 ** -np.arange(12))
    assert rep.target == pytest.approx(1 + math.exp(-1), abs=1e-14)
    assert rep.final_error <= 0.01 * rep.target


def test_scan_requires_decreasing_grid(two_vertex):
    with pytest.raises(InputError):
        semiclassical_scan(two_vertex, 0.0, [0.1, 0.5])
    with pytest.raises(EmptyGrid):
        semiclassical_scan(two_vertex, 0.0, [])


def test_scan_rows_dominated_by_bound(p5):
    rep = semiclassical_scan(p5, [1.0, -0.5, 0.0, 0.5, 2.0],
                             2.0 ** -np.arange(8))
    assert np.all(rep.gt_bounds >= rep.scaled_traces - 1e-10)


@pytest.mark.parametrize("ratio,shared", [(0.5, True), (1 / 3, False)],
                         ids=["ratio-half", "ratio-third"])
def test_scan_rhs_matches_per_time_diagonals(monkeypatch, ratio, shared):
    # ratio 1/2 puts every grid time down to Lambda t <= 1 on one squaring
    # chain; under ratio 1/3 no two times share a step, so each sums its
    # own series
    g = hl.random_connected_graph(25, 4)
    w = np.linspace(-1.0, 2.0, g.n)
    grid = default_time_grid(ratio=ratio)
    calls = []
    poisson_series = kernels._poisson_series

    def counted(r, pmf, *buffers):
        calls.append(len(pmf))
        return poisson_series(r, pmf, *buffers)

    monkeypatch.setattr(kernels, "_poisson_series", counted)
    rep = semiclassical_scan(g, w, grid)
    monkeypatch.undo()
    assert len(calls) < grid.size if shared else len(calls) == grid.size
    h = g.generator_matrix()
    for t, got in zip(grid, rep.gt_bounds):
        diag = np.diag(uniformized_exponential(h, t)[0]) / g.mu
        assert got == pytest.approx(
            float(np.sum(diag * np.exp(-w) * g.mu)), rel=1e-14, abs=0)


def test_report_serialization(tmp_path, two_vertex):
    rep = semiclassical_scan(two_vertex, [0.0, 2.0], [1.0, 0.5, 0.25])
    a = write_csv(tmp_path / "a.csv", rep.header, rep.rows()).read_bytes()
    b = write_csv(tmp_path / "b.csv", rep.header, rep.rows()).read_bytes()
    assert a == b
    assert a.splitlines()[0] == b"t,scaled_trace,target,abs_error,gt_rhs"
    doc = rep.to_dict()
    assert doc["verdict"] in ("pass", "fail")
    assert len(doc["scaled_traces"]) == 3


def test_report_owns_the_trace_inequality():
    # a scaled trace above its bound fails the report's third check, and
    # the verdict with it
    scaled = [2.0, 1.5, 1.25]
    rep = assemble_report([1.0, 0.5, 0.25], scaled, 1.0, [2.0, 1.5, 1.2],
                          0.5, 3)
    assert [name for name, _, _ in rep.checks] == [
        "final_rel_error", "monotone_tail", "trace_inequality"]
    assert [ok for _, ok, _ in rep.checks] == [True, True, False]
    assert "exceeds its bound by 0.05" in rep.checks[2][2]
    assert rep.verdict == rep.to_dict()["verdict"] == "fail"
    # within 1e-10 relative of the bound it holds
    rep = assemble_report([1.0, 0.5, 0.25], scaled, 1.0,
                          [2.0, 1.5, 1.25 * (1 - 5e-11)], 0.5, 3)
    assert rep.checks[2][1] and rep.verdict == "pass"


def test_sidecar_verdict_agrees_with_a_failed_trace_inequality(
        tmp_path, monkeypatch):
    scan = semiclassical_scan

    def over_bound(*args, **kwargs):
        rep = scan(*args, **kwargs)
        rep.gt_bounds = rep.scaled_traces * 0.5
        return rep

    monkeypatch.setattr(experiments, "semiclassical_scan", over_bound)
    doc = {"kind": "graph-limit", "name": "gt", "graph": "fixture:two_vertex",
           "potential": [0.0, 2.0]}
    with pytest.raises(AssertionFailed, match="^trace_inequality:"):
        experiments.run(experiments.ExperimentConfig.from_doc(
            doc, tmp_path, "gt", "trace inequality test"), tmp_path)
    assert json.loads((tmp_path / "gt.json").read_text())["verdict"] == "fail"


def test_monotone_slack_absorbs_noise_floor():
    from heatlab.traces import assemble_report

    errors_flat = 5.0 + np.array([1e-13, -1e-13, 1e-13, 0.0, -1e-13])
    rep = assemble_report([1.0, 0.5, 0.25, 0.125, 0.0625], errors_flat,
                          5.0, np.full(5, 10.0), 0.5, 5)
    assert rep.tail_monotone()


# ------------------------------------------------------- trace inequality


def golden_thompson_sides(graph, w, t):
    """Both sides of tr e^{-t(H + w/t)} <= sum_x p(t,x,x) e^{-w(x)} mu(x):
    the row of a one-point semiclassical_scan. Equality holds exactly for
    constant w, where both sides reduce to e^{-c} * tr e^{-tH}."""
    report = semiclassical_scan(graph, w, [t])
    return float(report.scaled_traces[0]), float(report.gt_bounds[0])


def test_equality_for_constant_potential(two_vertex):
    lhs, rhs = golden_thompson_sides(two_vertex, 1.3, 0.7)
    assert abs(lhs - rhs) <= 1e-12
    # both reduce to e^{-c} tr e^{-tH}
    assert lhs == pytest.approx(
        math.exp(-1.3) * (1 + math.exp(-1.4)), abs=1e-12)


@pytest.mark.parametrize("t", [0.0, -1.0, float("nan")])
def test_trace_inequality_rejects_invalid_time(two_vertex, t):
    # the one-point grid is refused, and so is the time of the trace alone
    with pytest.raises(InputError):
        golden_thompson_sides(two_vertex, [0.0, 2.0], t)
    with pytest.raises(NonpositiveTime):
        trace_semigroup(two_vertex, [0.0, 2.0], t)


def test_strict_inequality_for_varying_potential(two_vertex):
    lhs, rhs = golden_thompson_sides(two_vertex, [0.0, 2.0], 0.7)
    assert lhs < rhs


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000),
       t=st.floats(min_value=0.05, max_value=3.0),
       wseed=st.integers(min_value=0, max_value=1000))
def test_property_trace_inequality(seed, t, wseed):
    g = hl.random_connected_graph(6, seed)
    w = np.random.default_rng(wseed).uniform(-1.5, 2.5, size=g.n)
    lhs, rhs = golden_thompson_sides(g, w, t)
    assert lhs <= rhs + 1e-10 * max(1.0, abs(rhs))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000),
       t=st.floats(min_value=0.1, max_value=2.0))
def test_property_trace_positive_and_bounded(seed, t):
    g = hl.random_connected_graph(5, seed)
    w = np.random.default_rng(seed + 1).uniform(0.0, 2.0, size=g.n)
    val = trace_semigroup(g, w, t)
    assert 0 < val <= g.n  # nonnegative potential keeps every term <= 1
