"""Acceptance gates: one test per criterion, budgets and tolerances pinned.

Each test prints through the conftest summary hook as a single
"ACCEPTANCE <n> PASS|FAIL" line. Tolerances here are contractual; loosening
them is not a fix.
"""

import math
import time
from pathlib import Path

import numpy as np

from heatlab import experiments
from heatlab.kernels import Exhaustion, heat_semigroup, minimal_heat_kernel, \
    verify_axioms
from heatlab.paths import feynman_kac_trace_mc, no_jump_lower_bound, \
    pnfb_probability, stay_probability_exact
from heatlab.potential_class import (GrowthProfile, constant_rule,
                                     quadratic_growth_rule,
                                     ricci_admissibility)
from heatlab.torus import (TorusModel, cosine_well,
                           galerkin_schrodinger_trace, potential_integral,
                           zero_potential)
from heatlab.traces import semiclassical_scan, trace_semigroup
from heatlab.util import default_time_grid

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs" / "acceptance"

# 2 pi e^{-1} I_0(1): closed form of int_0^{2pi} e^{-(1 - cos s)} ds
COSINE_TARGET = 2.9264539231100914

TWO_PI = 2.0 * math.pi


def golden_thompson_sides(graph, w, t):
    """Both sides of tr e^{-t(H + w/t)} <= sum_x p(t,x,x) e^{-w(x)} mu(x):
    the row of a one-point semiclassical_scan."""
    report = semiclassical_scan(graph, w, [t])
    return float(report.scaled_traces[0]), float(report.gt_bounds[0])


def test_criterion_1_graph_semiclassical_limit(registry):
    start = time.monotonic()
    grid = default_time_grid(points=11)           # 2^0 .. 2^-10
    for name, (graph, w) in registry.items():
        report = semiclassical_scan(graph, w, grid, final_rel_tol=0.01,
                                    monotone_tail=5)
        budget = 0.01 * abs(report.target)
        assert report.final_error <= budget, \
            f"{name}: final error {report.final_error} > 1% of target"
        assert report.tail_monotone(), \
            f"{name}: error sequence rises over the last 5 grid points"
        assert report.verdict == "pass", name
    assert time.monotonic() - start < 5.0


def test_criterion_2_kernel_axioms(registry):
    start = time.monotonic()
    for name, (graph, _) in registry.items():
        rep = verify_axioms(heat_semigroup(graph, 0.5),
                            heat_semigroup(graph, 0.7),
                            heat_semigroup(graph, 1.2),
                            ck_tol=1e-10, sym_tol=1e-12, mass_tol=1e-12)
        assert rep.chapman_kolmogorov_defect <= 1e-10, name
        assert rep.symmetry_defect <= 1e-12, name
        assert rep.mass_excess <= 1e-12, name
        assert rep.mass_deficit <= 1e-12, name      # finite, conservative
        assert rep.passed, name
    assert time.monotonic() - start < 1.0


def test_criterion_3_trace_inequality_sweep(registry):
    start = time.monotonic()
    t_values = default_time_grid(points=10)       # 2^0 .. 2^-9
    rng = np.random.default_rng(33)
    for name, (graph, _) in registry.items():
        draws = rng.uniform(-1.0, 3.0, size=(10, graph.n))
        for w in draws:
            for t in t_values:
                lhs, rhs = golden_thompson_sides(graph, w, float(t))
                assert lhs <= rhs + 1e-10, \
                    f"{name}: lhs {lhs} > rhs {rhs} at t={t}"
        for c in (-1.0, 0.0, 1.7):
            for t in (1.0, 0.25):
                lhs, rhs = golden_thompson_sides(graph, c, t)
                assert abs(lhs - rhs) <= 1e-12, \
                    f"{name}: constant w={c} gap {abs(lhs - rhs)}"
    assert time.monotonic() - start < 2.0


def test_criterion_4_feynman_kac_against_eigentrace(registry):
    start = time.monotonic()
    t, n, seed = 1.0, 100_000, 20240815
    for name in ("two_vertex", "p5", "k5"):      # all fixtures <= 6 vertices
        graph, w = registry[name]
        exact = trace_semigroup(graph, w, t)
        est = feynman_kac_trace_mc(graph, w, t, n, seed)
        assert abs(est.mean - exact) <= 3.0 * est.std_error, \
            f"{name}: estimate {est.mean} vs exact {exact}, " \
            f"se {est.std_error}"
        assert est.std_error < 0.01 * abs(exact), \
            f"{name}: se {est.std_error} not below 1% of {exact}"
    assert time.monotonic() - start < 30.0


def test_criterion_5_boundary_blindness(p5):
    start = time.monotonic()
    x, subset, n, base_seed = 2, [1, 2, 3], 100_000, 99
    t_values = [1.0, 0.5, 0.1, 0.01]
    means = []
    for i, t in enumerate(t_values):
        est = pnfb_probability(p5, x, subset, t, n, base_seed + i)
        bound = no_jump_lower_bound(p5, x, t)
        exact = stay_probability_exact(p5, x, subset, t)
        assert est.mean >= bound - 3.0 * est.std_error, \
            f"t={t}: estimate {est.mean} under bound {bound}"
        # the 1/n term is the rule-of-three floor for an all-stay draw,
        # where the empirical standard error is degenerately zero
        assert abs(est.mean - exact) <= 3.0 * (est.std_error + 1.0 / n), \
            f"t={t}: estimate {est.mean} vs exact ratio {exact}"
        means.append(est.mean)
    assert all(b >= a - 1e-12 for a, b in zip(means, means[1:])), \
        f"estimates {means} not nondecreasing as t shrinks"
    assert means[-1] >= 0.99
    assert time.monotonic() - start < 20.0


def test_criterion_6_torus_limits():
    start = time.monotonic()

    circle = (TWO_PI,)
    cosine = TorusModel(dim=1, lengths=circle, truncation=64,
                        potential=cosine_well(circle))
    target = potential_integral(cosine)
    assert abs(target - COSINE_TARGET) <= 1e-10
    t = 1e-3
    val = math.sqrt(4.0 * math.pi * t) * galerkin_schrodinger_trace(cosine, t)
    assert abs(val - target) <= 0.01 * target, \
        f"cosine well: {val} vs {target}"

    flat = TorusModel(dim=1, lengths=circle, truncation=64,
                      potential=zero_potential())
    val = math.sqrt(4.0 * math.pi * t) * galerkin_schrodinger_trace(flat, t)
    assert abs(val - TWO_PI) <= 0.005 * TWO_PI, f"1d flat: {val} vs 2pi"

    flat2 = TorusModel(dim=2, lengths=(TWO_PI, TWO_PI), truncation=24,
                       potential=zero_potential())
    t2 = 2.0 ** -5
    val = (4.0 * math.pi * t2) * galerkin_schrodinger_trace(flat2, t2)
    target2 = 4.0 * math.pi ** 2
    assert abs(val - target2) <= 0.01 * target2, f"2d flat: {val}"
    assert time.monotonic() - start < 60.0


def test_criterion_7_admissibility_verdicts():
    start = time.monotonic()
    for k_max in (400, 800):                     # stable under doubling
        flat = GrowthProfile(m=2, a=1.0, c_values=constant_rule(1.0),
                             k_max=k_max)
        assert ricci_admissibility(flat).verdict == "inadmissible", k_max
    for k_max in (200, 400):
        gauss = GrowthProfile(m=2, a=1.0,
                              c_values=quadratic_growth_rule(1.0),
                              k_max=k_max)
        assert ricci_admissibility(gauss).verdict == "admissible", k_max
    assert time.monotonic() - start < 1.0


def test_criterion_8_exhaustion_monotone(registry):
    start = time.monotonic()
    graph, _ = registry["random10"]
    ex = Exhaustion([[0, 1, 2, 3], [0, 1, 2, 3, 4, 5, 6], list(range(10))])
    t, x, y = 0.7, 0, 1
    seq = minimal_heat_kernel(graph, ex, t, x, y)
    assert np.all(np.diff(seq.values) >= -1e-15), \
        f"killed kernels not nondecreasing: {seq.values}"
    full = heat_semigroup(graph, t).values[x, y]
    assert abs(seq.values[-1] - full) <= 1e-10, \
        f"final {seq.values[-1]} vs full kernel {full}"
    assert time.monotonic() - start < 1.0


def test_criterion_9_suite_deterministic(tmp_path):
    first = experiments.run_suite(CONFIG_DIR, tmp_path / "run1")
    assert first.exit_code == 0
    for r in first.results:
        assert r.status == "pass", f"{r.name}: {r.detail}"
    second = experiments.run_suite(CONFIG_DIR, tmp_path / "run2")
    assert second.exit_code == 0
    files1 = sorted(p.name for p in (tmp_path / "run1").iterdir())
    files2 = sorted(p.name for p in (tmp_path / "run2").iterdir())
    assert files1 == files2 and files1
    for name in files1:
        b1 = (tmp_path / "run1" / name).read_bytes()
        b2 = (tmp_path / "run2" / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"
