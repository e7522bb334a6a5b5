"""Flat-torus spectral machinery: exact traces, Galerkin blocks, scans."""

import json
import math

import numpy as np
import pytest
from scipy.special import iv

from heatlab import cli
from heatlab.errors import (ConfigError, InputError, NonpositiveTime,
                            TruncationNotConverged)
from heatlab.torus import (TorusModel, TorusPotential, constant_potential,
                           cosine_well, exact_heat_trace,
                           galerkin_schrodinger_trace, galerkin_trace,
                           potential_from_spec, potential_integral,
                           torus_eigenvalues, torus_semiclassical_scan,
                           zero_potential)

TWO_PI = 2 * math.pi
COSINE_TARGET = 2 * math.pi * math.exp(-1) * iv(0, 1.0)  # int e^{-(1-cos)}


def model_1d(truncation=8, potential=None, length=TWO_PI):
    return TorusModel(1, (length,), truncation,
                      potential or zero_potential())


# -------------------------------------------------------------- spectrum


def test_eigenvalues_unit_circle():
    ev = torus_eigenvalues(model_1d())
    assert np.allclose(ev[:5], [0.0, 1.0, 1.0, 4.0, 4.0], atol=1e-14)


def test_eigenvalues_scale_with_length():
    ev = torus_eigenvalues(model_1d(length=math.pi))
    # modes (2 pi k / L)^2 = (2k)^2
    assert np.allclose(ev[:3], [0.0, 4.0, 4.0], atol=1e-12)


def test_eigenvalues_2d_product():
    m = TorusModel(2, (TWO_PI, TWO_PI), 3, zero_potential())
    ev = torus_eigenvalues(m)
    assert ev[0] == 0.0
    assert np.allclose(ev[1:5], 1.0, atol=1e-14)   # (+-1,0), (0,+-1)


# ------------------------------------------------------------ exact trace


def test_theta_trace_against_lattice_sum():
    m = model_1d()
    for t in (0.2, 1.0, 3.0):
        direct = sum(math.exp(-t * k * k) for k in range(-3000, 3001))
        assert exact_heat_trace(m, t) == pytest.approx(direct, rel=1e-13)


def test_theta_trace_reference_value():
    assert exact_heat_trace(model_1d(), 1.0) == pytest.approx(
        1.772637204826652, abs=1e-12)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), 0.0])
def test_traces_reject_invalid_time(t):
    # a nan time never lets the theta sum reach its cutoff
    with pytest.raises(NonpositiveTime):
        exact_heat_trace(model_1d(), t)
    with pytest.raises(NonpositiveTime):
        galerkin_trace(model_1d(), t)


def test_theta_trace_factorizes():
    m2 = TorusModel(2, (TWO_PI, TWO_PI), 4, zero_potential())
    one = exact_heat_trace(model_1d(), 0.8)
    assert exact_heat_trace(m2, 0.8) == pytest.approx(one * one, rel=1e-13)


def test_theta_small_time_asymptotics():
    # theta(t) ~ sqrt(pi / t) * L / (2 pi) for small t
    m = model_1d()
    t = 1e-4
    assert exact_heat_trace(m, t) == pytest.approx(math.sqrt(math.pi / t),
                                                   rel=1e-10)


# ------------------------------------------------------------ coefficients


def test_cosine_well_coefficients():
    m = model_1d(potential=cosine_well((TWO_PI,)))
    tab = m.coefficient_table()
    center = tab.shape[0] // 2
    assert tab[center].real == pytest.approx(1.0, abs=1e-12)
    assert tab[center + 1].real == pytest.approx(-0.5, abs=1e-12)
    assert tab[center - 1].real == pytest.approx(-0.5, abs=1e-12)
    assert np.max(np.abs(tab.imag)) <= 1e-12
    others = np.abs(tab.real)
    others[center - 1:center + 2] = 0.0
    assert np.max(others) <= 1e-12


def test_constant_matches_coefficient_route():
    # the diagonal shortcut against the dense route: the same constant as a
    # callable goes through quadrature coefficients and the eigensolver
    a = galerkin_trace(model_1d(potential=constant_potential(0.7)), 0.5)
    as_callable = TorusPotential(kind="callable",
                                 fn=lambda theta: np.full_like(theta, 0.7))
    b = galerkin_trace(model_1d(potential=as_callable), 0.5)
    assert a == pytest.approx(b, abs=1e-13)
    theta = galerkin_trace(model_1d(), 0.5)
    assert a == pytest.approx(math.exp(-0.5 * 0.7) * theta, abs=1e-13)


def test_galerkin_against_dense_oracle():
    # independent route: assemble the truncated block by brute force with
    # numpy fft coefficients and diagonalize with numpy
    n_tr = 6
    m = model_1d(truncation=n_tr, potential=cosine_well((TWO_PI,)))
    t = 0.4
    p = 512
    theta = np.arange(p) * TWO_PI / p
    samples = 1 - np.cos(theta)
    coef = np.fft.fft(samples) / p
    ks = np.arange(-n_tr, n_tr + 1)
    mat = np.zeros((ks.size, ks.size), dtype=complex)
    for i, k in enumerate(ks):
        for j, q in enumerate(ks):
            mat[i, j] = coef[(k - q) % p] / t
            if i == j:
                mat[i, j] += k * k
    lam = np.linalg.eigvalsh(mat)
    ref = float(np.sum(np.exp(-t * lam)))
    assert galerkin_schrodinger_trace(m, t) == pytest.approx(ref, rel=1e-12)


# ------------------------------------------------------------- the targets


def test_potential_integral_cosine():
    m = model_1d(truncation=16, potential=cosine_well((TWO_PI,)))
    assert potential_integral(m) == pytest.approx(COSINE_TARGET, rel=1e-12)


def test_potential_integral_zero_is_volume():
    assert potential_integral(model_1d()) == pytest.approx(TWO_PI, rel=1e-13)
    m2 = TorusModel(2, (TWO_PI, math.pi), 4, zero_potential())
    assert potential_integral(m2) == pytest.approx(TWO_PI * math.pi,
                                                   rel=1e-13)


def test_scan_1d_zero_hits_circumference():
    m = model_1d(truncation=64)
    rep = torus_semiclassical_scan(m, 2.0 ** -np.arange(11),
                                   final_rel_tol=0.005,
                                   require_monotone=False)
    assert rep.target == pytest.approx(TWO_PI, rel=1e-12)
    assert rep.verdict == "pass"
    assert rep.final_error <= 0.005 * TWO_PI


def test_scan_1d_cosine_monotone():
    m = model_1d(truncation=64, potential=cosine_well((TWO_PI,)))
    rep = torus_semiclassical_scan(m, 2.0 ** -np.arange(9))
    assert rep.target == pytest.approx(COSINE_TARGET, rel=1e-12)
    assert rep.verdict == "pass"
    assert rep.tail_monotone()


def test_scan_rows_dominated_by_theta_bound():
    m = model_1d(truncation=32, potential=cosine_well((TWO_PI,)))
    rep = torus_semiclassical_scan(m, 2.0 ** -np.arange(6))
    assert np.all(rep.gt_bounds >= rep.scaled_traces - 1e-10)


def test_truncation_doubling_gate():
    # N = 4 at t = 0.01 misses most of the short-time heat trace
    m = model_1d(truncation=4)
    with pytest.raises(TruncationNotConverged):
        torus_semiclassical_scan(m, [0.01])


# --------------------------------------------------------------- parsing


def test_potential_from_spec_forms():
    assert potential_from_spec("zero", [TWO_PI]).kind == "zero"
    p = potential_from_spec("constant:0.25", [TWO_PI])
    assert p.kind == "constant"
    assert potential_from_spec("cosine-well", [TWO_PI]).kind == "callable"


def test_potential_from_spec_rejects_unknown():
    with pytest.raises(ConfigError):
        potential_from_spec("sombrero", [TWO_PI])
    with pytest.raises(ConfigError):
        potential_from_spec({"what": 1}, [TWO_PI])
    # Fourier-coefficient documents are not a potential format
    doc = {"coefficients": [{"k": [0], "re": 1.0, "im": 0.0},
                            {"k": [1], "re": -0.5, "im": 0.0},
                            {"k": [-1], "re": -0.5, "im": 0.0}]}
    with pytest.raises(ConfigError):
        potential_from_spec(doc, [TWO_PI])


def test_model_validation():
    with pytest.raises(InputError):
        TorusModel(1, (TWO_PI,), 0, zero_potential())
    with pytest.raises(InputError):
        TorusModel(2, (TWO_PI,), 4, zero_potential())  # length count
    with pytest.raises(InputError):
        TorusModel(1, (-1.0,), 4, zero_potential())
    with pytest.raises(InputError):
        TorusModel(3, (TWO_PI,) * 3, 4, cosine_well((TWO_PI,) * 2))


# ------------------------------------------------------- separable traces


def without_parts(potential):
    """The same callable, which only the dense route can evaluate."""
    return TorusPotential(kind="callable", fn=potential.fn,
                          label=potential.label)


@pytest.mark.parametrize("dim, n_tr", [(2, 4), (2, 8), (3, 4)])
@pytest.mark.parametrize("t", [1.0, 0.05])
def test_factored_trace_matches_dense_route(dim, n_tr, t):
    lengths = (TWO_PI, 5.0, 0.8 * TWO_PI)[:dim]
    well = cosine_well(lengths)
    factored = galerkin_schrodinger_trace(
        TorusModel(dim, lengths, n_tr, well), t)
    dense = galerkin_schrodinger_trace(
        TorusModel(dim, lengths, n_tr, without_parts(well)), t)
    assert factored == pytest.approx(dense, rel=1e-11)


def test_torus_3d_run_is_the_product_of_1d_traces(tmp_path):
    # the N -> 2N gate at N = 8 would need a dense matrix of order 33^3
    lengths = [TWO_PI, TWO_PI, 5.0]
    doc = {"kind": "torus-limit", "name": "torus_3d_cosine", "dim": 3,
           "lengths": lengths, "truncation": 8, "potential": "cosine-well",
           "t_grid": {"t0": 1.0, "ratio": 0.5, "points": 4},
           "tolerances": {"final_rel_error": 0.02}}
    cfg = tmp_path / "torus_3d_cosine.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "torus_3d_cosine.csv").read_text().split()
    for line in lines[1:]:
        t, scaled = (float(v) for v in line.split(",")[:2])
        traces = [galerkin_schrodinger_trace(TorusModel(
            1, (L,), 8, without_parts(cosine_well((L,)))), t)
            for L in lengths]
        assert scaled == pytest.approx(
            (4 * math.pi * t) ** 1.5 * math.prod(traces), rel=1e-12)
    # the gate runs: at N = 2 doubling still moves the trace
    doc["truncation"] = 2
    cfg.write_text(json.dumps(doc))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out2")]) == 1
