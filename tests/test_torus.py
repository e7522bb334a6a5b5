"""Flat-torus spectral machinery: exact traces, Galerkin blocks, scans."""

import itertools
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import iv

from heatlab import cli, linalg, torus
from heatlab.errors import (ConfigError, InputError, NonpositiveTime,
                            TruncationNotConverged)
from heatlab.experiments import run_suite
from heatlab.torus import (TorusModel, TorusPotential, _real_basis_blocks,
                           _refuse_infeasible, check_truncation,
                           constant_potential, cosine_well, exact_heat_trace,
                           galerkin_schrodinger_trace, potential_from_spec,
                           potential_integral, torus_semiclassical_scan,
                           zero_potential)

TWO_PI = 2 * math.pi
ACCEPTANCE = Path(__file__).resolve().parents[1] / "configs" / "acceptance"
COSINE_TARGET = 2 * math.pi * math.exp(-1) * iv(0, 1.0)  # int e^{-(1-cos)}


def model_1d(truncation=8, potential=None, length=TWO_PI):
    return TorusModel(1, (length,), truncation,
                      potential or zero_potential())


# -------------------------------------------------------------- spectrum


def test_models_compare_by_their_fields_after_caching():
    # the memos are no fields: built arrays never enter ==
    a, b = (TorusModel(1, (1.0,), 4) for _ in range(2))
    for model in (a, b):
        model.lattice()
        model.eigenvalues()
    assert a == b
    assert a != a.with_truncation(5)
    assert "memo" not in repr(a)
    pot = cosine_well((1.0, 2.0))
    c, d = (TorusModel(2, (1.0, 2.0), 3, pot) for _ in range(2))
    c.coefficient_table()
    c.axis_models()
    d.lattice()
    assert c == d


def test_eigenvalues_unit_circle():
    ev = np.sort(model_1d().eigenvalues())
    assert np.allclose(ev[:5], [0.0, 1.0, 1.0, 4.0, 4.0], atol=1e-14)


def test_eigenvalues_scale_with_length():
    ev = np.sort(model_1d(length=math.pi).eigenvalues())
    # modes (2 pi k / L)^2 = (2k)^2
    assert np.allclose(ev[:3], [0.0, 4.0, 4.0], atol=1e-12)


def test_eigenvalues_2d_product():
    m = TorusModel(2, (TWO_PI, TWO_PI), 3, zero_potential())
    ev = np.sort(m.eigenvalues())
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
        galerkin_schrodinger_trace(model_1d(), t)


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
    # callable goes through quadrature coefficients and the eigensolver;
    # w/t at t = 0.5 is 2w, so e^{-t(H + w/t)} = e^{-w} e^{-tH}
    a = galerkin_schrodinger_trace(
        model_1d(potential=constant_potential(0.7)), 0.5)
    as_callable = TorusPotential(kind="callable",
                                 fn=lambda theta: np.full_like(theta, 0.7))
    b = galerkin_schrodinger_trace(model_1d(potential=as_callable), 0.5)
    assert a == pytest.approx(b, abs=1e-13)
    theta = galerkin_schrodinger_trace(model_1d(), 0.5)
    assert a == pytest.approx(math.exp(-0.7) * theta, abs=1e-13)


def test_shape_changing_potential_is_input_error():
    # an evaluator that does not return one value per quadrature point
    bad = TorusPotential(kind="callable", fn=lambda theta: np.zeros(3))
    with pytest.raises(InputError):
        model_1d(potential=bad).coefficient_table()


def dense_complex_trace(lengths, fn, n_tr, t, p):
    """Brute force: the complex Hermitian plane-wave matrix
    lambda_k delta_{kk'} + w_hat(k - k') / t, assembled entry by entry from
    numpy fft coefficients on a p^dim grid and diagonalized by numpy."""
    dim = len(lengths)
    grids = np.meshgrid(*[np.arange(p) * (L / p) for L in lengths],
                        indexing="ij")
    coef = np.fft.fftn(fn(*grids)) / p ** dim
    ks = np.array(list(itertools.product(range(-n_tr, n_tr + 1),
                                         repeat=dim)))
    freq = TWO_PI / np.asarray(lengths)
    mat = np.zeros((len(ks), len(ks)), dtype=complex)
    for i, k in enumerate(ks):
        for j, q in enumerate(ks):
            mat[i, j] = coef[tuple((k - q) % p)] / t
        mat[i, i] += np.sum((k * freq) ** 2)
    return float(np.sum(np.exp(-t * np.linalg.eigvalsh(mat))))


def wave(length):
    return lambda x: TWO_PI * np.asarray(x) / length


# (lengths, w, N, oracle grid, even): even callables, which take the two
# parity blocks, then ones with a nonzero odd part, which take the coupled
# matrix; in 2D, callables that are not a sum of per-axis terms
ORACLE_CASES = [
    ((TWO_PI,), lambda x: 1 - np.cos(x), 6, 512, True),
    ((5.0,), lambda x: np.exp(np.cos(wave(5.0)(x))), 10, 512, True),
    ((TWO_PI, 5.0), lambda x, y: (np.cos(x) * np.cos(wave(5.0)(y))
                                  + np.cos(x + wave(5.0)(y))), 4, 64, True),
    ((TWO_PI,), lambda x: np.sin(x) + np.exp(np.cos(x)), 6, 512, False),
    ((5.0,), lambda x: (np.sin(wave(5.0)(x)) + np.exp(np.cos(wave(5.0)(x)))
                        + 0.4 * np.sin(3 * wave(5.0)(x))), 10, 512, False),
    ((TWO_PI, 5.0), lambda x, y: (
        np.cos(x - wave(5.0)(y)) + 0.5 * np.sin(x + 2 * wave(5.0)(y))
        + 0.3 * np.exp(np.sin(x)) * np.cos(wave(5.0)(y))), 4, 64, False),
]


def test_galerkin_against_dense_oracle():
    # independent route: the complex plane-wave matrix by brute force,
    # against the real cos/sin-basis blocks the program diagonalizes
    for lengths, fn, n_tr, p, even in ORACLE_CASES:
        m = TorusModel(len(lengths), lengths, n_tr,
                       TorusPotential(kind="callable", fn=fn))
        assert np.isrealobj(m.coefficient_table()) == even
        order = (2 * n_tr + 1) ** len(lengths)
        for t in (1.0, 0.4, 0.1, 2.0 ** -8):
            blocks = _real_basis_blocks(m, t)
            assert [b.shape[0] for b in blocks] == (
                [(order + 1) // 2, (order - 1) // 2] if even else [order])
            ref = dense_complex_trace(lengths, fn, n_tr, t, p)
            assert galerkin_schrodinger_trace(m, t) == pytest.approx(
                ref, rel=1e-12), (lengths, n_tr, t)


@settings(max_examples=50, deadline=None)
@given(dim=st.integers(min_value=1, max_value=2),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       t=st.sampled_from([1.0, 0.1, 2.0 ** -8]),
       even=st.booleans())
def test_property_real_basis_trace_matches_complex_oracle(dim, seed, t, even):
    # a random real trigonometric polynomial, cos and (unless even) sin
    # terms on every frequency vector |j_i| <= 2 (non-separable in 2D); a
    # cos-only one is even bit for bit on the centered nodes, so its table
    # is real and two parity blocks are solved, else one coupled matrix
    rng = np.random.default_rng(seed)
    lengths = tuple(rng.uniform(3.0, 8.0, size=dim))
    freqs = list(itertools.product(range(-2, 3), repeat=dim))
    amp = rng.normal(scale=0.5, size=(len(freqs), 2))

    def fn(*coords):
        acc = 0.0
        for (a, b), j in zip(amp, freqs):
            phase = sum(ji * TWO_PI * np.asarray(c) / L
                        for ji, c, L in zip(j, coords, lengths))
            acc = acc + a * np.cos(phase)
            if not even:
                acc = acc + b * np.sin(phase)
        return acc

    n_tr = 5 if dim == 1 else 3
    m = TorusModel(dim, lengths, n_tr, TorusPotential(kind="callable", fn=fn))
    assert np.isrealobj(m.coefficient_table()) == even
    assert len(_real_basis_blocks(m, t)) == (2 if even else 1)
    ref = dense_complex_trace(lengths, fn, n_tr, t, 32)
    assert galerkin_schrodinger_trace(m, t) == pytest.approx(ref, rel=1e-11)


def test_real_basis_matrix_blocks_for_an_even_well():
    # 1 - cos x is even: its table is real, the cos and sin blocks come
    # apart, and each is tridiagonal with -1/(2t) off the diagonal
    # ([e_0, c_1] is -1/(sqrt 2 t))
    n_tr, t = 5, 0.25
    cc_got, ss_got = _real_basis_blocks(
        model_1d(n_tr, cosine_well((TWO_PI,))), t)
    assert cc_got.dtype == ss_got.dtype == np.float64
    assert cc_got.shape == (n_tr + 1,) * 2 and ss_got.shape == (n_tr,) * 2
    ks = np.arange(n_tr + 1)
    cc = np.diag(ks ** 2 + 1.0 / t) - 0.5 / t * (np.eye(n_tr + 1, k=1)
                                                 + np.eye(n_tr + 1, k=-1))
    cc[0, 1] = cc[1, 0] = -math.sqrt(0.5) / t
    assert np.allclose(cc_got, cc, atol=1e-13)
    ss = np.diag(ks[1:] ** 2 + 1.0 / t) - 0.5 / t * (np.eye(n_tr, k=1)
                                                     + np.eye(n_tr, k=-1))
    assert np.allclose(ss_got, ss, atol=1e-13)


# ------------------------------------------------------------ parity route


@pytest.mark.parametrize("lengths", [(TWO_PI,), (5.0,), (TWO_PI, 5.0),
                                     (TWO_PI, 5.0, 0.8 * TWO_PI)])
def test_cosine_well_samples_are_bitwise_even(lengths):
    # on the coefficient nodes j L / (4N+1), j = -2N..2N, the well's
    # samples equal their reversal along every axis, so its table is real
    well = cosine_well(lengths)
    n_tr, p = 6, 25
    nodes = np.arange(-2 * n_tr, 2 * n_tr + 1)
    vals = well.fn(*np.meshgrid(*[nodes * (L / p) for L in lengths],
                                indexing="ij"))
    assert np.array_equal(vals, np.flip(vals))
    table = TorusModel(len(lengths), lengths, n_tr, well).coefficient_table()
    assert table.dtype == np.float64


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


def test_cosine_scan_solves_each_matrix_once(monkeypatch):
    # the gate's N trace at grid[0] is row 0: a 9-point scan makes 10
    # Galerkin traces (N at each time, 2N once), each as two parity blocks
    orders, calls = [], []
    eigvals = linalg.symmetric_eigvals
    trace = torus.galerkin_schrodinger_trace

    def recorded(a):
        orders.append(np.shape(a)[0])
        return eigvals(a)

    def counted(*args, **kwargs):
        calls.append(args)
        return trace(*args, **kwargs)

    monkeypatch.setattr(linalg, "symmetric_eigvals", recorded)
    monkeypatch.setattr(torus, "galerkin_schrodinger_trace", counted)
    m = model_1d(truncation=64, potential=cosine_well((TWO_PI,)))
    rep = torus_semiclassical_scan(m, 2.0 ** -np.arange(9))
    assert rep.verdict == "pass"
    assert len(calls) == 10
    assert orders == [65, 64, 129, 128] + [65, 64] * 8


# ------------------------------------------------------ infeasible sizes


def test_doubled_size_cap_boundary():
    # 1D with a callable: the doubled coupled matrix has order 8N+1 ...
    well = cosine_well((TWO_PI,))
    _refuse_infeasible(model_1d(511, well))            # order 2045
    with pytest.raises(InputError):
        _refuse_infeasible(model_1d(512, well))        # order 2049
    # ... a potential with parts counts per axis, a zero one its lattice
    _refuse_infeasible(TorusModel(3, (TWO_PI,) * 3, 511,
                                  cosine_well((TWO_PI,) * 3)))
    _refuse_infeasible(TorusModel(3, (TWO_PI,) * 3, 40, zero_potential()))
    with pytest.raises(InputError):
        _refuse_infeasible(TorusModel(3, (TWO_PI,) * 3, 41, zero_potential()))
    # a 2D callable without parts: its doubled matrix has order (8N+1)^2
    cross = TorusPotential(kind="callable", fn=lambda x, y: np.cos(x + y))
    _refuse_infeasible(TorusModel(2, (TWO_PI,) * 2, 11, cross))
    with pytest.raises(InputError):
        _refuse_infeasible(TorusModel(2, (TWO_PI,) * 2, 12, cross))


@pytest.mark.parametrize("dim, potential", [
    (1, "cosine-well"), (2, "zero"), (3, "cosine-well"),
    (2, TorusPotential(kind="callable", fn=lambda x, y: np.cos(x - y)))])
def test_absurd_truncation_is_refused_before_building(monkeypatch, dim,
                                                      potential):
    def never(*args, **kwargs):
        raise AssertionError("built an array of the refused model")

    for name in ("lattice", "eigenvalues", "coefficient_table",
                 "evaluate_potential"):
        monkeypatch.setattr(TorusModel, name, never)
    lengths = (TWO_PI,) * dim
    if isinstance(potential, str):
        potential = potential_from_spec(potential, lengths)
    m = TorusModel(dim, lengths, 10 ** 12, potential)
    with pytest.raises(InputError):
        torus_semiclassical_scan(m, [1.0, 0.5])
    with pytest.raises(InputError):
        check_truncation(m, 1.0)


def test_absurd_truncation_config_exits_2(tmp_path, capsys):
    doc = {"kind": "torus-limit", "name": "huge", "dim": 2,
           "lengths": [TWO_PI, TWO_PI], "truncation": 1e9,
           "potential": "zero", "t_grid": [1.0, 0.5]}
    cfg = tmp_path / "configs" / "huge.json"
    cfg.parent.mkdir()
    cfg.write_text(json.dumps(doc))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # in a suite it is one error row; the other configs still run
    shutil.copy(ACCEPTANCE / "torus_1d_zero.json", cfg.parent)
    suite = run_suite(cfg.parent, tmp_path / "suite")
    assert {r.name: r.status for r in suite.results} == {
        "huge": "error", "torus_1d_zero": "pass"}


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
    return TorusPotential(kind="callable", fn=potential.fn)


def separable(parts):
    """A potential with parts: the sum of the given 1D potentials."""
    def fn(*coords):
        return sum(part.fn(c) for c, part in zip(coords, parts))
    return TorusPotential(kind="callable", fn=fn, parts=tuple(parts))


@pytest.mark.parametrize("dim", [2, 3])
def test_factored_integral_matches_grid_sum(dim):
    # the product of per-axis sums against the sum over the full grid of
    # the same nodes, for a well with an odd part on uneven sides
    lengths = (TWO_PI, 5.0, 0.8 * TWO_PI)[:dim]
    parts = [TorusPotential(kind="callable", fn=lambda x, L=L: (
        np.sin(wave(L)(x)) + np.exp(np.cos(wave(L)(x))))) for L in lengths]
    pot = separable(parts)
    factored = potential_integral(TorusModel(dim, lengths, 4, pot))
    grid = potential_integral(TorusModel(dim, lengths, 4, without_parts(pot)))
    assert factored == pytest.approx(grid, rel=1e-13)


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
