"""The LAPACK wrappers against routes that share no symmetric eigensolver.

Oracles: closed-form spectra, numpy's general (nonsymmetric) eigenvalue
driver on a matrix similar to the symmetric one, and traces from scipy's
expm.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import heatlab as hl
from heatlab import cli, linalg
from heatlab.errors import EigensolverNoConvergence, InputError
from heatlab.graphs import WeightedGraph

ROOT = Path(__file__).resolve().parents[1]


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2


def residual(a, w, v) -> float:
    """max_i ||A v_i - w_i v_i||_2."""
    r = a @ v - v * w[None, :]
    return float(np.sqrt((r * r).sum(axis=0)).max())


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (3, 2), (5, 3), (8, 4),
                                    (13, 5), (21, 6), (30, 7)])
def test_matches_numpy_oracle(n, seed):
    # h = D^{-1/2} s D^{1/2} is similar to the symmetric s but not itself
    # symmetric; numpy's general driver (Hessenberg QR) finds its spectrum
    # without any symmetric solver
    s = random_symmetric(n, seed)
    mu = np.random.default_rng(seed + 100).uniform(0.5, 2.0, size=n)
    root = np.sqrt(mu)
    h = s * (root[None, :] / root[:, None])
    w_ref = np.sort(np.linalg.eigvals(h).real)
    w, v = linalg.symmetric_eigh(s)
    scale = max(1.0, float(np.linalg.norm(s, 2)))
    assert np.max(np.abs(w - w_ref)) <= 1e-10 * scale
    assert np.max(np.abs(linalg.symmetric_eigvals(s) - w_ref)) <= 1e-10 * scale
    # residual contract: ||A v - v diag(w)|| <= 1e-9 ||A||
    assert residual(s, w, v) <= 1e-9 * scale
    # eigenvectors orthonormal
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10


def test_ascending_order():
    a = random_symmetric(12, 99)
    w, _ = linalg.symmetric_eigh(a)
    assert np.all(np.diff(w) >= 0)
    assert np.all(np.diff(linalg.symmetric_eigvals(a)) >= 0)


def test_diagonal_matrix_exact():
    d = np.diag([3.0, -1.0, 2.0])
    w, v = linalg.symmetric_eigh(d)
    assert np.allclose(w, [-1.0, 2.0, 3.0], atol=1e-14)
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-14)
    assert np.allclose(linalg.symmetric_eigvals(d), [-1.0, 2.0, 3.0],
                       atol=1e-14)


def test_two_by_two_closed_form():
    # [[1,-1],[-1,3]] has eigenvalues 2 -+ sqrt(2)
    a = np.array([[1.0, -1.0], [-1.0, 3.0]])
    w = linalg.symmetric_eigvals(a)
    assert w[0] == pytest.approx(2 - np.sqrt(2), abs=1e-12)
    assert w[1] == pytest.approx(2 + np.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 7, 16, 31])
def test_cycle_closed_form(n):
    g = WeightedGraph([1.0] * n, [(i, (i + 1) % n, 1.0) for i in range(n)])
    ref = np.sort(2 - 2 * np.cos(2 * np.pi * np.arange(n) / n))
    assert np.allclose(linalg.symmetric_eigvals(g.generator_matrix()), ref,
                       atol=1e-12)


@pytest.mark.parametrize("n", [2, 5, 9, 24])
def test_path_closed_form(n):
    ref = 2 - 2 * np.cos(np.pi * np.arange(n) / n)
    w = linalg.symmetric_eigvals(hl.path_graph(n).generator_matrix())
    assert np.allclose(w, ref, atol=1e-12)


def test_rejects_asymmetric():
    with pytest.raises(InputError):
        linalg.symmetric_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InputError):
        linalg.symmetric_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_refuses_complex_input():
    # [[1, i/2], [-i/2, 1]] has eigenvalues 1 -+ 1/2; a cast to float
    # would drop the imaginary parts and return [1, 1], so complex input is
    # refused, Hermitian or not, even with zero imaginary parts
    hermitian = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    for a in (hermitian, np.array([[1.0, 1j], [1j, 1.0]]),
              np.eye(3, dtype=complex)):
        with pytest.raises(InputError, match="complex"):
            linalg.symmetric_eigvals(a)
        with pytest.raises(InputError, match="complex"):
            linalg.symmetric_eigh(a)


def test_rejects_nonsquare():
    with pytest.raises(InputError):
        linalg.symmetric_eigh(np.zeros((2, 3)))
    with pytest.raises(InputError):
        linalg.symmetric_eigvals(np.zeros((2, 3)))


def _spectrum_gap(g) -> tuple[float, float]:
    """(max |spec S - spec H|, largest eigenvalue of H), after checking that
    S = M^{1/2} H M^{-1/2} is exactly symmetric; spec H comes from numpy's
    nonsymmetric driver."""
    s = g.symmetric_generator()
    assert np.array_equal(s, s.T)
    w_s = linalg.symmetric_eigvals(s)
    w_h = np.sort(np.linalg.eigvals(g.generator_matrix()).real)
    return float(np.max(np.abs(w_s - w_h))), float(w_h[-1])


def test_similarity_preserves_spectrum():
    gap, _ = _spectrum_gap(hl.random_connected_graph(9, 17))
    assert gap <= 1e-9
    # mu spread over twelve decades puts lambda_max near 1e3, so the bound
    # scales with it
    for g in (WeightedGraph([0.5, 2.0, 3.0, 0.25],
                            [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 4.0),
                             (0, 3, 0.125)]),
              WeightedGraph([1e6, 1.0, 1e-6], [(0, 1, 1.0), (1, 2, 1e-3)])):
        gap, top = _spectrum_gap(g)
        assert gap <= 1e-9 * max(1.0, top)


@pytest.mark.parametrize("seed", [3, 11])
def test_trace_matches_expm(seed):
    # sum_i e^{-t lambda_i} = tr expm(-t (S + diag(w))), S the symmetric form
    # of H
    g = hl.random_connected_graph(15, seed)
    w = np.random.default_rng(seed).uniform(-1.0, 3.0, size=g.n)
    s = g.symmetric_generator() + np.diag(w)
    lam = linalg.symmetric_eigvals(s)
    for t in (0.05, 0.5, 2.0):
        ref = float(np.trace(expm(-t * s)))
        assert float(np.sum(np.exp(-t * lam))) == pytest.approx(ref,
                                                                rel=1e-12)


def test_degenerate_spectrum():
    # complete graph on 5 vertices: eigenvalues {0, 5, 5, 5, 5} of H
    g = hl.complete_graph(5)
    w = linalg.symmetric_eigvals(g.generator_matrix())
    assert w[0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(w[1:], 5.0, atol=1e-10)


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_lapack_failure_is_no_convergence(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_convergence)
    monkeypatch.setattr(np.linalg, "eigh", _no_convergence)
    a = random_symmetric(4, 1)
    with pytest.raises(EigensolverNoConvergence):
        linalg.symmetric_eigvals(a)
    with pytest.raises(EigensolverNoConvergence):
        linalg.symmetric_eigh(a)


def _fk_trace_argv(tmp_path):
    gp = tmp_path / "g.graph"
    hl.save_graph(hl.two_vertex(), gp)
    return ["sample-paths", "--graph", str(gp), "--t", "1", "--samples",
            "10", "--mode", "fk-trace", "--out", str(tmp_path)]


def _torus_run_argv(tmp_path):
    # cosine-well is not diagonal in the plane-wave basis: dense eigvalsh
    config = ROOT / "configs" / "acceptance" / "torus_1d_cosine.json"
    return ["run", str(config), "--out", str(tmp_path)]


@pytest.mark.parametrize("argv", [_fk_trace_argv, _torus_run_argv],
                         ids=["sample-paths-fk-trace", "run-torus"])
def test_lapack_failure_exits_2_without_traceback(monkeypatch, tmp_path,
                                                  capsys, argv):
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_convergence)
    code = cli.main(argv(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "did not converge" in err
    assert "Traceback" not in err


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=16),
       seed=st.integers(min_value=0, max_value=10_000))
def test_property_eigensolver(n, seed):
    a = random_symmetric(n, seed)
    w, v = linalg.symmetric_eigh(a)
    scale = max(1.0, float(np.max(np.abs(a))) * n)
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(a @ v - v * w)) <= 1e-9 * scale
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-9
