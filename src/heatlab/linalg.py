"""Dense real-symmetric eigenvalues through LAPACK (numpy's eigvalsh / eigh).

Graph traces (on S + diag(w), with S the graph's symmetric_generator) and
torus Galerkin traces (in the real cos/sin basis) go through these wrappers,
which check that the input is a square, real, symmetric matrix and turn a
LAPACK convergence failure into EigensolverNoConvergence. They build no
operator: graphs.py and torus.py build the matrices. The routes their
results are held against share no symmetric eigensolver: the uniformization
series, Monte Carlo over jump paths, and (in the tests) closed-form spectra,
numpy's nonsymmetric driver, scipy's matrix exponential and a complex
plane-wave Galerkin matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import EigensolverNoConvergence, InputError


def _checked_symmetric(a) -> np.ndarray:
    """a as a square real-symmetric float array.

    Complex input is refused, not cast: a cast would drop the imaginary
    parts of a Hermitian matrix and return another spectrum.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise InputError("expected a real symmetric matrix, got a complex one")
    a = a.astype(float, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    sym_gap = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if sym_gap > 1e-10 * max(scale, 1.0):
        raise InputError(f"matrix is not symmetric (defect {sym_gap:.3e})")
    return a


def symmetric_eigh(a):
    """(w, v): ascending eigenvalues and orthonormal eigenvector columns."""
    try:
        return np.linalg.eigh(_checked_symmetric(a))
    except np.linalg.LinAlgError as exc:
        raise EigensolverNoConvergence(f"eigh: {exc}") from None


def symmetric_eigvals(a) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric matrix, no vectors."""
    try:
        return np.linalg.eigvalsh(_checked_symmetric(a))
    except np.linalg.LinAlgError as exc:
        raise EigensolverNoConvergence(f"eigvalsh: {exc}") from None

