"""Flat torus spectral model: exact heat traces and Galerkin Schrodinger traces.

On the torus prod_i R/(L_i Z) the Laplacian eigenvalues are
lambda_k = sum_i (2 pi k_i / L_i)^2 over integer frequency vectors k, and
the heat trace factorizes into one-dimensional theta sums. A potential w
enters through its Fourier coefficients: in the orthonormal plane-wave
basis truncated to |k_i| <= N, the operator H + w/t becomes the Hermitian
matrix

    M[k, k'] = lambda_k delta_{kk'} + w_hat(k - k') / t,

with w_hat(q) the average-normalized coefficient (1/vol) int w e^{-i<q,.>}.
Coefficients are obtained by direct quadrature at 4N+1 points per axis,
which resolves every difference frequency |q_i| <= 2N without aliasing
ambiguity.

A potential that is a sum of one-dimensional potentials, one per axis (as
cosine_well is), carries those parts. Its M is then the Kronecker sum of
the one-dimensional Galerkin matrices, whose eigenvalues are the sums of
theirs, so in dim >= 2 the trace is the product of one-dimensional traces
on (L_i, N). That is exact, costs a (2N+1)-order eigensolve per axis, and
is how both the scan and the N -> 2N doubling gate evaluate it. Callables
without parts, and every 1D model, take the dense route above.

The semiclassical scan multiplies the Galerkin trace by (4 pi t)^{m/2} and
compares against the quadrature value of int e^{-w}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

from . import linalg
from .errors import ConfigError, InputError, TruncationNotConverged
from .traces import ConvergenceReport, assemble_report
from .util import check_time, check_time_grid, default_time_grid

_THETA_TERM_CUTOFF = 1e-16
# psi(t) = (4 pi t)^{m/2} is fixed by the space: H is the nonnegative
# Laplacian, whose kernel has p(t,x,x) (4 pi t)^{m/2} -> 1 as t -> 0+, so the
# scaled trace tends to int e^{-w}; a base c would give (c/4pi)^{m/2} times it
_SCALING_BASE = 4.0 * math.pi


# --------------------------------------------------------------- potential


@dataclass
class TorusPotential:
    """A real potential: zero, a constant, or a vectorized callable.

    A callable that is a sum of per-axis terms lists them in parts, one
    one-dimensional potential per axis.
    """

    kind: str                       # zero | constant | callable
    constant: float = 0.0
    fn: Callable | None = None
    label: str = ""
    parts: tuple | None = None

    @property
    def diagonal_only(self) -> bool:
        return self.kind in ("zero", "constant")


def zero_potential() -> TorusPotential:
    return TorusPotential(kind="zero", label="zero")


def constant_potential(c: float) -> TorusPotential:
    return TorusPotential(kind="constant", constant=float(c),
                          label=f"constant:{c}")


def cosine_well(lengths) -> TorusPotential:
    """w(theta) = sum_i (1 - cos(2 pi theta_i / L_i)): a single smooth well.

    Its parts are the one-dimensional wells, one per axis.
    """
    parts = tuple(TorusPotential(
        kind="callable", label="cosine-well",
        fn=lambda c, L=float(L): 1.0 - np.cos(2.0 * np.pi * np.asarray(c) / L))
        for L in lengths)

    def fn(*coords):
        acc = 0.0
        for c, part in zip(coords, parts):
            acc = acc + part.fn(c)
        return acc

    return TorusPotential(kind="callable", fn=fn, label="cosine-well",
                          parts=parts)


def potential_from_spec(spec, lengths) -> TorusPotential:
    """Parse a config potential: zero | constant:c | cosine-well."""
    if spec in (None, "zero"):
        return zero_potential()
    if isinstance(spec, str):
        if spec.startswith("constant:"):
            try:
                return constant_potential(float(spec.split(":", 1)[1]))
            except ValueError:
                raise ConfigError(f"bad constant potential {spec!r}") from None
        if spec == "cosine-well":
            return cosine_well(lengths)
    raise ConfigError(f"unknown potential spec {spec!r}")


# ------------------------------------------------------------------ model


@dataclass
class TorusModel:
    """Truncated spectral model of a flat torus with a potential."""

    dim: int
    lengths: tuple
    truncation: int
    potential: TorusPotential = field(default_factory=zero_potential)
    _lattice: np.ndarray | None = field(default=None, repr=False)
    _lambdas: np.ndarray | None = field(default=None, repr=False)
    _coeff: np.ndarray | None = field(default=None, repr=False)
    _axes: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        self.dim = int(self.dim)
        if self.dim < 1:
            raise InputError("dimension must be >= 1")
        self.lengths = tuple(float(L) for L in (
            self.lengths if np.iterable(self.lengths) else [self.lengths]))
        if len(self.lengths) != self.dim:
            raise InputError(f"{len(self.lengths)} lengths for dim {self.dim}")
        # a non-finite side would never end the theta sums
        if not all(0 < L < math.inf for L in self.lengths):
            raise InputError("side lengths must be positive and finite")
        self.truncation = int(self.truncation)
        if self.truncation < 1:
            raise InputError("truncation N must be >= 1")
        parts = self.potential.parts
        if parts is not None and len(parts) != self.dim:
            raise InputError(f"{len(parts)} potential parts for dim {self.dim}")

    def with_truncation(self, n: int) -> "TorusModel":
        return TorusModel(dim=self.dim, lengths=self.lengths, truncation=n,
                          potential=self.potential)

    def axis_models(self) -> tuple:
        """One 1D model per axis when dim >= 2 and the potential has parts."""
        if self._axes is None:
            parts = self.potential.parts
            self._axes = () if self.dim == 1 or parts is None else tuple(
                TorusModel(1, (L,), self.truncation, part)
                for L, part in zip(self.lengths, parts))
        return self._axes

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def lattice(self) -> np.ndarray:
        """Frequency vectors, shape (M, dim), lexicographic order."""
        if self._lattice is None:
            n = self.truncation
            self._lattice = np.array(
                list(product(range(-n, n + 1), repeat=self.dim)), dtype=np.int64)
        return self._lattice

    def eigenvalues(self) -> np.ndarray:
        if self._lambdas is None:
            k = self.lattice().astype(float)
            freq = 2.0 * np.pi / np.asarray(self.lengths)
            self._lambdas = ((k * freq[None, :]) ** 2).sum(axis=1)
        return self._lambdas

    # ------------------------------------------------------- coefficients

    def coefficient_table(self) -> np.ndarray:
        """w_hat(q) on the difference band |q_i| <= 2N, shape (4N+1,)^dim."""
        if self._coeff is None:
            n2 = 2 * self.truncation
            p = 4 * self.truncation + 1
            shape = (p,) * self.dim
            pot = self.potential
            if pot.diagonal_only:
                table = np.zeros(shape, dtype=complex)
                table[(n2,) * self.dim] = pot.constant
            else:
                table = self._quadrature_coefficients(p)
            table.setflags(write=False)
            self._coeff = table
        return self._coeff

    def _quadrature_coefficients(self, p: int) -> np.ndarray:
        grids = np.meshgrid(*[np.arange(p) * (L / p) for L in self.lengths],
                            indexing="ij")
        vals = np.asarray(self.potential.fn(*grids), dtype=float)
        if vals.shape != (p,) * self.dim:
            raise ValueError("potential evaluator must preserve grid shape")
        out = vals.astype(complex)
        q = np.arange(-(p // 2), p // 2 + 1)
        j = np.arange(p)
        for axis in range(self.dim):
            dft = np.exp(-2j * np.pi * np.outer(q, j) / p) / p
            out = np.moveaxis(np.tensordot(dft, out, axes=(1, axis)), 0, axis)
        return out

    def evaluate_potential(self, resolution: int) -> np.ndarray:
        """Sample w on a uniform grid (used by the quadrature target)."""
        pot = self.potential
        if pot.diagonal_only:
            return np.full((resolution,) * self.dim, pot.constant)
        grids = np.meshgrid(*[np.arange(resolution) * (L / resolution)
                              for L in self.lengths], indexing="ij")
        return np.asarray(pot.fn(*grids), dtype=float)


# ------------------------------------------------------------- operations


def torus_eigenvalues(model: TorusModel) -> np.ndarray:
    """Sorted Laplacian eigenvalues of the truncated lattice."""
    return np.sort(model.eigenvalues())


def exact_heat_trace(model: TorusModel, t: float) -> float:
    """Theta-function heat trace sum_k e^{-t lambda_k} (no truncation).

    Separates into a product of one-dimensional theta sums; each sum is
    truncated when its terms fall below 1e-16.
    """
    check_time(t)
    total = 1.0
    for L in model.lengths:
        base = t * (2.0 * np.pi / L) ** 2
        s = 1.0
        k = 1
        while True:
            term = 2.0 * math.exp(-base * k * k)
            if term < _THETA_TERM_CUTOFF:
                break
            s += term
            k += 1
        total *= s
    return total


def galerkin_trace(model: TorusModel, t: float,
                   potential_scale: float = 1.0) -> float:
    """sum_i e^{-t eig_i(M)} with M = diag(lambda) + potential_scale * W.

    A model with axis models takes the product of their traces: M is the
    Kronecker sum of their matrices.
    """
    check_time(t)
    axes = model.axis_models()
    if axes:
        return math.prod(galerkin_trace(axis, t, potential_scale)
                         for axis in axes)
    lam = model.eigenvalues()
    if model.potential.diagonal_only:
        eigs = lam + model.potential.constant * potential_scale
    else:
        table = model.coefficient_table().reshape(-1)
        k = model.lattice()
        n2 = 2 * model.truncation
        width = 4 * model.truncation + 1
        idx = np.zeros((k.shape[0], k.shape[0]), dtype=np.int64)
        for axis in range(model.dim):
            diff = k[:, None, axis] - k[None, :, axis] + n2
            idx = idx * width + diff
        mat = table[idx] * potential_scale
        mat[np.diag_indices_from(mat)] += lam
        eigs = linalg.symmetric_eigvals(mat)
    return float(np.sum(np.exp(-t * np.sort(eigs))[::-1]))


def galerkin_schrodinger_trace(model: TorusModel, t: float) -> float:
    """tr e^{-t(H + w/t)} in the truncated plane-wave basis."""
    return galerkin_trace(model, t, potential_scale=1.0 / t)


def check_truncation(model: TorusModel, t: float,
                     rel_tol: float = 1e-6) -> float:
    """Doubling diagnostic: N -> 2N must move the trace by < rel_tol.

    Evaluated at a reference time where the change measures how well the
    potential's coefficients are resolved. Raises TruncationNotConverged.
    """
    base = galerkin_schrodinger_trace(model, t)
    doubled = galerkin_schrodinger_trace(model.with_truncation(
        2 * model.truncation), t)
    change = abs(doubled - base)
    if change > rel_tol * max(abs(base), 1e-300):
        raise TruncationNotConverged(
            f"N = {model.truncation} -> {2 * model.truncation} moves the "
            f"trace by {change / abs(base):.3e} (limit {rel_tol})")
    return change / abs(base)


def potential_integral(model: TorusModel) -> float:
    """Quadrature value of int e^{-w} over the torus (the scan target).

    Uniform-grid quadrature on the periodic domain (4096, 512^2 or 64^3
    points); spectrally accurate for the smooth potentials used here.
    Independent of the Galerkin machinery.
    """
    resolution = 4096 if model.dim == 1 else 512 if model.dim == 2 else 64
    vals = model.evaluate_potential(resolution)
    cell = model.volume / resolution ** model.dim
    return float(np.sum(np.exp(-vals)) * cell)


def torus_semiclassical_scan(model: TorusModel, t_grid=None,
                             final_rel_tol: float = 0.01,
                             monotone_tail: int = 5,
                             require_monotone: bool = True,
                             check_rel_tol: float = 1e-6
                             ) -> ConvergenceReport:
    """(4 pi t)^{m/2} * tr e^{-t(H + w/t)} against int e^{-w}.

    The doubling diagnostic runs once at the largest grid time. Each row
    carries the trace-inequality bound (scaling) * (theta(t)/vol) * int e^{-w},
    which dominates the scaled trace.
    """
    grid = check_time_grid(default_time_grid() if t_grid is None else t_grid)
    check_truncation(model, float(grid[0]), rel_tol=check_rel_tol)
    target = potential_integral(model)
    vol = model.volume
    half_m = 0.5 * model.dim
    scaled = np.empty(grid.size)
    bounds = np.empty(grid.size)
    for i, t in enumerate(grid):
        t = float(t)
        scale = (_SCALING_BASE * t) ** half_m
        scaled[i] = scale * galerkin_schrodinger_trace(model, t)
        bounds[i] = scale * (exact_heat_trace(model, t) / vol) * target
    return assemble_report(grid, scaled, target, bounds,
                           final_rel_tol, monotone_tail, require_monotone)
