"""Flat torus spectral model: exact heat traces and Galerkin Schrodinger traces.

On the torus prod_i R/(L_i Z) the Laplacian eigenvalues are
lambda_k = sum_i (2 pi k_i / L_i)^2 over integer frequency vectors k, and
the heat trace factorizes into one-dimensional theta sums. A potential w
enters through its Fourier coefficients w_hat(q), the average-normalized
(1/vol) int w e^{-i<q,.>}. Truncated to |k_i| <= N, the operator H + w/t
has the plane-wave matrix lambda_k delta_{kk'} + w_hat(k - k') / t.

w is real, so that operator is real, and the Galerkin trace diagonalizes it
in the real Fourier basis e_0, c_k = (e_k + e_{-k}) / sqrt 2 and
s_k = (e_k - e_{-k}) / (i sqrt 2), for the lattice vectors k > 0 in
lexicographic order. The change of basis is unitary, so the spectrum is the
plane-wave one; the matrix is real symmetric, with a(q) = w_hat(q) / t:

    [e_0, e_0] = a(0)
    [e_0, c_l] = sqrt 2 Re a(l)       [e_0, s_l] = -sqrt 2 Im a(l)
    [c_k, c_l] = lambda_k delta_kl + Re a(k - l) + Re a(k + l)
    [s_k, s_l] = lambda_k delta_kl + Re a(k - l) - Re a(k + l)
    [c_k, s_l] = Im a(k - l) - Im a(k + l)

Coefficients are the periodic trapezoidal quadrature at 4N+1 points per
axis, taken by one FFT; that resolves every difference and sum frequency
|q_i| <= 2N without aliasing ambiguity. The nodes are centered,
j L_i / (4N+1) for j = -2N..2N (mod L_i the usual ones), so x -> -x maps
the node set onto itself. When the samples equal their reversal along
every axis bit for bit, the potential is even on the nodes, its quadrature
coefficients are real, and the table keeps only the real part of the FFT.
That check is exact and every potential a config can name passes it.

With a real table the [c_k, s_l] block is zero, so the matrix splits into
C on e_0 and the c_k (order (M+1)/2 for M lattice vectors) and S on the
s_k (order (M-1)/2), solved apart. Tridiagonalization costs ~4n^3/3 flops,
so the two half-order solves cost about a quarter of one full solve. Only
samples that are not exactly even (a callable with an odd part) take the
coupled matrix.

A potential that is a sum of one-dimensional potentials, one per axis (as
cosine_well is), carries those parts. Its operator is then the Kronecker
sum of the one-dimensional ones, whose eigenvalues are the sums of theirs,
so in dim >= 2 the trace is the product of one-dimensional traces on
(L_i, N). That is exact, costs a (2N+1)-order eigensolve per axis, and is
how both the scan and the N -> 2N doubling gate evaluate it. Callables
without parts, and every 1D model, take the matrix above.

The semiclassical scan multiplies galerkin_schrodinger_trace by
(4 pi t)^{m/2} and compares against the quadrature value of int e^{-w},
which for a potential with parts is the product of its per-axis integrals.
It first runs the doubling gate at its largest time: N -> 2N must move the
trace by less than 1e-6 relative.

A model's lattice, eigenvalues, coefficient table and axis models are
util.once memos in its _memo Cache, which is no field: == never reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import linalg
from .errors import ConfigError, InputError, TruncationNotConverged
from .traces import ConvergenceReport, assemble_report
from .util import Cache, check_time, check_time_grid, default_time_grid, once

_THETA_TERM_CUTOFF = 1e-16
# the N -> 2N doubling gate: the largest relative change of the trace
_DOUBLING_REL_TOL = 1e-6
# the most entries the largest array of the doubled (2N) model may hold
_MAX_DOUBLED_ENTRIES = 2 ** 22
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
    parts: tuple | None = None

    @property
    def diagonal_only(self) -> bool:
        return self.kind in ("zero", "constant")


def zero_potential() -> TorusPotential:
    return TorusPotential(kind="zero")


def constant_potential(c: float) -> TorusPotential:
    return TorusPotential(kind="constant", constant=float(c))


def cosine_well(lengths) -> TorusPotential:
    """w(theta) = sum_i (1 - cos(2 pi theta_i / L_i)): a single smooth well.

    Its parts are the one-dimensional wells, one per axis.
    """
    parts = tuple(TorusPotential(
        kind="callable",
        fn=lambda c, L=float(L): 1.0 - np.cos(2.0 * np.pi * np.asarray(c) / L))
        for L in lengths)

    def fn(*coords):
        acc = 0.0
        for c, part in zip(coords, parts):
            acc = acc + part.fn(c)
        return acc

    return TorusPotential(kind="callable", fn=fn, parts=parts)


def potential_from_spec(spec, lengths) -> TorusPotential:
    """Parse a config potential: zero | constant:c (c finite) | cosine-well."""
    if spec in (None, "zero"):
        return zero_potential()
    if isinstance(spec, str):
        if spec.startswith("constant:"):
            try:
                c = float(spec.split(":", 1)[1])
            except ValueError:
                c = math.nan
            if not math.isfinite(c):
                raise ConfigError(f"bad constant potential {spec!r}")
            return constant_potential(c)
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
        self._memo = Cache()

    def with_truncation(self, n: int) -> "TorusModel":
        return replace(self, truncation=n)

    @once
    def axis_models(self) -> tuple:
        """One 1D model per axis when dim >= 2 and the potential has parts."""
        parts = self.potential.parts
        return () if self.dim == 1 or parts is None else tuple(
            TorusModel(1, (L,), self.truncation, part)
            for L, part in zip(self.lengths, parts))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @once
    def lattice(self) -> np.ndarray:
        """Frequency vectors, shape (M, dim), lexicographic order."""
        side = np.arange(-self.truncation, self.truncation + 1,
                         dtype=np.int64)
        axes = np.meshgrid(*[side] * self.dim, indexing="ij")
        return np.stack(axes, axis=-1).reshape(-1, self.dim)

    @once
    def eigenvalues(self) -> np.ndarray:
        k = self.lattice().astype(float)
        freq = 2.0 * np.pi / np.asarray(self.lengths)
        return ((k * freq[None, :]) ** 2).sum(axis=1)

    # ------------------------------------------------------- coefficients

    @once
    def coefficient_table(self) -> np.ndarray:
        """w_hat(q) for |q_i| <= 2N, shape (4N+1,)^dim: every sum and
        difference of two lattice vectors. Real (float) when the potential
        is even on the quadrature nodes, complex otherwise.

        Only a callable potential has one: galerkin_schrodinger_trace takes
        a zero or constant potential on the diagonal.
        """
        table = self._quadrature_coefficients(4 * self.truncation + 1)
        table.setflags(write=False)
        return table

    def _quadrature_coefficients(self, p: int) -> np.ndarray:
        """Trapezoidal w_hat(q), |q_i| <= p // 2, on p centered nodes per axis.

        The nodes are j L_i / p for j = -(p // 2) .. p // 2 (p is odd), the
        same set mod L_i as j = 0 .. p - 1, so the quadrature rule is
        unchanged; ifftshift moves j = 0 to the front for the FFT. Under
        x -> -x the nodes map onto themselves, so an even potential's
        samples equal their reversal along every axis, bit for bit. When
        they do, the exact coefficients are real and the FFT's imaginary
        parts are rounding: the table is the real part, the quadrature of
        an even function. Any other samples keep the complex table.
        """
        # deferred: numpy.fft costs every process start, and only a torus
        # run with a callable potential needs it
        import numpy.fft

        nodes = np.arange(-(p // 2), p // 2 + 1)
        grids = np.meshgrid(*[nodes * (L / p) for L in self.lengths],
                            indexing="ij")
        vals = np.asarray(self.potential.fn(*grids), dtype=float)
        if vals.shape != (p,) * self.dim:
            raise InputError("potential evaluator must preserve grid shape")
        # fftn puts frequency q at q mod p; for odd p, fftshift orders them
        # -(p // 2) .. p // 2
        table = numpy.fft.fftshift(numpy.fft.fftn(
            numpy.fft.ifftshift(vals))) / p ** self.dim
        if np.array_equal(vals, np.flip(vals)):
            return np.ascontiguousarray(table.real)
        return table

    def evaluate_potential(self, resolution: int) -> np.ndarray:
        """Sample w on a uniform grid (used by the quadrature target)."""
        pot = self.potential
        if pot.diagonal_only:
            return np.full((resolution,) * self.dim, pot.constant)
        grids = np.meshgrid(*[np.arange(resolution) * (L / resolution)
                              for L in self.lengths], indexing="ij")
        return np.asarray(pot.fn(*grids), dtype=float)


# ------------------------------------------------------------- operations


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


def galerkin_schrodinger_trace(model: TorusModel, t: float) -> float:
    """tr e^{-t(H + w/t)} in the truncated Fourier basis:
    sum_i e^{-t eig_i(M)}, with M the real cos/sin-basis matrix.

    A model with axis models takes the product of their traces: the
    operator is the Kronecker sum of theirs.
    """
    check_time(t)
    return _galerkin_trace(model, t)


def _galerkin_trace(model: TorusModel, t: float) -> float:
    """galerkin_schrodinger_trace of a model or, recursively, of its axes."""
    axes = model.axis_models()
    if axes:
        return math.prod(_galerkin_trace(axis, t) for axis in axes)
    if model.potential.diagonal_only:
        eigs = model.eigenvalues() + model.potential.constant * (1.0 / t)
    else:
        eigs = np.concatenate([linalg.symmetric_eigvals(block)
                               for block in _real_basis_blocks(model, t)])
    return float(np.sum(np.exp(-t * np.sort(eigs))[::-1]))


def _real_basis_blocks(model: TorusModel, t: float) -> tuple:
    """H + w/t in the basis e_0, c_k, s_k (k > 0) as real symmetric
    diagonal blocks: (C, S) for a real coefficient table, where [c_k, s_l]
    vanishes, else the one coupled matrix [[C, CS], [CS^T, S]].

    The lattice is lexicographic, so k = 0 is its middle vector and the
    positive k follow it. Rows and columns of e_0 are gathered as if it
    were c_0, which doubles them, and then scaled by 1/sqrt 2.
    """
    table = model.coefficient_table().reshape(-1)
    lattice = model.lattice()
    mid = lattice.shape[0] // 2
    half = lattice[mid:]                          # k = 0, then every k > 0
    n2 = 2 * model.truncation
    width = 4 * model.truncation + 1
    minus = np.zeros((half.shape[0],) * 2, dtype=np.int64)
    plus = np.zeros_like(minus)
    for axis in range(model.dim):
        k = half[:, axis]
        minus = minus * width + (k[:, None] - k[None, :] + n2)
        plus = plus * width + (k[:, None] + k[None, :] + n2)
    a_minus = table.take(minus) / t
    a_plus = table.take(plus) / t
    cc = a_minus.real + a_plus.real
    ss = a_minus.real[1:, 1:] - a_plus.real[1:, 1:]
    cc[0] *= math.sqrt(0.5)
    cc[:, 0] *= math.sqrt(0.5)
    lam = model.eigenvalues()[mid:]
    cc[np.diag_indices_from(cc)] += lam
    ss[np.diag_indices_from(ss)] += lam[1:]
    if np.isrealobj(table):
        return cc, ss
    cs = a_minus.imag[:, 1:] - a_plus.imag[:, 1:]
    cs[0] *= math.sqrt(0.5)
    return (np.block([[cc, cs], [cs.T, ss]]),)


def check_truncation(model: TorusModel, t: float, *,
                     trace: float | None = None) -> float:
    """Doubling diagnostic: N -> 2N must move the trace by less than
    _DOUBLING_REL_TOL relative.

    Evaluated at a reference time where the change measures how well the
    potential's coefficients are resolved. trace, when given, is the
    caller's galerkin_schrodinger_trace(model, t), not solved again.
    Raises TruncationNotConverged, or InputError (before anything is
    built) when the doubled model's largest array would exceed 2^22
    entries: its (4N+1)^dim lattice for a zero or constant potential, else
    its coupled real-basis matrix, of order (4N+1)^dim, or 4N+1 per axis
    for a potential with parts.
    """
    _refuse_infeasible(model)
    base = galerkin_schrodinger_trace(model, t) if trace is None else trace
    doubled = galerkin_schrodinger_trace(model.with_truncation(
        2 * model.truncation), t)
    change = abs(doubled - base)
    # guarded: a trace can underflow to 0 (a large constant potential)
    scale = max(abs(base), 1e-300)
    if change > _DOUBLING_REL_TOL * scale:
        raise TruncationNotConverged(
            f"N = {model.truncation} -> {2 * model.truncation} moves the "
            f"trace by {change / scale:.3e} (limit {_DOUBLING_REL_TOL})")
    return change / scale


def _refuse_infeasible(model: TorusModel) -> None:
    """InputError when the doubled model would build an array of more than
    _MAX_DOUBLED_ENTRIES entries (see check_truncation)."""
    side = 4 * model.truncation + 1
    if model.potential.diagonal_only:
        entries = side ** model.dim
    elif model.axis_models():
        entries = side ** 2
    else:
        entries = side ** (2 * model.dim)
    if entries > _MAX_DOUBLED_ENTRIES:
        raise InputError(
            f"truncation N = {model.truncation} in dim {model.dim}: the "
            f"N -> 2N check would build an array of {entries:.3g} entries "
            f"(limit {_MAX_DOUBLED_ENTRIES})")


def potential_integral(model: TorusModel) -> float:
    """Quadrature value of int e^{-w} over the torus (the scan target).

    Uniform-grid quadrature on the periodic domain (4096, 512^2 or 64^3
    nodes); spectrally accurate for the smooth potentials used here.
    A potential with parts in dim >= 2 has e^{-w} = prod_i e^{-w_i}, so its
    grid sum is the product of per-axis sums on the same nodes, and that
    product is what is computed. Independent of the Galerkin machinery.
    """
    resolution = 4096 if model.dim == 1 else 512 if model.dim == 2 else 64
    axes = model.axis_models()
    if axes:
        return math.prod(_grid_integral(axis, resolution) for axis in axes)
    return _grid_integral(model, resolution)


def _grid_integral(model: TorusModel, resolution: int) -> float:
    vals = model.evaluate_potential(resolution)
    cell = model.volume / resolution ** model.dim
    return float(np.sum(np.exp(-vals)) * cell)


def torus_semiclassical_scan(model: TorusModel, t_grid=None,
                             final_rel_tol: float = 0.01,
                             monotone_tail: int = 5,
                             require_monotone: bool = True
                             ) -> ConvergenceReport:
    """(4 pi t)^{m/2} * tr e^{-t(H + w/t)} against int e^{-w}.

    The doubling diagnostic runs once at the largest grid time, and its N
    trace there is the first row's; a model too large for it (see
    check_truncation) is refused before anything is built. Each row
    carries the trace-inequality bound (scaling) * (theta(t)/vol) * int e^{-w},
    which dominates the scaled trace.
    """
    grid = check_time_grid(default_time_grid() if t_grid is None else t_grid)
    _refuse_infeasible(model)
    # the gate's N trace at grid[0] is the first row's
    first = galerkin_schrodinger_trace(model, float(grid[0]))
    check_truncation(model, float(grid[0]), trace=first)
    target = potential_integral(model)
    vol = model.volume
    half_m = 0.5 * model.dim
    scaled = np.empty(grid.size)
    bounds = np.empty(grid.size)
    for i, t in enumerate(grid):
        t = float(t)
        scale = (_SCALING_BASE * t) ** half_m
        trace = first if i == 0 else galerkin_schrodinger_trace(model, t)
        scaled[i] = scale * trace
        bounds[i] = scale * (exact_heat_trace(model, t) / vol) * target
    return assemble_report(grid, scaled, target, bounds,
                           final_rel_tol, monotone_tail, require_monotone)
