"""Schrodinger operators H + w on weighted graphs and their heat traces.

The form sum H(w) = H + diag(w) is symmetric in the mu-inner product; the
similarity transform S = D^{1/2} (H + diag(w)) D^{-1/2} with D = diag(mu)
makes it plainly symmetric, and tr e^{-tH(w)} = sum_i e^{-t lambda_i(S)}.
Eigenvalues come from LAPACK through linalg.symmetric_eigvals; the trace
inequality's right-hand side comes from the uniformized kernel instead, so
each scan row carries a second route that shares no eigensolver.

The semiclassical scan follows psi(t) * tr e^{-t(H + w/t)} down a decreasing
time grid; on graphs the control pair is psi = 1 with on-diagonal limit
density 1/mu, so the target is sum_x e^{-w(x)}. Each grid point also carries
the trace-inequality bound psi(t) * sum_x p(t,x,x) e^{-w(x)} mu(x), which
dominates the scaled trace, with equality exactly for constant w.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import linalg
from .graphs import WeightedGraph
from .kernels import heat_semigroup
from .util import check_time, check_time_grid, default_time_grid, write_csv


@dataclass
class Potential:
    """A finite real potential on the vertex set."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("potential must be one-dimensional")
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential must be finite on all vertices")
        self.values = vals

    def __len__(self):
        return len(self.values)


def as_potential(w, n: int) -> Potential:
    """Coerce an array, scalar, or Potential to length n."""
    if isinstance(w, Potential):
        pot = w
    elif np.isscalar(w):
        pot = Potential(np.full(n, float(w)))
    else:
        pot = Potential(np.asarray(w, dtype=float))
    if len(pot) != n:
        raise ValueError(f"potential has {len(pot)} entries for {n} vertices")
    return pot


@dataclass
class AsymptoticControlPair:
    """Scaling function psi and on-diagonal limit density for the scan.

    rho2 plays two roles: it is the envelope dominating psi(t) * p(t,x,x)
    and, for every instance shipped here, also the limit of that product as
    t -> 0+, which is what the scan target integrates. On graphs the pair is
    psi = 1, rho2 = 1/mu.
    """

    psi: Callable[[float], float]
    rho2: np.ndarray

    def __post_init__(self):
        self.rho2 = np.asarray(self.rho2, dtype=float)
        if np.any(self.rho2 < 0):
            raise ValueError("rho2 must be nonnegative")

    def scale(self, t: float) -> float:
        val = float(self.psi(t))
        if val <= 0:
            raise ValueError(f"psi({t}) = {val} must be positive")
        return val


def graph_control_pair(graph: WeightedGraph) -> AsymptoticControlPair:
    """The canonical graph pair: psi = 1 and rho2 = 1/mu."""
    return AsymptoticControlPair(psi=lambda t: 1.0, rho2=1.0 / graph.mu)


# ------------------------------------------------------------ the operator


def trace_semigroup(graph: WeightedGraph, w, t: float) -> float:
    """tr e^{-t (H + w)} from the eigenvalues of the symmetrized operator
    S = D^{1/2} (H + diag(w)) D^{-1/2}."""
    check_time(t)
    pot = as_potential(w, graph.n)
    s = linalg.similarity_symmetrize(graph.generator_matrix(), graph.mu)
    lam = linalg.symmetric_eigvals(s + np.diag(pot.values))
    # sum smallest terms first for a stable total
    return float(np.sum(np.exp(-t * lam)[::-1]))


# -------------------------------------------------------------- the report


@dataclass
class ConvergenceReport:
    """Scan output: scaled traces against the limit target along a grid.

    checks are the convergence criteria as (name, ok, detail) triples; the
    verdict is "pass" when all hold.
    """

    t_grid: np.ndarray
    scaled_traces: np.ndarray
    target: float
    abs_errors: np.ndarray
    gt_bounds: np.ndarray
    final_rel_tol: float = 0.01
    monotone_tail: int = 5
    require_monotone: bool = True

    header = ("t", "scaled_trace", "target", "abs_error", "gt_rhs")

    def rows(self):
        for i, t in enumerate(self.t_grid):
            yield (t, self.scaled_traces[i], self.target,
                   self.abs_errors[i], self.gt_bounds[i])

    def to_csv(self, path) -> Path:
        return write_csv(path, self.header, self.rows())

    def to_dict(self) -> dict:
        return {
            "t_grid": [float(t) for t in self.t_grid],
            "scaled_traces": [float(v) for v in self.scaled_traces],
            "target": float(self.target),
            "abs_errors": [float(v) for v in self.abs_errors],
            "gt_bounds": [float(v) for v in self.gt_bounds],
            "verdict": self.verdict,
            "final_rel_tol": self.final_rel_tol,
            "monotone_tail": self.monotone_tail,
            "require_monotone": self.require_monotone,
        }

    def tail_monotone(self) -> bool:
        # slack of 1e-12 * |target| so a machine-noise error floor never
        # registers as an increase
        k = min(self.monotone_tail, len(self.abs_errors))
        tail = self.abs_errors[-k:]
        slack = 1e-12 * max(abs(self.target), 1e-300)
        return bool(np.all(np.diff(tail) <= slack))

    @property
    def final_error(self) -> float:
        return float(self.abs_errors[-1])

    @property
    def checks(self) -> list:
        budget = self.final_rel_tol * abs(self.target)
        out = [("final_rel_error", self.final_error <= budget,
                f"final abs error {self.final_error!r} exceeds "
                f"{self.final_rel_tol!r} * |target| = {budget!r}")]
        if self.require_monotone:
            out.append(("monotone_tail", self.tail_monotone(),
                        f"errors over the last {self.monotone_tail} grid "
                        f"points are not nonincreasing"))
        return out

    @property
    def verdict(self) -> str:
        return "pass" if all(ok for _, ok, _ in self.checks) else "fail"


def assemble_report(t_grid, scaled, target, gt_bounds, final_rel_tol,
                    monotone_tail, require_monotone=True):
    scaled = np.asarray(scaled, dtype=float)
    return ConvergenceReport(
        t_grid=np.asarray(t_grid, dtype=float), scaled_traces=scaled,
        target=float(target), abs_errors=np.abs(scaled - target),
        gt_bounds=np.asarray(gt_bounds, dtype=float),
        final_rel_tol=final_rel_tol, monotone_tail=monotone_tail,
        require_monotone=require_monotone)


# ---------------------------------------------------------------- the scan


def semiclassical_scan(graph: WeightedGraph, w, t_grid=None,
                       final_rel_tol: float = 0.01,
                       monotone_tail: int = 5,
                       require_monotone: bool = True) -> ConvergenceReport:
    """Follow psi(t) * tr e^{-t(H + w/t)} toward sum_x e^{-w} rho2(x) mu(x).

    The control pair is the graph's (graph_control_pair). The grid must be
    strictly decreasing; the verdict is "pass" when the final error is
    within final_rel_tol of the target and the error sequence is
    nonincreasing over the last monotone_tail points.
    """
    pot = as_potential(w, graph.n)
    grid = check_time_grid(default_time_grid() if t_grid is None else t_grid)
    pair = graph_control_pair(graph)
    base = linalg.similarity_symmetrize(graph.generator_matrix(), graph.mu)
    target = float(np.sum(np.exp(-pot.values) * pair.rho2 * graph.mu))
    scaled = np.empty(grid.size)
    bounds = np.empty(grid.size)
    boltz = np.exp(-pot.values)
    for i, t in enumerate(grid):
        lam = linalg.symmetric_eigvals(base + np.diag(pot.values / t))
        scale = pair.scale(float(t))
        scaled[i] = scale * float(np.sum(np.exp(-t * lam)[::-1]))
        diag = heat_semigroup(graph, float(t)).diagonal()
        bounds[i] = scale * float(np.sum(diag * boltz * graph.mu))
    return assemble_report(grid, scaled, target, bounds,
                           final_rel_tol, monotone_tail, require_monotone)


def golden_thompson_check(graph: WeightedGraph, w, t: float):
    """Both sides of tr e^{-t(H + w/t)} <= sum_x p(t,x,x) e^{-w(x)} mu(x).

    Returns (lhs, rhs), the row of a one-point semiclassical_scan. Equality
    holds exactly for constant w, where both sides reduce to
    e^{-c} * tr e^{-tH}.
    """
    check_time(t)
    report = semiclassical_scan(graph, w, [t])
    return float(report.scaled_traces[0]), float(report.gt_bounds[0])
