"""Schrodinger operators H + w on weighted graphs and their heat traces.

The form sum H(w) = H + diag(w) is symmetric in the mu-inner product; the
similarity transform D^{1/2} (H + diag(w)) D^{-1/2} = S + diag(w), with
D = diag(mu) and S the graph's symmetric_generator (built from the edge
table), makes it plainly symmetric, and tr e^{-tH(w)} = sum_i
e^{-t lambda_i(S + diag(w))}. Eigenvalues come from LAPACK through
linalg.symmetric_eigvals; the trace inequality's right-hand side comes from
the uniformized kernel on the graph's jump chain R instead, so each scan row
carries a second route that shares no eigensolver.

The semiclassical scan follows psi(t) * tr e^{-t(H + w/t)} down a decreasing
time grid. The space fixes psi through the limit of p(t,x,x) psi(t): on a
graph p(t,x,x) -> 1/mu(x), so psi = 1 and the target is
sum_x e^{-w(x)} (1/mu(x)) mu(x). Each grid point also carries the
trace-inequality bound sum_x p(t,x,x) e^{-w(x)} mu(x), which dominates the
scaled trace, with equality exactly for constant w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InputError
from .graphs import WeightedGraph, require_connected
from .kernels import _exponential_chain
from .util import check_time, check_time_grid, default_time_grid


def as_potential(w, n: int) -> np.ndarray:
    """w as a finite 1-d float array of length n; a scalar fills all n."""
    try:
        vals = np.asarray(np.full(n, w) if np.isscalar(w) else w, dtype=float)
    except (TypeError, ValueError):
        raise InputError("potential values must be numbers") from None
    if vals.ndim != 1:
        raise InputError("potential must be one-dimensional")
    if not np.all(np.isfinite(vals)):
        raise InputError("potential must be finite on all vertices")
    if vals.size != n:
        raise InputError(f"potential has {vals.size} entries for {n} vertices")
    return vals


# ------------------------------------------------------------ the operator


def trace_semigroup(graph: WeightedGraph, w, t: float) -> float:
    """tr e^{-t (H + w)} from the eigenvalues of the symmetric operator
    S + diag(w), S = D^{1/2} H D^{-1/2} (graph.symmetric_generator)."""
    check_time(t)
    pot = as_potential(w, graph.n)
    lam = linalg.symmetric_eigvals(graph.symmetric_generator() + np.diag(pot))
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
    """Follow tr e^{-t(H + w/t)} toward sum_x e^{-w(x)} (1/mu(x)) mu(x).

    psi = 1 on graphs (module docstring). The grid must be strictly
    decreasing; the verdict is "pass" when the final error is within
    final_rel_tol of the target and the error sequence is nonincreasing over
    the last monotone_tail points.
    """
    pot = as_potential(w, graph.n)
    grid = check_time_grid(default_time_grid() if t_grid is None else t_grid)
    require_connected(graph)
    base = graph.symmetric_generator()
    boltz = np.exp(-pot)
    # the limit density 1/mu times mu, kept as written: 1/mu * mu need not
    # round to 1
    target = float(np.sum(boltz * (1.0 / graph.mu) * graph.mu))
    # [e^{-tH}]_{x,x} at every grid time, read off the squaring chains as
    # they pass: a grid of ratio 1/2 is one chain down to Lambda t <= 1. The
    # chain runs on R, not R_s: the diagonals are the same in both frames,
    # and R's chain is the faster at the orders a scan runs
    heat_diags = {t: e.diagonal().copy() for t, e, _ in _exponential_chain(
        *graph.jump_chain(), grid.tolist())}
    scaled = np.empty(grid.size)
    bounds = np.empty(grid.size)
    for i, t in enumerate(grid):
        lam = linalg.symmetric_eigvals(base + np.diag(pot / t))
        scaled[i] = float(np.sum(np.exp(-t * lam)[::-1]))
        # p(t,x,x) = [e^{-tH}]_{x,x} / mu(x)
        diag = heat_diags[float(t)] / graph.mu
        bounds[i] = float(np.sum(diag * boltz * graph.mu))
    return assemble_report(grid, scaled, target, bounds,
                           final_rel_tol, monotone_tail, require_monotone)

