"""Jump paths of the graph process, exact bridge sampling, and MC probes.

The free process holds at z for an Exp(Deg(z)) time, then jumps to y with
probability b(z,y) / sum_y' b(z,y'). Bridges pinned at (x, y, t) are drawn
exactly through uniformization: with R = I - H/Lambda and Poisson weights
q_n = e^{-Lambda t} (Lambda t)^n / n!,

    P(N = n) ~ q_n [R^n]_{x,y},

the skeleton is filled forward, P(z_k = z | z_{k-1}) ~ R[z_{k-1}, z] *
[R^{n-k}]_{z, y}, and the n + 1 holding times are exponential spacings
normalized to sum to t, so the jump times are distributed as n sorted
uniforms on (0,t). Self-jumps of R are dropped when materializing a path
(they do not change any path functional). Every sampled bridge ends at y,
and the convention here sets gamma(t) = y as well. Both steps read R^n only
through its column R^n[:, y], so bridge_kernel keeps one (T, n) column
table per (graph, t, y); R itself is the graph's one read-only jump chain,
which every bridge kernel of that graph shares. One sampler,
_bridge_skeletons, draws the bridges for sample_bridge and for both
estimators, which evaluate their functionals on its skeletons.

Reproducibility: estimators take an integer seed; one child stream per
diagonal vertex is spawned via numpy SeedSequence in vertex order and
results are combined with Kahan summation in that order, so estimates are
bit-identical regardless of worker count.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NTruncationExceeded, VertexNotInK, ZeroKernel
from .graphs import WeightedGraph
from .kernels import (
    _KernelCache,
    heat_semigroup,
    killed_kernel,
    poisson_weights,
)
from .traces import as_potential
from .util import check_time, kahan_sum, parallel_map

_RELATIVE_TAIL_TOL = 1e-10
MAX_BRIDGE_TERMS = 100_000


@dataclass
class JumpPath:
    """A right-continuous pure-jump trajectory on [0, horizon]."""

    start: int
    jumps: list
    horizon: float

    def __post_init__(self):
        prev_t = 0.0
        prev_state = self.start
        for when, target in self.jumps:
            if not prev_t < when < self.horizon:
                raise InputError(
                    f"jump time {when} outside (previous, horizon)")
            if target == prev_state:
                raise InputError("consecutive jump targets must differ")
            prev_t, prev_state = when, target

    def value_at(self, s: float) -> int:
        if not 0.0 <= s <= self.horizon:
            raise InputError(f"s = {s} outside [0, {self.horizon}]")
        i = bisect.bisect_right([w for w, _ in self.jumps], s)
        return self.start if i == 0 else self.jumps[i - 1][1]

    def final_state(self) -> int:
        return self.jumps[-1][1] if self.jumps else self.start

    def jump_count(self) -> int:
        return len(self.jumps)


@dataclass
class McEstimate:
    """A Monte Carlo estimate with its standard error and provenance."""

    mean: float
    std_error: float
    n_samples: int
    seed: int


# ------------------------------------------------------------- free paths


def sample_free_path(graph: WeightedGraph, x, t: float, rng=None) -> JumpPath:
    """One trajectory of the free process started at x, run to horizon t."""
    check_time(t)
    rng = np.random.default_rng(rng)
    z = graph.resolve(x)
    tau = 0.0
    jumps = []
    while True:
        rate = graph.degree(z)
        if rate == 0.0:
            break
        tau += rng.exponential(1.0 / rate)
        if tau >= t:
            break
        nbrs = graph.neighbors(z)
        weights = np.array([b for _, b in nbrs])
        cum = np.cumsum(weights)
        u = rng.random() * cum[-1]
        z = nbrs[int(np.searchsorted(cum, u, side="right"))][0]
        jumps.append((tau, z))
    return JumpPath(start=graph.resolve(x), jumps=jumps, horizon=float(t))


# ------------------------------------------------------ bridge machinery


class BridgeKernel:
    """Uniformization tables for exact bridge sampling to y at one (graph, t).

    A bridge pinned at y reads R^k only through its column R^k[:, y], so
    powers[k] holds just that column: a (T, n) table built by
    v_k = R v_{k-1}, with T = len(pmf). r is the graph's shared jump chain.
    """

    def __init__(self, graph: WeightedGraph, t: float, y: int):
        check_time(t)
        self.t = float(t)
        self.y = int(y)
        self.lam, self.r = graph.jump_chain()
        # refuse before building the Poisson weights: enormous lam*t is out
        # of scope for the exact sampler
        if self.lam * self.t > MAX_BRIDGE_TERMS:
            raise NTruncationExceeded(
                f"lam*t = {self.lam * self.t:.3e} needs more jump-count "
                f"terms than the cap {MAX_BRIDGE_TERMS}")
        self.pmf, self.tail = poisson_weights(self.lam * self.t)
        powers = np.zeros((len(self.pmf), graph.n))
        powers[0, self.y] = 1.0
        for k in range(1, len(self.pmf)):
            powers[k] = self.r @ powers[k - 1]
        self.powers = powers

    def count_distribution(self, x: int):
        """Unnormalized P(N = n) for the (x, y) bridge, plus its mass."""
        probs = self.pmf * self.powers[:, x]
        denom = float(probs.sum())
        if denom <= 0.0:
            raise ZeroKernel(f"kernel vanishes between vertices {x} and "
                             f"{self.y} at t = {self.t}")
        if self.tail > _RELATIVE_TAIL_TOL * denom:
            raise NTruncationExceeded(
                f"cutting the jump count at {len(self.pmf)} terms leaves "
                f"relative mass {self.tail / denom:.3e} unaccounted for")
        return probs, denom


# worst case 129 (T, n) column tables, plus the one n x n R of each graph
# whose kernels they are
_bridge_cache = _KernelCache(capacity=129)


def bridge_kernel(graph: WeightedGraph, t: float, y: int) -> BridgeKernel:
    """The cached bridge kernel to vertex index y at time t."""
    key = (graph.fingerprint(), float(t), int(y))
    hit = _bridge_cache.lookup(key)
    if hit is not None:
        return hit
    return _bridge_cache.insert(key, BridgeKernel(graph, t, y))


def _rows_categorical(prob_rows: np.ndarray, rng) -> np.ndarray:
    """One draw per row with probabilities proportional to the row entries."""
    cum = np.cumsum(prob_rows, axis=1)
    u = rng.random(prob_rows.shape[0]) * cum[:, -1]
    idx = (cum <= u[:, None]).sum(axis=1)
    return np.minimum(idx, prob_rows.shape[1] - 1)


def _bridge_skeletons(bk: BridgeKernel, x: int, n_samples: int, rng,
                      with_gaps: bool = False):
    """Exact bridges from x to bk.y, n_samples of them, by jump count.

    Yields (sel, z, gaps) per jump count nj in ascending order: sel indexes
    the paths with that count, z is their (m, nj + 1) uniformized skeleton
    from x to bk.y, and gaps (None unless with_gaps) their nj + 1 holding
    times, exponential spacings normalized to sum to t. The stream is drawn
    in that order: all counts, then per group its skeleton and its gaps.
    """
    probs, denom = bk.count_distribution(x)
    cum = np.cumsum(probs)
    u = rng.random(n_samples) * denom
    counts = np.minimum(np.searchsorted(cum, u, side="right"), len(probs) - 1)
    for nj in np.unique(counts):
        sel = np.flatnonzero(counts == nj)
        m = sel.size
        z = np.empty((m, nj + 1), dtype=np.intp)
        z[:, 0] = x
        if nj >= 1:
            z[:, nj] = bk.y
        for k in range(1, nj):
            rows = bk.r[z[:, k - 1], :] * bk.powers[nj - k][None, :]
            z[:, k] = _rows_categorical(rows, rng)
        gaps = None
        if with_gaps:
            gaps = rng.standard_exponential((m, nj + 1))
            gaps *= bk.t / gaps.sum(axis=1, keepdims=True)
        yield sel, z, gaps


def sample_bridge(graph: WeightedGraph, x, y, t: float, rng=None) -> JumpPath:
    """One exact bridge path pinned at gamma(0) = x, gamma(t) = y.

    The jump times are the cumulative holding times, distributed as sorted
    uniforms on (0, t); self-jumps of the skeleton are dropped.
    """
    rng = np.random.default_rng(rng)
    x = graph.resolve(x)
    bk = bridge_kernel(graph, t, graph.resolve(y))
    (_, z, gaps), = _bridge_skeletons(bk, x, 1, rng, with_gaps=True)
    times = np.cumsum(gaps[0, :-1])
    jumps = [(float(when), int(b))
             for when, a, b in zip(times, z[0, :-1], z[0, 1:]) if a != b]
    return JumpPath(start=x, jumps=jumps, horizon=float(t))


# --------------------------------------------------------- trace estimator


def feynman_kac_trace_mc(graph: WeightedGraph, w, t: float, n_samples: int,
                         seed: int, threads: int = 1) -> McEstimate:
    """MC estimate of tr e^{-t(H + w)} through diagonal bridges:

        sum_x mu(x) p(t,x,x) E^{x,x}[ exp(-int_0^t w(gamma(s)) ds) ].

    One child stream per vertex (SeedSequence spawn in vertex order); the
    weighted means are combined with Kahan summation, so the estimate does
    not depend on the number of worker threads.
    """
    pot = as_potential(w, graph.n)
    table = heat_semigroup(graph, t)
    children = np.random.SeedSequence(seed).spawn(graph.n)
    coeff = graph.mu * table.diagonal()

    def per_vertex(xi: int):
        rng = np.random.Generator(np.random.PCG64(children[xi]))
        fk = np.empty(int(n_samples))
        for sel, z, gaps in _bridge_skeletons(bridge_kernel(graph, t, xi), xi,
                                              int(n_samples), rng,
                                              with_gaps=True):
            fk[sel] = np.exp(-(pot.values[z] * gaps).sum(axis=1))
        var = float(fk.var(ddof=1)) if len(fk) > 1 else 0.0
        return float(fk.mean()), var

    stats = parallel_map(per_vertex, range(graph.n), threads)
    mean = kahan_sum(c * m for c, (m, _) in zip(coeff, stats))
    var = kahan_sum(c * c * v / n_samples for c, (_, v) in zip(coeff, stats))
    return McEstimate(mean=mean, std_error=float(np.sqrt(var)),
                      n_samples=int(n_samples), seed=int(seed))


# ----------------------------------------------------- boundary detection


def pnfb_probability(graph: WeightedGraph, x, subset, t: float,
                     n_samples: int, seed: int) -> McEstimate:
    """MC estimate of P^{x,x}_t{ gamma(s) in K for all s in [0, t) }.

    With K the whole vertex set the indicator is identically one and the
    estimate is exact. Shrinking t drives the probability to 1: the process
    does not feel the boundary of K in short time.
    """
    xi = graph.resolve(x)
    members = sorted({graph.resolve(v) for v in subset})
    if xi not in members:
        raise VertexNotInK(f"vertex {xi} not in K = {members}")
    mask = np.zeros(graph.n, dtype=bool)
    mask[members] = True
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    vals = np.empty(int(n_samples))
    for sel, z, _ in _bridge_skeletons(bridge_kernel(graph, t, xi), xi,
                                       int(n_samples), rng):
        vals[sel] = mask[z].all(axis=1)
    se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return McEstimate(mean=float(vals.mean()), std_error=se,
                      n_samples=int(n_samples), seed=int(seed))


def stay_probability_exact(graph: WeightedGraph, x, subset, t: float) -> float:
    """Exact staying probability p_K(t,x,x) / p(t,x,x) via killed kernels."""
    xi = graph.resolve(x)
    members = sorted({graph.resolve(v) for v in subset})
    if xi not in members:
        raise VertexNotInK(f"vertex {xi} not in K = {members}")
    p_killed, idx = killed_kernel(graph, members, t)
    pos = idx.index(xi)
    full = heat_semigroup(graph, t).values[xi, xi]
    if full <= 0.0:
        raise ZeroKernel(f"p({t},{xi},{xi}) vanishes")
    return float(p_killed[pos, pos] / full)


def no_jump_lower_bound(graph: WeightedGraph, x, t: float) -> float:
    """exp(-t Deg(x)) / (p(t,x,x) mu(x)): P^{x,x}{no jump before t}.

    This lower-bounds every staying probability with x in K; on graphs it is
    an identity for K = {x}.
    """
    xi = graph.resolve(x)
    p = heat_semigroup(graph, t).values[xi, xi]
    if p <= 0.0:
        raise ZeroKernel(f"p({t},{xi},{xi}) vanishes")
    return float(np.exp(-t * graph.degree(xi)) / (p * graph.mu[xi]))
