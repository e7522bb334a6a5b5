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
table per (graph, t, y), in the kernels module's bridge-kernel cache; R
itself is the graph's one read-only jump chain, which every bridge kernel
of that graph shares.

One sampler, _bridge_steps, draws the bridges for sample_bridge, the CLI's
bridge mode and both estimators. It draws every path's jump count first,
orders the paths by count, and then sweeps the remaining jump count j once
from the largest count down to 1: every path with more than j jumps takes
the step that leaves j, and all of them read the same column R^j[:, y], so
one (n, width) table of cumulative row weights serves the sweep and is
dropped after it. A path's state is its current vertex alone; the
consumers fold each step into per-path sums as it comes (the FK exponent,
the pnfb indicator, the move count), so no skeleton is stored and the
working memory grows with the number of paths, not with lambda t. Each
step reads only the nonzeros of R's rows (a padded table of width entries
per row, which the graph builds once, apart from R) and picks the first slot
whose cumulative weight exceeds the path's draw. The cumulative rows never
decrease, so that slot is the number of slots at or below the draw, which
a dense search over all n columns counts. Every row ends in a pad (column
n - 1, weight 0) that the pick treats as above every draw, so a draw at
the row total lands where the dense search clamps it.

p(t,x,x) mu(x) has one source, the count mass of the diagonal bridge kernel
bridge_kernel(graph, t, x): the FK weights, the sampler, the denominator of
stay_probability_exact and no_jump_lower_bound all read it there, so a pnfb
time builds that kernel once. The killed entry p_K(t,x,x) mu(x) comes from
one masked action, kernels._killed_columns.

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
from .graphs import WeightedGraph, require_connected
from .kernels import _bridge_cache, _killed_columns, _stepwise_weights
from .traces import as_potential
from .util import check_time, kahan_sum, parallel_map

_RELATIVE_TAIL_TOL = 1e-10


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
        cols, weights = graph.neighbors(z)
        cum = np.cumsum(weights)
        u = rng.random() * cum[-1]
        z = int(cols[np.searchsorted(cum, u, side="right")])
        jumps.append((tau, z))
    return JumpPath(start=graph.resolve(x), jumps=jumps, horizon=float(t))


# ------------------------------------------------------ bridge machinery


class BridgeKernel:
    """Uniformization tables for exact bridge sampling to y at one (graph, t).

    A bridge pinned at y reads R^k only through its column R^k[:, y], so
    powers[k] holds just that column: a (T, n) table built by
    v_k = R v_{k-1}, with T = len(pmf). r is the graph's shared jump chain
    and (cols, vals) the shared padded table of its row support, which the
    sampler steps on.
    """

    def __init__(self, graph: WeightedGraph, t: float, y: int):
        check_time(t)
        self.t = float(t)
        self.y = int(y)
        self.lam, self.r = graph.jump_chain()
        self.cols, self.vals = graph.row_support()
        self.pmf, self.tail = _stepwise_weights(self.lam * self.t)
        powers = np.zeros((len(self.pmf), graph.n))
        powers[0, self.y] = 1.0
        for k in range(1, len(self.pmf)):
            powers[k] = self.r @ powers[k - 1]
        self.powers = powers

    def count_distribution(self, x: int):
        """Unnormalized P(N = n) for the (x, y) bridge, plus its mass.

        The mass sum_n pmf_n R^n[x, y] is [e^{-tH}]_{x,y} = p(t,x,y) mu(y),
        cut as the module docstring of kernels describes.
        """
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


def bridge_kernel(graph: WeightedGraph, t: float, y: int) -> BridgeKernel:
    """The cached bridge kernel to vertex index y at time t."""
    return _bridge_cache.get((graph.fingerprint(), float(t), int(y)),
                             lambda: BridgeKernel(graph, t, y))


def _sample_count(n_samples) -> int:
    """n_samples as an int; InputError unless it is an integer >= 1."""
    if (isinstance(n_samples, bool)
            or not isinstance(n_samples, (int, np.integer)) or n_samples < 1):
        raise InputError(f"n_samples must be an integer >= 1, "
                         f"got {n_samples!r}")
    return int(n_samples)


def _first_above(cum, draw):
    """Per row of cum, the first column whose value exceeds draw, or the
    last column if none does.

    Each row of cum must be nondecreasing. Then the columns at or below
    draw come first, and this index is their number capped at the last
    column: the dense count (cum[:, :-1] <= draw[:, None]).sum(axis=1).
    """
    above = cum > draw[:, None]
    above[:, -1] = True
    return above.argmax(axis=1)


def _bridge_steps(bk: BridgeKernel, x: int, n_samples: int, rng,
                  with_gaps: bool = False, dist=None):
    """Exact bridges from x to bk.y, n_samples of them, one state at a time.

    dist is bk.count_distribution(x), computed here unless the caller
    already holds it.

    The paths are ordered by jump count, ascending. Each yield (lo, z, e)
    gives the next vertex z[i] of paths lo + i, i = 0, 1, ..., and (None
    unless with_gaps) the standard exponential e[i] of its holding time.
    The first yield is x for every path; then one per remaining jump count
    j, from the largest count down to 1, for the paths with more than j
    jumps; last, y for the paths with at least one jump. Read in order, the
    yields spell each path's skeleton z_0 = x, ..., z_nj = y, and its nj + 1
    holding times are its exponentials normalized to sum to t.

    The stream is drawn in this order: the counts; with gaps, one
    exponential per path for its x state and one per moving path for its y
    state; then per j one block of uniforms, one per path stepping, and
    with gaps one block of exponentials. Callers must not draw from rng
    while iterating.

    Step j reads one column: P(z = c | z_prev) ~ R[z_prev, c] R^j[c, y].
    The cumulative row weights cumsum(vals * powers[j, cols]) are read on
    R's row support only: over the support the running sum equals the
    dense one over all n columns (zero entries add +0.0), and the first
    column whose sum exceeds u has positive weight, so it is in the
    support. With at least as many paths stepping as rows, one (n, width)
    table of them serves the step and is dropped after it; with fewer, the
    rows are computed per path. Each row ends in a pad (column n - 1,
    weight 0) that _first_above counts as above every draw, which is where
    a dense search over all n columns clamps.
    """
    probs, _ = bk.count_distribution(x) if dist is None else dist
    mass = np.cumsum(probs)
    # u < mass[-1] for a normal total, so the count has positive mass; the
    # cap covers a subnormal total, which u can round up to
    counts = np.minimum(
        np.searchsorted(mass, rng.random(n_samples) * mass[-1], side="right"),
        np.flatnonzero(probs)[-1])
    counts.sort()
    moving = int(np.searchsorted(counts, 1))
    ex = ey = None
    if with_gaps:
        ex = rng.standard_exponential(n_samples)
        ey = rng.standard_exponential(n_samples - moving)
    z = np.full(n_samples, x, dtype=np.intp)
    yield 0, z.copy(), ex
    cols, vals, powers = bk.cols, bk.vals, bk.powers
    n, width = cols.shape
    flat_cols = cols.ravel()
    remaining = range(int(counts[-1]) - 1, 0, -1)
    for j, lo in zip(remaining, np.searchsorted(
            counts, remaining, side="right").tolist()):
        prev = z[lo:]
        if prev.size < n:
            cum = np.cumsum(vals.take(prev, axis=0)
                            * powers[j].take(cols.take(prev, axis=0)), axis=1)
        else:
            cum = np.cumsum(vals * powers[j].take(cols), axis=1).take(
                prev, axis=0)
        pick = _first_above(cum, rng.random(prev.size) * cum[:, -1])
        step = flat_cols.take(prev * width + pick)
        z[lo:] = step
        yield lo, step, (rng.standard_exponential(step.size) if with_gaps
                         else None)
    if moving < n_samples:
        yield moving, np.full(n_samples - moving, bk.y, dtype=np.intp), ey


def sample_bridge(graph: WeightedGraph, x, y, t: float, rng=None) -> JumpPath:
    """One exact bridge path pinned at gamma(0) = x, gamma(t) = y.

    The jump times are the cumulative holding times, distributed as sorted
    uniforms on (0, t); self-jumps of the skeleton are dropped.
    """
    rng = np.random.default_rng(rng)
    x = graph.resolve(x)
    bk = bridge_kernel(graph, t, graph.resolve(y))
    states, holds = [], []
    for _, z, e in _bridge_steps(bk, x, 1, rng, with_gaps=True):
        states.append(int(z[0]))
        holds.append(e[0])
    gaps = np.array(holds)
    gaps *= bk.t / gaps.sum()
    jumps = [(float(when), b) for when, a, b in
             zip(np.cumsum(gaps[:-1]), states, states[1:]) if a != b]
    return JumpPath(start=x, jumps=jumps, horizon=float(t))


# --------------------------------------------------------- trace estimator


def feynman_kac_trace_mc(graph: WeightedGraph, w, t: float, n_samples: int,
                         seed: int, threads: int = 1) -> McEstimate:
    """MC estimate of tr e^{-t(H + w)} through diagonal bridges:

        sum_x mu(x) p(t,x,x) E^{x,x}[ exp(-int_0^t w(gamma(s)) ds) ].

    The weight mu(x) p(t,x,x) is the diagonal bridge kernel's count mass,
    so no heat table is built. One child stream per vertex (SeedSequence
    spawn in vertex order); the weighted means are combined with Kahan
    summation, so the estimate does not depend on the number of worker
    threads.
    """
    n_samples = _sample_count(n_samples)
    pot = as_potential(w, graph.n)
    check_time(t)
    require_connected(graph)
    children = np.random.SeedSequence(seed).spawn(graph.n)

    def per_vertex(xi: int):
        rng = np.random.Generator(np.random.PCG64(children[xi]))
        bk = bridge_kernel(graph, t, xi)
        dist = bk.count_distribution(xi)
        # per path: sum of w(z) E and of E over its states, E the
        # exponentials whose normalized values are the holding times
        weighted, total = np.zeros(n_samples), np.zeros(n_samples)
        for lo, z, e in _bridge_steps(bk, xi, n_samples, rng,
                                      with_gaps=True, dist=dist):
            weighted[lo:] += pot[z] * e
            total[lo:] += e
        fk = np.exp(-bk.t * weighted / total)
        var = float(fk.var(ddof=1)) if len(fk) > 1 else 0.0
        return dist[1], float(fk.mean()), var

    stats = parallel_map(per_vertex, range(graph.n), threads)
    mean = kahan_sum(c * m for c, m, _ in stats)
    var = kahan_sum(c * c * v / n_samples for c, _, v in stats)
    return McEstimate(mean=mean, std_error=float(np.sqrt(var)),
                      n_samples=n_samples, seed=int(seed))


# ----------------------------------------------------- boundary detection


def _vertex_in(graph: WeightedGraph, x, subset):
    """(x, sorted K) as vertex indices; raises VertexNotInK unless x in K."""
    xi = graph.resolve(x)
    members = sorted({graph.resolve(v) for v in subset})
    if xi not in members:
        raise VertexNotInK(f"vertex {xi} not in K = {members}")
    return xi, members


def pnfb_probability(graph: WeightedGraph, x, subset, t: float,
                     n_samples: int, seed: int) -> McEstimate:
    """MC estimate of P^{x,x}_t{ gamma(s) in K for all s in [0, t) }.

    With K the whole vertex set the indicator is identically one and the
    estimate is exact. Shrinking t drives the probability to 1: the process
    does not feel the boundary of K in short time.
    """
    n_samples = _sample_count(n_samples)
    xi, members = _vertex_in(graph, x, subset)
    mask = np.zeros(graph.n, dtype=bool)
    mask[members] = True
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    alive = np.ones(n_samples, dtype=bool)
    for lo, z, _ in _bridge_steps(bridge_kernel(graph, t, xi), xi,
                                  n_samples, rng):
        alive[lo:] &= mask[z]
    vals = alive.astype(float)
    se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return McEstimate(mean=float(vals.mean()), std_error=se,
                      n_samples=n_samples, seed=int(seed))


def stay_probability_exact(graph: WeightedGraph, x, subset, t: float) -> float:
    """Exact staying probability p_K(t,x,x) / p(t,x,x).

    The numerator is one masked action on e_x (kernels._killed_columns),
    the denominator the diagonal bridge kernel's count mass. Raises
    DisconnectedGraph as heat_semigroup does, and NTruncationExceeded when
    the cut series leaves p(t,x,x) unresolved to 1e-10 relative.
    """
    xi, members = _vertex_in(graph, x, subset)
    check_time(t)
    require_connected(graph)
    full = bridge_kernel(graph, t, xi).count_distribution(xi)[1]
    killed = _killed_columns(graph, t, [members], [xi])[0, xi, 0]
    return float(killed / full)


def no_jump_lower_bound(graph: WeightedGraph, x, t: float) -> float:
    """exp(-t Deg(x)) / (p(t,x,x) mu(x)): P^{x,x}{no jump before t}.

    This lower-bounds every staying probability with x in K; on graphs it is
    an identity for K = {x}. The denominator is the diagonal bridge kernel's
    count mass, as in stay_probability_exact.
    """
    xi = graph.resolve(x)
    check_time(t)
    require_connected(graph)
    full = bridge_kernel(graph, t, xi).count_distribution(xi)[1]
    return float(np.exp(-t * graph.degree(xi)) / full)
