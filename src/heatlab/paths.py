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
_bridge_skeletons, draws the bridges for sample_bridge, the CLI's bridge
mode and both estimators, which evaluate their functionals on its
skeletons. It groups the paths by jump count and steps consecutive groups
together, in batches of a bounded number of cells, sweeping the remaining
jump count j down from the largest: every path with more than j jumps
takes its step with j jumps left, and all of them read the same column
R^j[:, y], so one (n, width) table of cumulative row weights serves the
sweep and is dropped after it. Each step reads only the nonzeros of R's
rows (a padded table of width entries per row, which the graph builds once
with R) and picks the first slot whose cumulative weight exceeds the
path's draw. The cumulative rows never decrease, so that slot is the
number of slots at or below the draw, which a dense search over all n
columns counts. Every row ends in a pad (column n - 1, weight 0) that
the pick treats as above every draw, so a draw at the row total lands
where the dense search clamps it; the draws are the dense search's bits.

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
from .kernels import _KernelCache, _killed_columns, _stepwise_weights
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
        self.lam, self.r, self.cols, self.vals = graph.jump_chain()
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


# worst case 129 (T, n) column tables, plus the one n x n R (and its
# row-support table) of each graph whose kernels they are
_bridge_cache = _KernelCache(capacity=129)


def bridge_kernel(graph: WeightedGraph, t: float, y: int) -> BridgeKernel:
    """The cached bridge kernel to vertex index y at time t."""
    key = (graph.fingerprint(), float(t), int(y))
    hit = _bridge_cache.lookup(key)
    if hit is not None:
        return hit
    return _bridge_cache.insert(key, BridgeKernel(graph, t, y))


# cells of the skeleton table a batch of jump-count groups is stepped in:
# (paths in the batch) x (largest count + 1). Bounds the sampler's working
# set; a single group larger than this is one batch.
_BATCH_CELLS = 1 << 16


def _sample_count(n_samples) -> int:
    """n_samples as an int; InputError unless it is an integer >= 1."""
    if (isinstance(n_samples, bool)
            or not isinstance(n_samples, (int, np.integer)) or n_samples < 1):
        raise InputError(f"n_samples must be an integer >= 1, "
                         f"got {n_samples!r}")
    return int(n_samples)


def _bridge_skeletons(bk: BridgeKernel, x: int, n_samples: int, rng,
                      with_gaps: bool = False, dist=None):
    """Exact bridges from x to bk.y, n_samples of them, by jump count.

    dist is bk.count_distribution(x), computed here unless the caller
    already holds it.

    Yields (sel, z, gaps) per jump count nj in ascending order: sel indexes
    the paths with that count, z is their (m, nj + 1) uniformized skeleton
    from x to bk.y, and gaps (None unless with_gaps) their nj + 1 holding
    times, exponential spacings normalized to sum to t. The stream is drawn
    in that order: all counts, then per group one block of m (nj - 1)
    uniforms, step-major, and its gaps. Consecutive groups are drawn and
    stepped together in batches, so the generator runs ahead of the yields:
    callers must not draw from rng while iterating.
    """
    probs, denom = bk.count_distribution(x) if dist is None else dist
    cum = np.cumsum(probs)
    u = rng.random(n_samples) * denom
    counts = np.minimum(np.searchsorted(cum, u, side="right"), len(probs) - 1)
    order = np.argsort(counts, kind="stable")
    njs, sizes = np.unique(counts, return_counts=True)
    first = np.concatenate(([0], np.cumsum(sizes)))
    g = 0
    while g < njs.size:
        stop = g + 1
        while (stop < njs.size and (first[stop + 1] - first[g])
               * (njs[stop] + 1) <= _BATCH_CELLS):
            stop += 1
        yield from _skeleton_batch(bk, x, rng, njs[g:stop], sizes[g:stop],
                                   order[first[g]:first[stop]], with_gaps)
        g = stop


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


def _skeleton_batch(bk: BridgeKernel, x: int, rng, njs, sizes, sel,
                    with_gaps: bool):
    """Draw and step consecutive count groups together, then yield each.

    Column i of the tables is the i-th path of sel, whose count steps[i]
    ascends, and row j holds what a path needs when j jumps remain: z[j]
    its vertex there (x at j = nj, y at j = 0), unif[j - 1] the uniform of
    its step k = nj - j. The sweep runs j from top - 1 down to 1; the paths
    with nj > j are a suffix, and every one of them reads the same column
    R^j[:, y]: P(z_k = c | z_{k-1}) ~ R[z_{k-1}, c] R^j[c, y]. So the
    cumulative row weights of sweep j are one (n, width) table,
    cumsum(vals * powers[j, cols]), built once and dropped after the sweep;
    with fewer active paths than rows, the same rows are computed per path.
    They are read on R's row support only: over the support the running sum
    equals the dense one over all n columns (zero entries add +0.0), and
    the first column whose sum exceeds u has positive weight, so it is in
    the support. Each row is a cumsum of nonnegative terms, so it never
    decreases, and the slots at or below u are a prefix: _first_above finds
    its end by one bool argmax where the dense search counts every slot.
    Every row ends in a pad (column n - 1, weight 0), so forcing the last
    slot true sends a u at or above the row total to column n - 1, where
    the dense search clamps: the draws are the dense sampler's bits.
    """
    steps = np.repeat(njs, sizes)
    starts = np.cumsum(sizes) - sizes
    top = int(njs[-1])
    z = np.empty((top + 1, steps.size), dtype=np.intp)
    z[0] = bk.y
    unif = np.empty((max(top - 1, 0), steps.size))
    gaps = []
    for nj, m, lo in zip(njs, sizes, starts):
        z[nj, lo:lo + m] = x
        if nj >= 2:
            unif[:nj - 1, lo:lo + m] = rng.random(m * (nj - 1)).reshape(
                nj - 1, m)[::-1]
        g = None
        if with_gaps:
            g = rng.standard_exponential((m, nj + 1))
            g *= bk.t / g.sum(axis=1, keepdims=True)
        gaps.append(g)
    cols, vals, powers = bk.cols, bk.vals, bk.powers
    n, width = cols.shape
    flat_cols = cols.ravel()
    remaining = range(top - 1, 0, -1)
    suffixes = np.searchsorted(steps, remaining, side="right").tolist()
    for j, lo in zip(remaining, suffixes):
        prev = z[j + 1, lo:]
        if prev.size < n:
            cum = np.cumsum(vals.take(prev, axis=0)
                            * powers[j].take(cols.take(prev, axis=0)), axis=1)
        else:
            cum = np.cumsum(vals * powers[j].take(cols), axis=1).take(
                prev, axis=0)
        pick = _first_above(cum, unif[j - 1, lo:] * cum[:, -1])
        z[j, lo:] = flat_cols.take(prev * width + pick)
    for nj, m, lo, g in zip(njs, sizes, starts, gaps):
        yield sel[lo:lo + m], z[nj::-1, lo:lo + m].T.copy(), g


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
        fk = np.empty(n_samples)
        for sel, z, gaps in _bridge_skeletons(bk, xi, n_samples, rng,
                                              with_gaps=True, dist=dist):
            fk[sel] = np.exp(-(pot.values[z] * gaps).sum(axis=1))
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
    vals = np.empty(n_samples)
    for sel, z, _ in _bridge_skeletons(bridge_kernel(graph, t, xi), xi,
                                       n_samples, rng):
        vals[sel] = mask[z].all(axis=1)
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
