"""Heat kernels p(t,x,y) on weighted graphs via uniformization.

With H the nonnegative generator and Lambda >= max_x Deg(x),

    e^{-tH} = e^{-Lambda t} * sum_{n>=0} (Lambda t)^n / n! * R^n,
    R = I - H / Lambda,

where R is entrywise nonnegative with (sub)stochastic rows, so ||R||_inf <= 1.
H is self-adjoint on L^2(X, mu), so with M = diag(mu) the jump chain is
similar to R_s = M^{1/2} R M^{-1/2}, which is symmetric, entrywise
nonnegative and has its spectrum in [-1, 1], so ||R_s||_2 <= 1. Heat tables
are built in that frame, from e^{-tH_s} with H_s = Lambda (I - R_s) and R_s
taken straight from the edge table (WeightedGraph.symmetric_jump_chain):

    p(t,x,y) = [e^{-tH}]_{x,y} / mu(y) = [e^{-tH_s}]_{x,y} / sqrt(mu_x mu_y).

Tables are built by scaling and squaring along chains. A time t has
j(t) = ceil(log2(Lambda t)) (j = 0 when Lambda t <= 1) and the step t/2^j,
which is exact; _exponential_chain groups the requested times by step, since
e^{-2sH} = (e^{-sH})^2 puts every time of one step on one chain. Per group
it sums the series for the step at rate Lambda t / 2^j <= 1 once, cut where
the Poisson tail is below 1e-14 / 2^J with J the group's largest j, and
squares the result J times, handing out e^{-tH} for each member as its j is
reached. The cut series B = sum_{k<=m} p_k R^k is evaluated by Paterson and
Stockmeyer (SIAM J. Comput. 2, 1973): with R^2..R^s built once and the blocks
B_i = sum_{k<s} p_{is+k} R^k, B = B_0 + R^s (B_1 + R^s (B_2 + ...)) takes
about 2 sqrt(m) dense products instead of the m - 1 of Horner in R (6 or 7
for the m = 13..18 of 1 < Lambda t <= 1024). The basis R^2, R^3, ... is
shared by the groups of a chain: it is built once, in the same order and
frame as a lone group would build it, up to the largest block size any group
needs; each group reads the prefix R..R^s of its own s, so every table is
bit for bit the one its group's own chain yields. After each group's series
the basis keeps only the powers a later group reads, so it is released
after the last one. Every power, block and product is a nonnegative
combination of nonnegative matrices, so the result is certified nonnegative.

A chain whose R is exactly symmetric (R_s, or the chain of any symmetric
generator) runs in the symmetric frame (Higham, Functions of Matrices, SIAM
2008, ch. 10). Its series B_s is symmetric in exact arithmetic, so it is
symmetrized once per group; max |B_s - B_s^T| before that is the
presymmetrization defect, the gemm rounding of the series. Its even powers
are P P^T and every squaring is B B^T, which numpy hands to BLAS syrk: half
the flops of a general product, and an exactly symmetric result. So every
matrix the chain yields is exactly symmetric and nonnegative. Any other R
(a generator given as a matrix) squares by B B. The graph scan runs its
chain on the graph's row-stochastic R (jump_chain) and reads each member's
diagonal, the same in both frames. When mu is constant that R is exactly
symmetric, and the chain runs in the symmetric frame.

The certificate. The truncated step B and the exact step U are the same
polynomial in R, with nonnegative weights summing to at most 1, so both have
norm at most 1: the inf-norm for R, the 2-norm for R_s. Then
||U^(2^j) - B^(2^j)|| <= 2^j times the step tail, which is each member's
reported bound: at most 1e-14, and below it for members short of the
group's top, whose cut is set by the longest chain (Higham, SIAM J. Matrix
Anal. Appl. 26, 2005; Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31,
2009). A time alone in its group is cut at 1e-14 / 2^j as on its own. In the
symmetric frame the 2-norm bounds every entry, so an entry of a table is off
by at most 2^j tail / sqrt(mu_x mu_y) (the inf-norm argument on R gives
2^j tail / mu_y). The bound covers the cut series only: each squaring also
doubles the rounding error of the row masses, which therefore drift from
exact by up to about Lambda t * eps, the conditioning of e^{-tH} itself. The
kernel is symmetric, sub-Markov (mass <= 1) and bounded by 1/mu.

Where only a few columns or entries of e^{-tH} are read, no table is built:
_chain_action applies sum_k c_k R_K^k to a block of vectors V >= 0 on the
graph's shared row-stochastic jump chain R (not R_s), one matrix-vector
product per term (Horner), with R_K the principal submatrix of R on a
vertex mask K (zero outside K). With
the weights c_k = pmf_k of the Poisson(Lambda t) series, cut where its tail
bound is below 1e-14 (Fox and Glynn, as above), the result for e^{-tH_K} V
is, before rounding, entrywise at most the exact one and below it by at
most tail * max V: pmf_k <= p_k, the cut weights miss at most tail in all,
and R_K^k has row sums <= 1. The bound is absolute, like the table's. The
series is not squared, so it takes about Lambda t terms: Lambda t above
MAX_BRIDGE_TERMS is refused with NTruncationExceeded, as the bridge sampler
refuses it. _killed_columns is the one place that masks it: it turns vertex
subsets and unit columns into one stacked action, which gives the killed
entries of minimal_heat_kernel and of paths.stay_probability_exact.
potential_class.kato_modulus integrates the same series in time with other
weights, unmasked.

Killed (Dirichlet) kernels on a subset K use the principal submatrix of H
(of S in killed_kernel), which keeps the full weighted degree on the
diagonal: mass lost through edges leaving K is absorbed, and the killed
kernels increase monotonically along any exhaustion toward the kernel of
the full graph. minimal_heat_kernel masks one ambient (Lambda, R) to each
member, one stack item per member, so every member goes through the same
monotone operations on nonnegative operands, and the computed killed values
are nondecreasing along an exhaustion exactly, not just up to rounding.

Two util.Cache instances, declared side by side, hold the heat tables by
(fingerprint, t) and paths.BridgeKernel by (fingerprint, t, y): at worst
256 n x n tables, and 129 (T, n) column tables plus each graph's one R.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (GraphMismatch, InputError, InvalidRate,
                     NTruncationExceeded, VertexOutsideExhaustion)
from .graphs import WeightedGraph, _is_id, require_connected, uniformize
from .util import Cache, check_time

DEFAULT_TAIL_CUTOFF = 1e-14
# largest Lambda t of a series summed one jump-chain step per term
MAX_BRIDGE_TERMS = 100_000


def _poisson_pmf(lam_t: float, cutoff: float):
    """Poisson(lam_t) pmf on 0..K for the first K whose tail bound <= cutoff.

    Weights are built outward from the mode m = floor(lam_t) by the ratios
    w_{k-1} = w_k k / lam_t and w_{k+1} = w_k lam_t / (k+1) (Fox and Glynn,
    CACM 31, 1988), so nothing overflows and far-left weights underflow to 0.
    Once K + 2 > lam_t every later ratio is at most lam_t / (K+2) < 1, so the
    weight beyond K is at most T = w_{K+1} / (1 - lam_t / (K+2)). The pmf is
    w / (fsum(w) + T): in exact arithmetic each entry is at most p_k, and
    tail = T / (fsum(w) + T) = 1 - sum(pmf) bounds both P(N > K) and
    sum_k (p_k - pmf_k) + P(N > K), the full weight error of the cut series.
    """
    if not (math.isfinite(lam_t) and lam_t >= 0.0):
        raise InvalidRate(f"Poisson rate {lam_t} must be finite and >= 0")
    if lam_t == 0.0:
        return np.array([1.0]), 0.0
    mode = int(lam_t)
    left = [1.0]
    for k in range(mode, 0, -1):
        left.append(left[-1] * k / lam_t)
        if left[-1] == 0.0:
            break
    w = [0.0] * (mode + 1 - len(left)) + left[::-1]
    running = math.fsum(w)
    k = mode
    while True:
        nxt = w[-1] * lam_t / (k + 1)
        if k + 2 > lam_t:
            bound = nxt / (1.0 - lam_t / (k + 2))
            # the running sum only screens; the cut is decided on fsum
            if bound <= cutoff * running:
                norm = math.fsum(w) + bound
                if bound / norm <= cutoff:
                    return np.array(w) / norm, bound / norm
        w.append(nxt)
        running += nxt
        k += 1


def _stepwise_weights(lam_t: float, cutoff: float = DEFAULT_TAIL_CUTOFF):
    """Poisson weights (pmf, tail) for a series taken one jump-chain step
    per term, cut at cutoff as _poisson_pmf describes.

    Refuses lam_t above MAX_BRIDGE_TERMS with NTruncationExceeded before any
    weight is built: the exact bridge sampler and _chain_action cannot square
    the series down, so their cost grows with lam_t.
    """
    if lam_t > MAX_BRIDGE_TERMS:
        raise NTruncationExceeded(
            f"lam*t = {lam_t:.3e} needs more jump-count terms than the cap "
            f"{MAX_BRIDGE_TERMS}")
    return _poisson_pmf(lam_t, cutoff)


def _chain_action(graph: WeightedGraph, coeffs, v: np.ndarray,
                  mask=None) -> np.ndarray:
    """sum_k coeffs[k] R_K^k v on the graph's jump chain, without a table.

    v is (n,), (n, m) or a stack (s, n, m); mask, if given, broadcasts
    against v and marks the vertex set K of each column, where R_K is R's
    principal submatrix on K, zero outside it (no mask: R itself). With
    coeffs >= 0 and v >= 0 every operation is monotone in its nonnegative
    operands, and every item of a stack goes through the same products as
    every other, so a smaller mask or v in one item gives a result no larger
    than the matching column of another, bit for bit. (BLAS may round the
    columns of one product differently, so columns of one item are not
    comparable that way.)
    """
    r = graph.jump_chain()[1]
    if mask is not None:
        v = v * mask
    # Horner, c_0 v + R_K (c_1 v + R_K (c_2 v + ...)): at Lambda t ~ 10^3 it
    # rounds several times less than a running sum of the terms c_k R_K^k v.
    # Not Paterson-Stockmeyer as in uniformized_exponential: its blocks need
    # the powers R_K^k, each an n^3 product, where a term here costs n^2
    out = coeffs[-1] * v
    for c in coeffs[-2::-1]:
        out = r @ out
        if mask is not None:
            out *= mask
        out += c * v
    return out


@dataclass
class UniformizationInfo:
    """How one e^{-tH} was built: the rate Lambda, the step series' term
    count, squarings = j, and tail_bound = 2^j times the step tail (at most
    1e-14). The bound holds in the 2-norm in the symmetric frame, where it
    puts an entry of p within tail_bound / sqrt(mu_x mu_y), and in the
    inf-norm otherwise (module docstring). presymmetrization_defect is the
    group's max |B_s - B_s^T| before the series was symmetrized; a chain
    whose R is not symmetric does not symmetrize and reports 0.0.
    """

    rate: float
    n_terms: int
    tail_bound: float
    squarings: int
    presymmetrization_defect: float = 0.0


def uniformized_exponential(h: np.ndarray, t: float):
    """e^{-t h} for a generator with nonnegative diagonal and <= 0 off-diagonal.

    The rate and the jump chain R come from graphs.uniformize. Scales and
    squares as the module docstring describes (by B B unless R is exactly
    symmetric); returns (matrix, UniformizationInfo).
    """
    check_time(t)
    _, e, info = next(_exponential_chain(
        *uniformize(np.asarray(h, dtype=float)), [t]))
    return e, info


def _exponential_chain(lam: float, r: np.ndarray, times):
    """Yield (t, e^{-t Lambda (I - R)}, UniformizationInfo) once for each
    distinct t in times, one scaling-and-squaring chain per step, with
    lam and r a rate and jump chain (module docstring).

    An exactly symmetric r runs in the symmetric frame; any other squares
    by B B. Times come out group by group, in increasing j within a group.
    Two n x n buffers serve every group, so the matrix yielded is
    overwritten once the chain advances: read or copy it first.
    """
    syrk = bool(np.array_equal(r, r.T))
    groups: dict = {}
    for t in times:
        lam_t = lam * t
        # j = ceil(log2(lam_t)), so that lam_t / 2^j <= 1
        j = ((math.ceil(lam_t) - 1).bit_length()
             if 1.0 < lam_t < math.inf else 0)
        groups.setdefault(math.ldexp(t, -j), {})[j] = float(t)
    # each group's members and the cut Poisson weights of its step
    series = [(members, *_poisson_pmf(
        lam * step, math.ldexp(DEFAULT_TAIL_CUTOFF, -max(members))))
        for step, members in groups.items()]
    needs = [_block_size(len(pmf) - 1) for _, pmf, _ in series]
    b, idle = np.empty(r.shape), np.empty(r.shape)
    # R, R^2, ...: the series basis, grown by each group to the block size
    # it needs and cut, after each series, to the most a later group needs
    powers = [r]
    for g, (members, pmf, tail) in enumerate(series):
        top = max(members)
        b, idle = _poisson_series(powers, pmf, b, idle, syrk)
        del powers[max(needs[g + 1:], default=0):]
        defect = 0.0
        # B_s is symmetric in exact arithmetic: measure what rounding left,
        # then replace it by (B_s + B_s^T) / 2, in the buffers
        if syrk:
            np.subtract(b, b.T, out=idle)
            defect = float(np.max(np.abs(idle, out=idle)))
            np.add(b, b.T, out=idle)
            idle *= 0.5
            b, idle = idle, b
        for k in range(top + 1):
            if k:
                # a symmetric B squares as B B^T, which goes to syrk
                np.matmul(b, b.T if syrk else b, out=idle)
                b, idle = idle, b
            if k in members:
                yield members[k], b, UniformizationInfo(
                    lam, len(pmf), math.ldexp(tail, k), k, defect)


def _poisson_series(powers: list, pmf: np.ndarray, out: np.ndarray,
                    idle: np.ndarray, syrk: bool):
    """sum_k pmf[k] R^k by Paterson-Stockmeyer (module docstring), in the
    n x n buffers out and idle: returns them as (sum, the other one).

    powers is the basis [R, R^2, ...] of the chain; it is extended in place
    up to R^s, s the block size of this series, and only that prefix is
    read. With syrk (R exactly symmetric), an even power R^{2i} is built as
    P P^T with P = R^i, which BLAS syrk computes; the sum is not
    symmetrized here.
    """
    r = powers[0]
    n = r.shape[0]
    m = len(pmf) - 1
    s = _block_size(m)
    # with blocks B_i = sum_{k<s} p_{is+k} R^k,
    # B = B_0 + R^s (B_1 + R^s (B_2 + ...)), Horner in R^s over the blocks
    for k in range(len(powers) + 1, s + 1):
        if syrk and k % 2 == 0:
            half = powers[k // 2 - 1]
            powers.append(np.matmul(half, half.T))
        else:
            powers.append(np.matmul(powers[-1], r))
    r_to_s = powers[s - 1]
    p = pmf.tolist()
    # each product writes into the idle buffer, which then serves as the
    # scratch for the block terms added to the other
    out.fill(0.0)
    top = m - m % s     # where the top block B_q starts
    if m and top == m:
        # a top block p_m I costs no product: start from p_m R^s + B_{q-1}
        np.multiply(r_to_s, p[m], out=out)
        top -= s
    for i in range(top, -1, -s):
        if i < top:
            np.matmul(out, r_to_s, out=idle)
            out, idle = idle, out
        # out += B_i, in place
        out.flat[::n + 1] += p[i]
        for c, power in zip(p[i + 1:i + s], powers):
            np.multiply(power, c, out=idle)
            out += idle
    return out, idle


@functools.cache
def _block_size(m: int) -> int:
    """Paterson-Stockmeyer block size s for a degree-m series.

    Building R^2..R^s takes s - 1 products and the Horner steps over the
    blocks floor(m/s) more, less one when s divides m (the top block is then
    p_m I); the smallest s of least total wins, and s = 1 is plain Horner.
    """
    return min(range(1, max(m, 1) + 1),
               key=lambda s: s - 1 + m // s - (m % s == 0))


# --------------------------------------------------------------- the table


@dataclass
class HeatKernelTable:
    """Dense kernel values p(t,x,y) for one graph at one time.

    values is exactly symmetric and entrywise nonnegative; each entry is
    within truncation_error_bound / sqrt(mu_x mu_y) of the exact kernel, up
    to rounding. presymmetrization_defect is max |B_s - B_s^T| of the step
    series of the chain that built the table, taken once per group when the
    series is symmetrized (module docstring): the gemm rounding of the
    series, not an asymmetry of values.
    """

    t: float
    values: np.ndarray
    mu: np.ndarray
    graph_key: bytes
    uniformization_rate: float
    truncation_error_bound: float
    presymmetrization_defect: float

    def mass(self) -> np.ndarray:
        """Row masses sum_z p(t,x,z) mu(z); sub-Markov means all <= 1."""
        return self.values @ self.mu

    def symmetry_defect(self) -> float:
        return float(np.max(np.abs(self.values - self.values.T)))


# ----------------------------------------------------------------- caching


_cache = Cache(capacity=256)
_bridge_cache = Cache(capacity=129)


def clear_kernel_cache() -> None:
    """Empty the heat-table cache and the bridge-kernel cache."""
    _cache.clear()
    _bridge_cache.clear()


def heat_semigroup(graph: WeightedGraph, t: float) -> HeatKernelTable:
    """Kernel table for the full graph at time t, cached per (graph, t).

    Requires a connected graph (strict positivity of every entry is part of
    the contract and cannot hold across components). The table is built in
    the symmetric frame (module docstring), so it is exactly symmetric and
    nonnegative, and each entry is within
    truncation_error_bound / sqrt(mu_x mu_y) of the exact kernel, up to
    rounding (HeatKernelTable).
    """
    return heat_semigroups(graph, [t])[0]


def heat_semigroups(graph: WeightedGraph, times) -> list:
    """heat_semigroup at each of times, the tables not cached built together.

    The missing times share their scaling-and-squaring chains, run on the
    graph's R_s (module docstring), so a time whose step another one shares
    costs its squarings only. Returns one table per entry of times, in
    order: the cached one, or the one this call inserted (not looked up
    again, which an eviction from the full cache could miss).
    """
    for t in times:
        check_time(t)
    require_connected(graph)
    key = graph.fingerprint()
    tables = {float(t): _cache.lookup((key, float(t))) for t in times}
    missing = [t for t, table in tables.items() if table is None]
    if missing:
        for t, e, info in _exponential_chain(*graph.symmetric_jump_chain(),
                                             missing):
            tables[t] = _cache.insert((key, t),
                                      _heat_table(graph, t, e, info))
    return [tables[float(t)] for t in times]


def _heat_table(graph: WeightedGraph, t: float, e: np.ndarray,
                info: UniformizationInfo) -> HeatKernelTable:
    """The table p = e / outer(sqrt(mu), sqrt(mu)) of e = e^{-tH_s}, built
    in one new array; p is exactly symmetric because e is."""
    root = np.sqrt(graph.mu)
    p = np.multiply.outer(root, root)
    np.divide(e, p, out=p)
    p.setflags(write=False)
    return HeatKernelTable(
        t=t, values=p, mu=graph.mu.copy(), graph_key=graph.fingerprint(),
        uniformization_rate=info.rate, truncation_error_bound=info.tail_bound,
        presymmetrization_defect=info.presymmetrization_defect)


# ------------------------------------------------------- killed kernels


def killed_kernel(graph: WeightedGraph, subset, t: float):
    """Killed kernel table values p_K(t,x,y) for x,y in sorted(subset).

    H_K is the principal submatrix of H on sorted(subset): its diagonal
    keeps the full ambient weighted degree, so edges leaving the subset act
    as absorption (Dirichlet condition). Built from S's principal submatrix
    S_K, p_K = e^{-tS_K} / outer(sqrt(mu_K), sqrt(mu_K)) is exactly symmetric.
    """
    check_time(t)
    idx = sorted({graph.resolve(v) for v in subset})
    if not idx:
        raise VertexOutsideExhaustion("empty subset")
    e, _ = uniformized_exponential(
        graph.symmetric_generator()[np.ix_(idx, idx)], t)
    root = np.sqrt(graph.mu[idx])
    return e / np.multiply.outer(root, root), idx


def _killed_columns(graph: WeightedGraph, t: float, subsets,
                    cols) -> np.ndarray:
    """Columns cols of e^{-tH_K} for each K in subsets, matrix-free.

    Returns the (len(subsets), n, len(cols)) stack of one _chain_action of
    the Poisson(Lambda t) series on the unit columns, one stack item per K
    masked to it, so every item goes through the same monotone operations
    (see the module docstring). Rows outside K are zero. Lambda t above
    MAX_BRIDGE_TERMS raises NTruncationExceeded.
    """
    check_time(t)
    mask = np.zeros((len(subsets), graph.n, 1), dtype=bool)
    for j, subset in enumerate(subsets):
        mask[j, [graph.resolve(v) for v in subset]] = True
    v = np.zeros((len(subsets), graph.n, len(cols)))
    for j, c in enumerate(cols):
        v[:, c, j] = 1.0
    pmf, _ = _stepwise_weights(graph.jump_chain()[0] * t)
    return _chain_action(graph, pmf, v, mask)


@dataclass
class Exhaustion:
    """Nested vertex subsets K_1 subset K_2 subset ... of an ambient graph:
    a list or tuple of lists or tuples, each vertex an integral index
    (graphs._is_id), not a label."""

    subsets: list

    def __post_init__(self):
        listed = (list, tuple)
        if not (isinstance(self.subsets, listed) and all(
                isinstance(s, listed) and all(map(_is_id, s))
                for s in self.subsets)):
            raise VertexOutsideExhaustion(f"exhaustion {self.subsets!r} is "
                                          "not a list of vertex-index lists")
        sets = [sorted(set(int(v) for v in s)) for s in self.subsets]
        if not sets:
            raise VertexOutsideExhaustion("exhaustion has no members")
        for a, b in zip(sets, sets[1:]):
            if not set(a) <= set(b):
                raise VertexOutsideExhaustion(
                    f"exhaustion members not nested: {a} not within {b}")
        self.subsets = sets


@dataclass
class MinimalKernelSequence:
    """Killed kernel values along an exhaustion, plus a convergence proxy."""

    t: float
    x: int
    y: int
    values: np.ndarray
    last_gap: float


def minimal_heat_kernel(graph: WeightedGraph, exhaustion: Exhaustion,
                        t: float, x, y) -> MinimalKernelSequence:
    """p_{K_n}(t,x,y) for each member of the exhaustion.

    One stacked action of the ambient series on [e_x, e_y], one stack item
    per member masked to it, gives the entries of every killed kernel
    (the mean of the (x, y) and (y, x) routes) without building a table.
    The sequence is nondecreasing in n exactly (see the module docstring);
    the gap between the last two values is reported as the convergence
    proxy for the minimal kernel. Lambda t above MAX_BRIDGE_TERMS raises
    NTruncationExceeded.
    """
    if not isinstance(exhaustion, Exhaustion):
        exhaustion = Exhaustion(exhaustion)
    x = graph.resolve(x)
    y = graph.resolve(y)
    first = exhaustion.subsets[0]
    if x not in first or y not in first:
        raise VertexOutsideExhaustion(
            f"vertices ({x},{y}) must lie in the first member {first}")
    e = _killed_columns(graph, t, exhaustion.subsets, [x, y])
    vals = 0.5 * (e[:, x, 1] / graph.mu[y] + e[:, y, 0] / graph.mu[x])
    gap = float(vals[-1] - vals[-2]) if len(vals) > 1 else float("nan")
    return MinimalKernelSequence(t=float(t), x=x, y=y, values=vals,
                                 last_gap=gap)


# ------------------------------------------------------------ axiom check


@dataclass
class AxiomReport:
    """Defects of the semigroup axioms for tables at s, t and s+t, and one
    (name, ok, detail) check per axiom against its tolerance."""

    s: float
    t: float
    chapman_kolmogorov_defect: float
    symmetry_defect: float
    mass_excess: float
    mass_deficit: float
    checks: list

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def rows(self):
        return [(self.s, self.t, self.chapman_kolmogorov_defect,
                 self.symmetry_defect, self.mass_excess, self.mass_deficit,
                 self.passed)]

    header = ("s", "t", "ck_defect", "symmetry_defect", "mass_excess",
              "mass_deficit", "passed")


def verify_axioms(table_s: HeatKernelTable, table_t: HeatKernelTable,
                  table_st: HeatKernelTable, ck_tol: float = 1e-10,
                  sym_tol: float = 1e-12,
                  mass_tol: float = 1e-12) -> AxiomReport:
    """Check the semigroup identity, symmetry and mass bounds numerically.

    table_st must belong to the same graph and sit at time s + t. A finite
    graph conserves mass, so every row mass must lie within mass_tol of 1.
    """
    keys = {table_s.graph_key, table_t.graph_key, table_st.graph_key}
    if len(keys) != 1:
        raise GraphMismatch("kernel tables come from different graphs")
    if abs((table_s.t + table_t.t) - table_st.t) > 1e-12 * max(1.0, table_st.t):
        raise InputError(
            f"times do not compose: {table_s.t} + {table_t.t} != {table_st.t}")
    mu = table_s.mu
    composed = table_s.values @ (mu[:, None] * table_t.values)
    ck = float(np.max(np.abs(composed - table_st.values)))
    sym = max(t.symmetry_defect() for t in (table_s, table_t, table_st))
    masses = np.concatenate([t.mass() for t in (table_s, table_t, table_st)])
    excess = float(np.max(masses) - 1.0)
    deficit = float(1.0 - np.min(masses))
    checks = [
        ("chapman_kolmogorov", ck <= ck_tol, f"defect {ck!r} > {ck_tol!r}"),
        ("symmetry", sym <= sym_tol, f"defect {sym!r} > {sym_tol!r}"),
        ("mass_window", excess <= mass_tol and deficit <= mass_tol,
         f"excess {excess!r}, deficit {deficit!r} outside {mass_tol!r}"),
    ]
    return AxiomReport(s=table_s.t, t=table_t.t,
                       chapman_kolmogorov_defect=ck, symmetry_defect=sym,
                       mass_excess=excess, mass_deficit=deficit,
                       checks=checks)
