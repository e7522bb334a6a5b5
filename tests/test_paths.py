"""Jump paths, bridge sampling and the Monte Carlo estimators."""

import json
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import heatlab as hl
from heatlab import cli, kernels, paths, util
from heatlab.errors import (InputError, NonpositiveTime, NTruncationExceeded,
                            VertexNotInK, ZeroKernel)
from heatlab.kernels import heat_semigroup
from heatlab.paths import (BridgeKernel, JumpPath, bridge_kernel,
                           feynman_kac_trace_mc, no_jump_lower_bound,
                           pnfb_probability, sample_bridge, sample_free_path,
                           stay_probability_exact)

TWO_VERTEX_STAY = 0.6480542736638855   # 2 e^{-1} / (1 + e^{-2})


# ---------------------------------------------------------------- JumpPath


def test_path_mechanics():
    path = JumpPath(start=0, jumps=[(0.25, 1), (0.75, 0)], horizon=1.0)
    assert path.value_at(0.0) == 0
    assert path.value_at(0.5) == 1
    assert path.value_at(1.0) == 0
    assert path.final_state() == 0
    assert path.jump_count() == 2


def test_path_validation():
    with pytest.raises(InputError):
        JumpPath(start=0, jumps=[(1.5, 1)], horizon=1.0)
    with pytest.raises(InputError):
        JumpPath(start=0, jumps=[(0.5, 1), (0.25, 0)], horizon=1.0)
    with pytest.raises(InputError):
        JumpPath(start=0, jumps=[(0.25, 0)], horizon=1.0)  # no-op jump
    with pytest.raises(InputError):
        JumpPath(start=0, jumps=[], horizon=1.0).value_at(1.5)


# -------------------------------------------------------------- free paths


def test_free_path_no_jump_frequency(two_vertex):
    rng = np.random.default_rng(7)
    n = 4000
    t = 1.0
    stuck = sum(sample_free_path(two_vertex, 0, t, rng).jump_count() == 0
                for _ in range(n)) / n
    p = math.exp(-t)            # degree 1
    se = math.sqrt(p * (1 - p) / n)
    assert abs(stuck - p) <= 3 * se + 3.0 / n


@pytest.mark.parametrize("t", [float("nan"), float("inf"), 0.0, -1.0])
def test_free_path_rejects_invalid_time(p5, t):
    # refused before the first holding time is drawn
    with pytest.raises(NonpositiveTime):
        sample_free_path(p5, 2, t, np.random.default_rng(0))


def test_free_path_determinism(p5):
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(123)
        runs.append([sample_free_path(p5, 2, 1.0, rng).jumps
                     for _ in range(50)])
    assert runs[0] == runs[1]


# ----------------------------------------------------------------- bridges


def test_bridge_endpoints(p5):
    rng = np.random.default_rng(11)
    for x, y in ((0, 4), (2, 2), (4, 1)):
        for _ in range(25):
            path = sample_bridge(p5, x, y, 0.9, rng)
            assert path.start == x
            assert path.final_state() == y
            assert path.horizon == 0.9


def test_bridge_midpoint_marginal():
    # P(gamma(t/2) = z) proportional to p(t/2,x,z) p(t/2,z,y) mu(z)
    g = hl.path_graph(3)
    t, x, y = 1.2, 0, 2
    half = heat_semigroup(g, t / 2).values
    weights = half[x, :] * half[:, y] * g.mu
    probs = weights / weights.sum()
    rng = np.random.default_rng(5)
    n = 6000
    counts = np.zeros(3)
    for _ in range(n):
        counts[sample_bridge(g, x, y, t, rng).value_at(t / 2)] += 1
    freq = counts / n
    for z in range(3):
        se = math.sqrt(probs[z] * (1 - probs[z]) / n)
        assert abs(freq[z] - probs[z]) <= 4 * se + 4.0 / n


def test_bridge_no_jump_probability(two_vertex):
    # for x = y the no-jump weight is e^{-t Deg} / (p mu); frozen at t = 1
    rng = np.random.default_rng(3)
    n = 8000
    stuck = sum(sample_bridge(two_vertex, 0, 0, 1.0, rng).jump_count() == 0
                for _ in range(n)) / n
    se = math.sqrt(TWO_VERTEX_STAY * (1 - TWO_VERTEX_STAY) / n)
    assert abs(stuck - TWO_VERTEX_STAY) <= 3 * se


def test_sample_bridge_is_one_path_of_the_estimators_sampler(p5):
    # the same stream gives the same bridge: its states are the sampler's
    # yields, its jump times the cumulative normalized exponentials, and
    # self-jumps of the skeleton are dropped; the FK exponent the trace
    # estimator folds from the same yields is the integral along the path
    t = 0.9
    w = np.array([1.0, -0.5, 0.0, 0.5, 2.0])
    bk = bridge_kernel(p5, t, 4)
    for seed in range(20):
        path = sample_bridge(p5, 0, 4, t, np.random.default_rng(seed))
        steps = list(paths._bridge_steps(
            bk, 0, 1, np.random.default_rng(seed), with_gaps=True))
        assert all(lo == 0 and z.shape == e.shape == (1,)
                   for lo, z, e in steps)
        z = [int(s[1][0]) for s in steps]
        e = np.array([s[2][0] for s in steps])
        assert z[0] == 0 and z[-1] == 4
        times = np.cumsum(e[:-1] * (t / e.sum()))
        assert path.jumps == [(float(when), b) for when, a, b in
                              zip(times, z, z[1:]) if a != b]
        ends = [0.0] + [when for when, _ in path.jumps] + [t]
        integral = math.fsum(w[path.value_at(a)] * (b - a)
                             for a, b in zip(ends, ends[1:]))
        folded = t * (w[z] * e).sum() / e.sum()
        assert folded == pytest.approx(integral, rel=1e-12, abs=1e-15)


def dense_counts(bk, x, n_samples, rng):
    """The sampler's jump counts, ascending: n_samples draws from the count
    law of the (x, bk.y) bridge."""
    probs, _ = bk.count_distribution(x)
    cum = np.cumsum(probs)
    u = rng.random(n_samples) * cum[-1]
    return np.sort(np.minimum(np.searchsorted(cum, u, side="right"),
                              np.flatnonzero(probs)[-1]))


def dense_bridge_steps(bk, x, n_samples, rng, with_gaps=False):
    """Reference for paths._bridge_steps: one categorical draw per step over
    all n columns of the dense rows R[z, :] * R^j[:, y]."""
    counts = dense_counts(bk, x, n_samples, rng)
    moving = int(np.count_nonzero(counts))
    ex = ey = None
    if with_gaps:
        ex = rng.standard_exponential(n_samples)
        ey = rng.standard_exponential(moving)
    z = np.full(n_samples, x, dtype=np.intp)
    yield 0, z.copy(), ex
    for j in range(counts[-1] - 1, 0, -1):
        lo = int(np.count_nonzero(counts <= j))
        row_cum = np.cumsum(bk.r[z[lo:], :] * bk.powers[j][None, :], axis=1)
        draw = rng.random(n_samples - lo) * row_cum[:, -1]
        z[lo:] = np.minimum((row_cum <= draw[:, None]).sum(axis=1),
                            bk.r.shape[1] - 1)
        e = rng.standard_exponential(n_samples - lo) if with_gaps else None
        yield lo, z[lo:].copy(), e
    if moving:
        yield n_samples - moving, np.full(moving, bk.y, dtype=np.intp), ey


def _balanced_path(n):
    # end measures halved: every vertex has degree 2, so R has a zero
    # diagonal and a jump count of the parity of the endpoints' distance
    mu = np.ones(n)
    mu[[0, -1]] = 0.5
    return hl.WeightedGraph(mu, [(i, i + 1, 1.0) for i in range(n - 1)])


def _sampler_graph(kind, size, seed):
    if kind == "bipartite":
        return _balanced_path(size)
    if kind == "two":
        return hl.two_vertex()
    return hl.random_connected_graph(size, seed, edge_prob=0.4)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["random", "bipartite", "two"]),
       size=st.integers(min_value=2, max_value=9),
       seed=st.integers(min_value=0, max_value=10_000),
       lam_t=st.floats(min_value=0.05, max_value=200.0),
       ends=st.tuples(st.integers(min_value=0, max_value=8),
                      st.integers(min_value=0, max_value=8)),
       n_samples=st.integers(min_value=1, max_value=120),
       with_gaps=st.booleans())
# x == y through the vertex with R[x, x] = 0
@example(kind="random", size=6, seed=3, lam_t=40.0, ends=(0, 0),
         n_samples=50, with_gaps=True)
# parity on a bipartite path: every other count is empty
@example(kind="bipartite", size=5, seed=0, lam_t=12.0, ends=(0, 3),
         n_samples=120, with_gaps=False)
# nj in {0, 1} only, with and without self-jumps
@example(kind="two", size=2, seed=0, lam_t=0.05, ends=(0, 1),
         n_samples=100, with_gaps=True)
@example(kind="random", size=4, seed=8, lam_t=0.05, ends=(2, 2),
         n_samples=100, with_gaps=False)
# lambda t ~ 200, many samples
@example(kind="random", size=9, seed=17, lam_t=200.0, ends=(1, 4),
         n_samples=1500, with_gaps=True)
# one path at lambda t = 200: fewer paths stepping than rows on every
# step, so each row is computed per path
@example(kind="random", size=9, seed=29, lam_t=200.0, ends=(0, 5),
         n_samples=1, with_gaps=True)
# 1500 paths: the low remaining counts step with more paths than rows (one
# row table per count), the top ones with fewer
@example(kind="bipartite", size=9, seed=4, lam_t=60.0, ends=(2, 6),
         n_samples=1500, with_gaps=False)
def test_batched_sampler_draws_the_dense_samplers_bits(
        kind, size, seed, lam_t, ends, n_samples, with_gaps):
    g = _sampler_graph(kind, size, seed)
    x, y = (v % g.n for v in ends)
    bk = bridge_kernel(g, lam_t / g.jump_chain()[0], y)
    try:
        bk.count_distribution(x)
    except (NTruncationExceeded, ZeroKernel):
        reject()
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = list(dense_bridge_steps(bk, x, n_samples, ref_rng, with_gaps))
    got = list(paths._bridge_steps(bk, x, n_samples, rng, with_gaps))
    assert len(got) == len(ref)
    for (lo, z, e), (ref_lo, ref_z, ref_e) in zip(got, ref):
        assert lo == ref_lo
        assert z.dtype == ref_z.dtype
        assert np.array_equal(z, ref_z)
        if with_gaps:
            assert e.tobytes() == ref_e.tobytes()
        else:
            assert e is None
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _padded_cumsum(weights):
    """Cumulative rows of hand-made slot weights, each ending in a pad of
    weight 0, as the sampler's rows over row_support do."""
    rows = np.asarray(weights, dtype=float).reshape(len(weights), -1)
    return np.cumsum(np.hstack([rows, np.zeros((len(rows), 1))]), axis=1)


_TINY = 5e-324   # the least subnormal: u * total rounds up to total


@pytest.mark.parametrize("weights, u, pick", [
    # draws equal to a threshold go past it, as the dense <= counts them
    ([[0.25, 0.25, 0.25, 0.25]] * 4, [0.0, 0.25, 0.5, 0.75], [0, 1, 2, 3]),
    # zero-weight slots mid-row repeat a cumulative value; the pick skips
    # them, draws on the repeated value included
    ([[0.5, 0.0, 0.0, 0.5]] * 4, [0.0, 0.25, 0.5, 0.75], [0, 0, 3, 3]),
    # an all-zero leading prefix: even a zero draw lands on the first
    # slot of positive weight
    ([[0.0, 0.0, 0.0, 2.0, 2.0]] * 3, [0.0, 0.5, 0.75], [3, 4, 4]),
    # u = nextafter(1, 0) stays below a normal total (last weighted slot)
    # and rounds up to a subnormal one: the dense count clamps at the pad
    ([[1.0, 2.0, 0.0], [_TINY, 0.0, _TINY]], [np.nextafter(1.0, 0.0)] * 2,
     [1, 3]),
    # width-1 rows, the pad alone, with a zero total
    ([[]] * 3, [0.0, 0.5, np.nextafter(1.0, 0.0)], [0, 0, 0]),
    # a single active path
    ([[0.1, 0.2, 0.3, 0.0]], [0.5], [2]),
], ids=["tie", "zero-mid-row", "zero-prefix", "u-rounds-to-total",
        "width-1", "one-path"])
def test_first_above_pick_is_the_dense_count(weights, u, pick):
    cum = _padded_cumsum(weights)
    draw = np.asarray(u) * cum[:, -1]
    dense = (cum[:, :-1] <= draw[:, None]).sum(axis=1)
    got = paths._first_above(cum, draw)
    assert got.tolist() == dense.tolist() == pick


def test_first_above_pick_matches_the_dense_count_on_random_rows():
    # rows with many zero slots and draws on, between and past thresholds
    rng = np.random.default_rng(7)
    for width in (1, 2, 3, 9, 21):
        w = rng.integers(0, 3, size=(500, width - 1)) * 0.125
        cum = _padded_cumsum(w)
        draws = [rng.random(500) * cum[:, -1],
                 cum[np.arange(500), rng.integers(0, width, 500)],
                 np.nextafter(1.0, 0.0) * cum[:, -1]]
        for draw in draws:
            dense = (cum[:, :-1] <= draw[:, None]).sum(axis=1)
            assert paths._first_above(cum, draw).tolist() == dense.tolist()


def _rate64_graph():
    base = hl.random_connected_graph(150, 5, edge_prob=0.04)
    g = hl.WeightedGraph(base.mu * base.jump_chain()[0] / 64.0, base.edges)
    assert g.jump_chain()[0] == pytest.approx(64.0, rel=1e-12)
    return g


def _pnfb_peak_bytes(g, n_samples, t=3.0):
    """tracemalloc peak of a pnfb estimate on the whole vertex set at t,
    with the bridge kernel built beforehand."""
    bridge_kernel(g, t, 0)
    tracemalloc.start()
    try:
        est = pnfb_probability(g, 0, range(g.n), t, n_samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.mean == 1.0
    return peak


def test_sampler_working_memory_is_bounded():
    # n = 150, lambda = 64, t = 3: about 190 steps for each of 20000 paths.
    # Holding every skeleton and its uniforms at once peaks near 90 MB;
    # keeping each path's current vertex alone keeps the peak a few MB.
    assert _pnfb_peak_bytes(_rate64_graph(), 20_000) < 16e6


def test_sampler_builds_no_count_indexed_table():
    # 10 paths at lambda t = 192: a table indexed by remaining count, vertex
    # and row slot would hold ~7 MB, the kernel's (T, n) column table
    # ~370 KB; the sampler keeps one count's rows at a time
    g = _rate64_graph()
    assert _pnfb_peak_bytes(g, 10) < bridge_kernel(g, 3.0, 0).powers.nbytes


def test_sampler_memory_grows_with_paths_not_counts():
    # lambda t = 192 against 48: four times the steps per path, and the
    # same per-path state and per-step rows
    g = _rate64_graph()
    assert _pnfb_peak_bytes(g, 5000) <= 1.5 * _pnfb_peak_bytes(g, 5000, 0.75)


def test_sampler_sweeps_each_remaining_count_once():
    # 1000 pnfb paths at lambda t = 192: one pick per remaining count j =
    # top - 1, ..., 1, each over the paths with more than j jumps, which
    # grow as j falls
    g = _rate64_graph()
    bk = bridge_kernel(g, 3.0, 0)
    seed, n_samples = 4, 1000
    counts = dense_counts(bk, 0, n_samples, np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed))))
    top = int(counts[-1])
    sizes = []

    def record(cum, draw):
        sizes.append(draw.size)
        return pick(cum, draw)

    pick = paths._first_above
    with mock.patch.object(paths, "_first_above", record):
        pnfb_probability(g, 0, range(g.n), 3.0, n_samples, seed)
    assert len(sizes) == top - 1 <= len(bk.pmf) - 2
    assert sizes == [int(np.count_nonzero(counts > j))
                     for j in range(top - 1, 0, -1)]


class _TopDraws:
    """A generator stand-in whose every uniform is the largest float below
    1, 1 - 2**-53, and every exponential 1."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0 ** -53)

    def standard_exponential(self, size):
        return np.ones(size)


def test_top_count_draw_lands_on_a_count_of_positive_mass(two_vertex):
    # 0 -> 1 on the two-vertex graph at t = 0.25 needs an odd count; the
    # cut keeps counts 0..10, and probs.sum() exceeds cumsum(probs)[-1] by
    # an ulp, so a draw scaled by the sum went past the last cumulative
    # value and was clamped onto the even count 10, of mass 0
    bk = bridge_kernel(two_vertex, 0.25, 1)
    probs, denom = bk.count_distribution(0)
    assert len(probs) == 11 and probs[-1] == 0.0
    assert (1.0 - 2.0 ** -53) * denom >= np.cumsum(probs)[-1]
    steps = list(paths._bridge_steps(bk, 0, 3, _TopDraws(), with_gaps=True))
    z = np.array([s[1] for s in steps])
    assert len(steps) == 10     # x, steps for j = 8, ..., 1, then y
    assert probs[len(steps) - 1] > 0.0
    assert np.all(z[1:] != z[:-1]) and np.all(z[-1] == 1)


def test_bridge_count_distribution_matches_kernel(two_vertex):
    bk = bridge_kernel(two_vertex, 1.0, 1)
    probs, denom = bk.count_distribution(0)
    # denominator recovers e^{-tH}[x,y] = p * mu
    assert denom == pytest.approx(0.5 * (1 - math.exp(-2)), abs=1e-13)
    assert probs.sum() == pytest.approx(denom, abs=1e-15)
    # parity: x != y on a bipartite two-vertex graph needs an odd jump count
    assert probs[0] == 0.0
    rng = np.random.default_rng(13)
    n = 5000
    odd = sum(sample_bridge(two_vertex, 0, 1, 1.0, rng).jump_count() % 2
              for _ in range(n)) / n
    assert odd == 1.0


def test_clear_kernel_cache_empties_bridge_cache(two_vertex):
    bk = bridge_kernel(two_vertex, 0.75, 0)
    assert bridge_kernel(two_vertex, 0.75, 0) is bk
    hl.clear_kernel_cache()
    assert bridge_kernel(two_vertex, 0.75, 0) is not bk


@pytest.mark.parametrize("t", [0.3, 2.0])
def test_bridge_count_mass_matches_expm(registry, t):
    # the count law's mass is [e^{-tH}]_{xy} for every pinned column y
    from scipy.linalg import expm

    g = registry["random20"][0]
    ref = expm(-t * g.generator_matrix())
    for y in range(g.n):
        bk = bridge_kernel(g, t, y)
        assert bk.powers.shape == (len(bk.pmf), g.n)
        for x in range(g.n):
            assert bk.count_distribution(x)[1] == pytest.approx(
                ref[x, y], abs=1e-13)


def test_bridge_kernels_are_keyed_by_pinned_vertex(p5):
    hl.clear_kernel_cache()     # kernels are cached by content, not object
    a = bridge_kernel(p5, 0.6, 1)
    assert bridge_kernel(p5, 0.6, 1) is a
    assert bridge_kernel(p5, 0.6, 3) is not a
    assert bridge_kernel(p5, 0.6, 3).y == 3
    # kernels at every (t, y) share the graph's one R
    assert bridge_kernel(p5, 1.1, 3).r is a.r is p5.jump_chain()[1]


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -0.5])
def test_bridge_kernel_rejects_invalid_time(p5, t):
    with pytest.raises(NonpositiveTime):
        BridgeKernel(p5, t, 1)
    with pytest.raises(NonpositiveTime):
        sample_bridge(p5, 0, 1, t, np.random.default_rng(0))


def test_bridge_time_reversal_symmetry():
    g = hl.path_graph(3)
    n = 4000
    rng = np.random.default_rng(17)
    fwd = np.mean([sample_bridge(g, 0, 2, 1.0, rng).jump_count()
                   for _ in range(n)])
    rng = np.random.default_rng(18)
    bwd = np.mean([sample_bridge(g, 2, 0, 1.0, rng).jump_count()
                   for _ in range(n)])
    # jump counts have the same law under reversal; compare loosely
    assert abs(fwd - bwd) <= 0.15


def bridge_functional_mc(graph, x, y, w, t, n, seed):
    """Mean and standard error of exp(-int_0^t w(gamma(s)) ds) over n exact
    (x, y) bridges, folded from the estimators' sampler as the trace
    estimator folds it."""
    w = np.broadcast_to(np.asarray(w, dtype=float), graph.n)
    weighted, total = np.zeros(n), np.zeros(n)
    for lo, z, e in paths._bridge_steps(
            bridge_kernel(graph, t, y), x, n, np.random.default_rng(seed),
            with_gaps=True):
        weighted[lo:] += w[z] * e
        total[lo:] += e
    fk = np.exp(-t * weighted / total)
    return fk.mean(), fk.std(ddof=1) / math.sqrt(n)


def test_bridge_functional_constant_potential(two_vertex):
    # constant w makes the integrand deterministic: exp(-c t), zero variance
    mean, se = bridge_functional_mc(two_vertex, 0, 1, 0.5, 1.0, 200, seed=1)
    assert mean == pytest.approx(math.exp(-0.5), abs=1e-14)
    assert se <= 1e-15


def test_bridge_functional_against_kernel_ratio(two_vertex):
    # E^{x,y}[e^{-int w}] = [e^{-t(H+w)}]_{xy} / [e^{-tH}]_{xy}
    from scipy.linalg import expm

    w = np.array([1.0, 0.0])
    t = 1.0
    h = two_vertex.generator_matrix()
    num = expm(-t * (h + np.diag(w)))[0, 0]
    den = expm(-t * h)[0, 0]
    mean, se = bridge_functional_mc(two_vertex, 0, 0, w, t, 40_000, seed=9)
    assert abs(mean - num / den) <= 3 * se


# --------------------------------------------------------- trace estimator


def test_fk_trace_constant_potential_exact(p5):
    # every bridge contributes exactly e^{-ct}, so the estimate equals
    # e^{-ct} tr e^{-tH} with zero standard error
    c, t = 0.8, 0.6
    est = feynman_kac_trace_mc(p5, c, t, 50, seed=4)
    exact = hl.trace_semigroup(p5, c, t)
    assert est.mean == pytest.approx(exact, rel=1e-12)
    assert est.std_error <= 1e-14


def test_fk_trace_three_sigma(p5):
    w = np.array([1.0, -0.5, 0.0, 0.5, 2.0])
    est = feynman_kac_trace_mc(p5, w, 1.0, 20_000, seed=31)
    exact = hl.trace_semigroup(p5, w, 1.0)
    assert abs(est.mean - exact) <= 3 * est.std_error
    assert est.std_error <= 0.01 * exact


def test_fk_trace_thread_invariant(p5):
    w = np.array([1.0, -0.5, 0.0, 0.5, 2.0])
    a = feynman_kac_trace_mc(p5, w, 1.0, 5000, seed=7, threads=1)
    b = feynman_kac_trace_mc(p5, w, 1.0, 5000, seed=7, threads=4)
    assert a.mean == b.mean
    assert a.std_error == b.std_error


def test_fk_trace_builds_each_kernel_once_under_thread_stress(registry):
    # workers build the per-vertex kernels concurrently into one cache
    base = registry["random20"][0]
    w = np.linspace(-0.5, 1.0, base.n)
    hl.clear_kernel_cache()
    ref = feynman_kac_trace_mc(base, w, 0.7, 200, seed=3, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            hl.clear_kernel_cache()
            # a fresh copy, so the workers also race to build its R
            g = hl.WeightedGraph(base.mu, base.edges, labels=base.labels)
            # one worker per vertex, more than this host's CPUs
            with mock.patch.object(util.os, "cpu_count", return_value=g.n):
                est = feynman_kac_trace_mc(g, w, 0.7, 200, seed=3,
                                           threads=g.n)
            assert (est.mean, est.std_error) == (ref.mean, ref.std_error)
            kernels = list(paths._bridge_cache._data.values())
            assert len(kernels) == g.n
            # every kernel references the graph's one read-only R and its
            # one row-support table
            assert {id(bk.r) for bk in kernels} == {id(g.jump_chain()[1])}
            assert {id(bk.cols) for bk in kernels} == {id(g.row_support()[0])}
            assert not kernels[0].r.flags.writeable
    finally:
        sys.setswitchinterval(interval)


def _pool_recorder(asked):
    """A stand-in for ThreadPoolExecutor that appends its max_workers to
    asked and maps in the calling thread, so no thread is started."""
    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)
    return Pool


@pytest.mark.parametrize("threads,items,cpus,workers", [
    (100_000, 10, 4, 4), (3, 10, 4, 3), (100_000, 2, 4, 2),
    (100_000, 10, None, None), (1, 10, 4, None), (8, 1, 4, None)])
def test_parallel_map_caps_workers(threads, items, cpus, workers):
    # at most one worker per item and per CPU; None: no pool at all
    asked = []
    pool = _pool_recorder(asked)
    with mock.patch("concurrent.futures.ThreadPoolExecutor", pool), \
            mock.patch.object(util.os, "cpu_count", return_value=cpus):
        got = util.parallel_map(lambda v: v * v, range(items), threads)
    assert got == [v * v for v in range(items)]
    assert asked == ([] if workers is None else [workers])


def test_fk_trace_with_huge_thread_count_is_capped_and_invariant(p5):
    w = np.array([1.0, -0.5, 0.0, 0.5, 2.0])
    ref = feynman_kac_trace_mc(p5, w, 1.0, 500, seed=7, threads=1)
    asked = []
    pool = _pool_recorder(asked)
    with mock.patch("concurrent.futures.ThreadPoolExecutor", pool), \
            mock.patch.object(util.os, "cpu_count", return_value=2):
        est = feynman_kac_trace_mc(p5, w, 1.0, 500, seed=7, threads=100_000)
    assert asked == [2]
    assert (est.mean, est.std_error) == (ref.mean, ref.std_error)


@pytest.mark.parametrize("n", [0, -2, 2.7, True, "5", np.float64(3.0)])
@pytest.mark.parametrize("estimate", ["fk", "pnfb"])
def test_estimators_refuse_a_sample_count_that_is_not_an_integer_ge_1(
        p5, estimate, n):
    # 0 used to return a nan mean with a RuntimeWarning, -2 to raise numpy's
    # ValueError and 2.7 to run 2 samples
    with pytest.raises(InputError, match="n_samples"):
        if estimate == "fk":
            feynman_kac_trace_mc(p5, 0.0, 1.0, n, seed=0)
        else:
            pnfb_probability(p5, 2, [1, 2, 3], 1.0, n, seed=0)


def test_estimators_take_a_numpy_integer_sample_count(p5):
    a = feynman_kac_trace_mc(p5, 0.5, 1.0, np.int64(40), seed=3)
    b = pnfb_probability(p5, 2, [1, 2, 3], 1.0, np.int32(40), seed=3)
    assert type(a.n_samples) is int and a.n_samples == 40
    assert type(b.n_samples) is int and b.n_samples == 40
    assert a == feynman_kac_trace_mc(p5, 0.5, 1.0, 40, seed=3)


def test_fk_trace_seed_determinism(two_vertex):
    a = feynman_kac_trace_mc(two_vertex, [0.0, 2.0], 1.0, 2000, seed=5)
    b = feynman_kac_trace_mc(two_vertex, [0.0, 2.0], 1.0, 2000, seed=5)
    c = feynman_kac_trace_mc(two_vertex, [0.0, 2.0], 1.0, 2000, seed=6)
    assert a.mean == b.mean
    assert a.mean != c.mean


# ----------------------------------------------------- boundary detection


def test_stay_probability_identity_single_vertex(two_vertex):
    # K = {x}: the exact ratio equals the no-jump bound
    ratio = stay_probability_exact(two_vertex, 0, [0], 1.0)
    bound = no_jump_lower_bound(two_vertex, 0, 1.0)
    assert ratio == pytest.approx(TWO_VERTEX_STAY, abs=1e-13)
    assert bound == pytest.approx(ratio, abs=1e-13)


def test_stay_probability_exact_path_center(p5):
    assert stay_probability_exact(p5, 2, [1, 2, 3], 1.0) == pytest.approx(
        0.9473504932945755, abs=1e-12)


def test_pnfb_full_set_is_certain(p5):
    est = pnfb_probability(p5, 2, list(range(5)), 1.0, 500, seed=2)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_pnfb_requires_membership(p5):
    with pytest.raises(VertexNotInK):
        pnfb_probability(p5, 0, [1, 2, 3], 1.0, 100, seed=0)
    with pytest.raises(VertexNotInK):
        stay_probability_exact(p5, 0, [1, 2, 3], 1.0)


def test_exact_ratio_and_bound_read_the_pnfb_kernels_count_mass(
        p5, monkeypatch):
    # p(t,x,x) mu(x) has one source: the diagonal bridge kernel that
    # pnfb_probability builds, whose count mass the exact functions reuse
    x, members, t = 2, [1, 2, 3], 0.7
    pnfb_probability(p5, x, members, t, 100, seed=5)
    mass = bridge_kernel(p5, t, x).count_distribution(x)[1]
    builds, actions = [], []
    init, action = BridgeKernel.__init__, kernels._chain_action

    def record_build(self, *args):
        builds.append(args)
        init(self, *args)

    def record_action(*args, **kwargs):
        actions.append(args)
        return action(*args, **kwargs)

    monkeypatch.setattr(BridgeKernel, "__init__", record_build)
    monkeypatch.setattr(kernels, "_chain_action", record_action)
    bound = no_jump_lower_bound(p5, x, t)
    assert bound == np.exp(-t * p5.degree(x)) / mass
    assert builds == [] and actions == []
    ratio = stay_probability_exact(p5, x, members, t)
    assert builds == [] and len(actions) == 1
    killed = kernels._killed_columns(p5, t, [members], [x])[0, x, 0]
    assert ratio == killed / mass


def test_exact_functions_refuse_an_unresolved_return_mass(tmp_path):
    # mu(0) = 1e-6 makes p(20,0,0) mu(0) ~ 5e-7, which the Poisson cut
    # (tail ~4e-15) resolves only to ~9e-9 relative: the ratio would rest
    # on it
    g = hl.WeightedGraph([1e-6, 1.0, 1.0], [(0, 1, 1e-6), (1, 2, 1.0)])
    t = 20.0
    for call in (lambda: stay_probability_exact(g, 0, [0, 1], t),
                 lambda: no_jump_lower_bound(g, 0, t),
                 lambda: pnfb_probability(g, 0, [0, 1], t, 10, seed=0)):
        with pytest.raises(NTruncationExceeded):
            call()
    hl.save_graph(g, tmp_path / "g.graph")
    cfg = tmp_path / "pnfb.json"
    cfg.write_text(json.dumps({
        "kind": "pnfb", "name": "pnfb", "graph": "g.graph", "x": 0,
        "K": [0, 1], "t_list": [t], "samples": 10, "seed": 0}))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_pnfb_against_exact_ratio(p5):
    est = pnfb_probability(p5, 2, [1, 2, 3], 1.0, 20_000, seed=99)
    exact = stay_probability_exact(p5, 2, [1, 2, 3], 1.0)
    assert abs(est.mean - exact) <= 3 * (est.std_error + 1.0 / est.n_samples)


def test_pnfb_dominates_no_jump_bound(p5):
    for t in (1.0, 0.25):
        est = pnfb_probability(p5, 2, [1, 2, 3], t, 10_000, seed=1)
        bound = no_jump_lower_bound(p5, 2, t)
        assert est.mean >= bound - 3 * est.std_error - 1e-3


def test_bridge_cap_guard():
    # enormous lam*t with a hard cap must refuse rather than truncate badly
    g = hl.WeightedGraph([1e-6, 1e-6], [(0, 1, 1.0)])  # degree 1e6
    with pytest.raises(NTruncationExceeded):
        bridge_kernel(g, 50.0, 0).count_distribution(0)
