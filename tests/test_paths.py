"""Jump paths, bridge sampling and the Monte Carlo estimators."""

import math
import sys

import numpy as np
import pytest

import heatlab as hl
from heatlab import paths
from heatlab.errors import (InputError, NonpositiveTime, NTruncationExceeded,
                            VertexNotInK)
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
    # the same stream gives the same bridge: the jump times are the
    # cumulative holding times, and self-jumps of the skeleton are dropped
    t = 0.9
    bk = bridge_kernel(p5, t, 4)
    for seed in range(20):
        path = sample_bridge(p5, 0, 4, t, np.random.default_rng(seed))
        (sel, z, gaps), = paths._bridge_skeletons(
            bk, 0, 1, np.random.default_rng(seed), with_gaps=True)
        assert sel.tolist() == [0]
        assert gaps.sum() == pytest.approx(t, rel=1e-15)
        times = np.cumsum(gaps[0, :-1])
        assert path.jumps == [(float(when), int(b)) for when, a, b in
                              zip(times, z[0, :-1], z[0, 1:]) if a != b]


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
    (x, y) bridges, evaluated on the estimators' skeletons and gaps."""
    w = np.broadcast_to(np.asarray(w, dtype=float), graph.n)
    fk = np.empty(n)
    for sel, z, gaps in paths._bridge_skeletons(
            bridge_kernel(graph, t, y), x, n, np.random.default_rng(seed),
            with_gaps=True):
        fk[sel] = np.exp(-(w[z] * gaps).sum(axis=1))
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
            est = feynman_kac_trace_mc(g, w, 0.7, 200, seed=3, threads=g.n)
            assert (est.mean, est.std_error) == (ref.mean, ref.std_error)
            kernels = list(paths._bridge_cache._data.values())
            assert len(kernels) == g.n
            # every kernel references the graph's one read-only R
            assert {id(bk.r) for bk in kernels} == {id(g.jump_chain()[1])}
            assert not kernels[0].r.flags.writeable
    finally:
        sys.setswitchinterval(interval)


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
