"""Heat kernel tables: closed forms, axioms, killing, serialization."""

import decimal
import math
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import heatlab as hl
from heatlab import cli
from heatlab import kernels
from heatlab.errors import (DisconnectedGraph, GraphMismatch, HeatLabError,
                            InputError, InvalidRate, NonpositiveTime,
                            NTruncationExceeded, UnknownVertex,
                            VertexOutsideExhaustion)
from heatlab.graphs import WeightedGraph, uniformize
from heatlab.kernels import (DEFAULT_TAIL_CUTOFF, MAX_BRIDGE_TERMS,
                             Exhaustion, _poisson_pmf, heat_semigroup,
                             heat_semigroups, killed_kernel,
                             minimal_heat_kernel, uniformized_exponential,
                             verify_axioms)
from heatlab.paths import (bridge_kernel, feynman_kac_trace_mc,
                           no_jump_lower_bound, pnfb_probability,
                           stay_probability_exact)
from heatlab.potential_class import kato_modulus
from heatlab.util import Cache


def eigh_kernel_oracle(graph, t):
    """Independent route: numpy eigh of the symmetrized generator."""
    h = graph.generator_matrix()
    d = np.sqrt(graph.mu)
    s = h * d[:, None] / d[None, :]          # D^{1/2} H D^{-1/2}
    s = (s + s.T) / 2
    w, v = np.linalg.eigh(s)
    e = (v * np.exp(-t * w)) @ v.T
    return e / d[:, None] / d[None, :]


# ------------------------------------------------------------ closed forms


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.5, 96.0, 480.0])
def test_two_vertex_closed_form(two_vertex, t):
    tab = heat_semigroup(two_vertex, t)
    diag = 0.5 * (1 + math.exp(-2 * t))
    off = 0.5 * (1 - math.exp(-2 * t))
    expected = np.array([[diag, off], [off, diag]])
    assert np.max(np.abs(tab.values - expected)) <= 1e-13


@pytest.mark.parametrize("t", [0.3, 0.7, 1.4])
def test_triangle_closed_form(t):
    g = hl.complete_graph(3)
    tab = heat_semigroup(g, t)
    diag = (1 + 2 * math.exp(-3 * t)) / 3
    off = (1 - math.exp(-3 * t)) / 3
    assert tab.values[0, 0] == pytest.approx(diag, abs=1e-13)
    assert tab.values[0, 1] == pytest.approx(off, abs=1e-13)


def test_path5_center_value(p5):
    # frozen from the eigendecomposition route
    assert heat_semigroup(p5, 1.0).values[2, 2] == pytest.approx(
        0.3111679264026001, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_matches_eigendecomposition_oracle(seed):
    g = hl.random_connected_graph(9, seed)
    for t in (0.2, 1.0, 3.0):
        tab = heat_semigroup(g, t)
        assert np.max(np.abs(tab.values - eigh_kernel_oracle(g, t))) <= 1e-12


# ------------------------------------------------------- structural bounds


def test_kernel_nonnegative_and_bounded():
    g = hl.random_connected_graph(12, 4)
    tab = heat_semigroup(g, 0.8)
    assert np.all(tab.values >= 0)
    # p(t,x,y) <= 1/mu(y)
    assert np.all(tab.values <= 1.0 / tab.mu[None, :] + 1e-12)


def test_mass_conserved():
    g = hl.random_connected_graph(10, 8)
    for t in (0.1, 1.0, 10.0):
        mass = heat_semigroup(g, t).mass()
        assert np.max(np.abs(mass - 1.0)) <= 1e-12


def test_short_time_diagonal_limit():
    g = hl.random_connected_graph(7, 2)
    tab = heat_semigroup(g, 1e-9)
    assert np.max(np.abs(np.diag(tab.values) * g.mu - 1.0)) <= 1e-7


def test_diagonal_scan_monotone():
    g = hl.random_connected_graph(7, 2)
    # p(t,x,x) * mu(x) at x = 3 tends to 1 as t -> 0+
    vals = np.array([heat_semigroup(g, t).values[3, 3] * g.mu[3]
                     for t in (2.0, 1.0, 0.5, 0.25, 0.125)])
    assert np.all(np.diff(vals) > 0)         # grows as t decreases
    assert vals[-1] <= 1.0 + 1e-12


def test_rejects_nonpositive_time(two_vertex):
    with pytest.raises(NonpositiveTime):
        heat_semigroup(two_vertex, 0.0)
    with pytest.raises(NonpositiveTime):
        heat_semigroup(two_vertex, -1.0)


def test_rejects_disconnected():
    g = WeightedGraph([1.0] * 4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedGraph):
        heat_semigroup(g, 1.0)


# ------------------------------------------------------------ uniformization


def test_poisson_weights_match_pmf():
    lam_t = 3.7
    pmf, tail = _poisson_pmf(lam_t, DEFAULT_TAIL_CUTOFF)
    direct = [math.exp(-lam_t) * lam_t ** n / math.factorial(n)
              for n in range(len(pmf))]
    assert np.allclose(pmf, direct, atol=1e-15)
    assert 0 <= 1.0 - pmf.sum() <= 2e-14
    assert tail <= 1e-14


def test_uniformized_exponential_against_numpy():
    g = hl.random_connected_graph(6, 3)
    h = g.generator_matrix()
    w, v = np.linalg.eig(h)
    ref = (v @ np.diag(np.exp(-0.9 * w)) @ np.linalg.inv(v)).real
    out, info = uniformized_exponential(h, 0.9)
    assert np.max(np.abs(out - ref)) <= 1e-12
    assert info.rate == pytest.approx(float(np.max(np.diag(h))))
    assert info.tail_bound <= 1e-13


def exact_poisson_pmf(lam_t, size):
    """Poisson(lam_t) pmf on 0..size-1 from 40-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        lam = decimal.Decimal(lam_t)
        term = (-lam).exp()
        out = [float(term)]
        for k in range(1, size):
            term = term * lam / k
            out.append(float(term))
    return np.array(out)


def test_poisson_cut_is_stable_across_one_ulp():
    # a cut on the rounding noise of 1 - sum(pmf) kept 71 and 114 terms here
    assert len(_poisson_pmf(24.0, DEFAULT_TAIL_CUTOFF)[0]) == \
        len(_poisson_pmf(np.nextafter(24.0, 0), DEFAULT_TAIL_CUTOFF)[0])


@pytest.mark.parametrize("lam_t", [0.5, 1.0, 24.0, 192.0, 960.0])
def test_poisson_tail_bounds_the_true_tail(lam_t):
    pmf, tail = _poisson_pmf(lam_t, DEFAULT_TAIL_CUTOFF)
    assert scipy.stats.poisson.sf(len(pmf) - 1, lam_t) <= tail
    assert tail <= DEFAULT_TAIL_CUTOFF
    assert math.fsum(pmf) + tail == pytest.approx(1.0, abs=1e-15)
    # scipy's log-space pmf is itself off by 1.1e-14 at lam_t = 960, so the
    # reference is exact decimal arithmetic
    assert np.max(np.abs(pmf - exact_poisson_pmf(lam_t, len(pmf)))) <= 1e-15
    if lam_t <= 1.0:
        assert np.allclose(pmf, scipy.stats.poisson.pmf(
            np.arange(len(pmf)), lam_t), rtol=0, atol=1e-15)


@pytest.mark.parametrize("lam_t", [-1.0, -1e-300, math.nan, math.inf])
def test_poisson_weights_reject_invalid_rate(lam_t):
    assert issubclass(InvalidRate, HeatLabError)
    with pytest.raises(InvalidRate):
        _poisson_pmf(lam_t, DEFAULT_TAIL_CUTOFF)


LAM_TS = [0.0, 2.0 ** -20, 1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52, 192.0,
          960.0]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=60),
       seed=st.integers(min_value=0, max_value=10_000),
       lam_t=st.sampled_from(LAM_TS), killed=st.booleans(), data=st.data())
def test_property_uniformized_exponential_against_expm(n, seed, lam_t, killed,
                                                       data):
    g = hl.random_connected_graph(n, seed)
    if killed:
        subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                    max_size=n - 1, unique=True))
        idx = sorted(subset)
        h = g.generator_matrix()[np.ix_(idx, idx)]
    else:
        h = g.generator_matrix()
    # rate 1 makes Lambda t exactly lam_t; rate 0 is a graph without edges
    if lam_t:
        h, t = h / np.max(np.diag(h)), lam_t
    else:
        h, t = np.zeros_like(h), 1.0
    u, info = uniformized_exponential(h, t)
    assert np.all(u >= 0)
    assert info.tail_bound <= DEFAULT_TAIL_CUTOFF
    # e^{-tH} has condition about ||tH|| <= 2 lam_t, so every double
    # precision route, expm included, is accurate only to about lam_t * eps
    # (expm alone is off by 9e-14 at lam_t = 960 on graphs of n <= 8)
    assert np.max(np.abs(u - scipy.linalg.expm(-t * h))) <= \
        info.tail_bound + 1e-13 + lam_t * np.finfo(float).eps
    assert np.max(u.sum(axis=1)) <= 1.0 + 1e-12
    # j = ceil(log2(lam_t)) squarings, none at lam_t <= 1
    assert lam_t <= 2.0 ** info.squarings
    assert info.squarings == 0 or lam_t > 2.0 ** (info.squarings - 1)


def horner_exponential(pmf, r, j):
    """(sum_k pmf[k] R^k)^(2^j), the series by plain Horner, one product
    per term."""
    b = np.zeros_like(r)
    for p in pmf[::-1]:
        b = b @ r
        b[np.diag_indices_from(b)] += p
    for _ in range(j):
        b = b @ b
    return b


# (lam_t, per-step degree m, squarings j): m = 0 at Lambda = 0, m = 1 and 2
# (s = 1, plain Horner), the perfect squares 4, 9, 16 and the squares + 1
# 10, 17; a step rate in (1/2, 1] and a cut of 1e-14 / 2^j give m >= 15, so
# only the large degrees occur with j > 0
BLOCK_CASES = [(0.0, 0, 0), (1e-8, 1, 0), (1e-6, 2, 0), (1e-3, 4, 0),
               (0.15, 9, 0), (0.2, 10, 0), (1.0, 16, 0), (64.0, 17, 6),
               (100.0, 16, 7)]


@pytest.mark.parametrize("lam_t,m,j", BLOCK_CASES)
def test_block_split_matches_horner_and_expm(monkeypatch, lam_t, m, j):
    g = hl.random_connected_graph(12, 5)
    # rate 1 makes Lambda t exactly lam_t; rate 0 is a graph without edges
    h = g.generator_matrix()
    h, t = (h / np.max(np.diag(h)), lam_t) if lam_t else (0 * h, 1.0)
    step = math.ldexp(lam_t, -j)
    assert j == (math.ceil(math.log2(lam_t)) if lam_t > 1 else 0)
    pmf, tail = _poisson_pmf(step, math.ldexp(DEFAULT_TAIL_CUTOFF, -j))
    assert len(pmf) - 1 == m
    products = []

    def counting_matmul(*args, **kwargs):
        products.append(args[0].shape)
        return matmul(*args, **kwargs)

    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", counting_matmul)
    u, info = uniformized_exponential(h, t)
    monkeypatch.undo()
    assert info == kernels.UniformizationInfo(
        rate=1.0 if lam_t else 0.0, n_terms=m + 1,
        tail_bound=math.ldexp(tail, j), squarings=j)
    assert np.all(u >= 0)
    r = np.eye(len(h)) - h if lam_t else np.eye(len(h))
    assert np.max(np.abs(u - horner_exponential(pmf, r, j))) <= 1e-15 * 2 ** j
    assert np.max(np.abs(u - scipy.linalg.expm(-t * h))) <= \
        info.tail_bound + 1e-14 + lam_t * np.finfo(float).eps
    # Paterson-Stockmeyer: s - 1 powers, then one product per block below
    # the top one, none for a top block p_m I; then the j squarings
    s = kernels._block_size(m)
    series = 0 if m == 0 else s - 1 + m // s - (m % s == 0)
    assert len(products) == series + j
    assert series <= {0: 0, 1: 0, 2: 1, 4: 2, 9: 4, 10: 5, 16: 6, 17: 7}[m]


def test_block_size_minimizes_the_product_count():
    def cost(m, s):
        return s - 1 + m // s - (m % s == 0)

    for m in range(1, 200):
        s = kernels._block_size(m)
        assert all(cost(m, s) < cost(m, k) for k in range(1, s))
        assert all(cost(m, s) <= cost(m, k) for k in range(s, m + 1))
    # the degrees of every scaled step: 6 or 7 products, not 15 to 17
    assert [kernels._block_size(m) for m in (15, 16, 17, 18)] == [3, 4, 3, 3]


# ------------------------------------------------------------ the chains

EPS = np.finfo(float).eps


def chained(h, times):
    """{t: (e^{-th}, info)} from one _exponential_chain, each matrix copied
    out of the chain's buffers as it passes."""
    return {t: (e.copy(), info)
            for t, e, info in kernels._exponential_chain(*uniformize(h),
                                                         times)}


def unit_rate(graph):
    """The generator scaled to rate 1, so that Lambda t is t."""
    h = graph.generator_matrix()
    return h / np.max(np.diag(h))


# one chain of step 0.6 up to j = 9 (0.6 alone needs fewer terms than at
# the chain's cut), 2.1 and 4.2 on the step 0.525, and 0.7 (a third of 2.1)
# and 0.05 alone in their groups
CHAIN_TIMES = [0.6 * 2 ** j for j in range(10)] + [0.7, 2.1, 4.2, 0.05]


def test_chain_builds_each_power_of_its_basis_once(monkeypatch):
    # three groups whose series take block sizes 2 (Lambda t = 0.01), 4 (1
    # and 2) and 3 (3 and 6): one basis R^2..R^4 serves them all, and each
    # table is bit for bit the one its group's own chain yields
    r_s = hl.random_connected_graph(30, 4).symmetric_jump_chain()[1]
    groups = [[0.01], [1.0, 2.0], [3.0, 6.0]]
    # (step, largest j) of each group
    assert [kernels._block_size(len(_poisson_pmf(
        step, math.ldexp(DEFAULT_TAIL_CUTOFF, -j))[0]) - 1)
        for step, j in ((0.01, 0), (1.0, 1), (0.75, 3))] == [2, 4, 3]
    matmul = np.matmul
    products = {"powers": 0, "all": 0}

    def counting_matmul(*args, **kwargs):
        # a basis power is the only product not written into a buffer
        products["powers"] += "out" not in kwargs
        products["all"] += 1
        return matmul(*args, **kwargs)

    def tables(times):
        return {t: (e.copy(), info)
                for t, e, info in kernels._exponential_chain(1.0, r_s, times)}

    monkeypatch.setattr(np, "matmul", counting_matmul)
    alone = {}
    for times in groups:
        alone.update(tables(times))
    assert products == {"powers": 1 + 3 + 2, "all": 19}
    products.update(powers=0, all=0)
    shared = tables([t for times in groups for t in times])
    monkeypatch.undo()
    assert products == {"powers": 3, "all": 16}
    assert shared.keys() == alone.keys()
    for t, (e, info) in shared.items():
        assert e.tobytes() == alone[t][0].tobytes() and info == alone[t][1]


@pytest.mark.parametrize("seed", [0, 3])
def test_chain_matches_each_time_alone(seed):
    g = hl.random_connected_graph(30, seed)
    h = unit_rate(g)
    tables = chained(h, CHAIN_TIMES)
    assert sorted(tables) == sorted(CHAIN_TIMES)
    cuts = set()
    for t, (e, info) in tables.items():
        u, alone = uniformized_exponential(h, t)
        assert (info.rate, info.squarings) == (alone.rate, alone.squarings)
        assert info.tail_bound <= alone.tail_bound <= DEFAULT_TAIL_CUTOFF
        assert np.all(e >= 0)
        # both are within their own bound of e^{-th}, up to rounding
        assert np.max(np.abs(e - u)) <= \
            info.tail_bound + alone.tail_bound + 2 * max(t, 1.0) * EPS
        # the same step pmf (the same cut) gives the same table, bit for bit
        same_cut = info.n_terms == alone.n_terms
        if same_cut:
            assert np.array_equal(e, u) and info == alone
        cuts.add(same_cut)
    assert cuts == {True, False}
    # uniformized_exponential shares _poisson_series with the chain; hold
    # the symmetric-frame chain (R_s at rate 1) against expm of h carried
    # to that frame, which shares no code with it
    root = np.sqrt(g.mu)
    s = h * root[:, None] / root[None, :]
    r_s = g.symmetric_jump_chain()[1]
    served = set()
    for t, e, info in kernels._exponential_chain(1.0, r_s, CHAIN_TIMES):
        assert np.array_equal(e, e.T) and np.all(e >= 0)
        assert info.tail_bound <= DEFAULT_TAIL_CUTOFF
        assert np.max(np.abs(e - scipy.linalg.expm(-t * s))) <= \
            info.tail_bound + 1e-13 + t * EPS
        served.add(t)
    assert served == set(CHAIN_TIMES)


def spread_graph(n, seed, decades):
    """A random connected graph (a random recursive tree plus independent
    extra edges) whose mu and b are log-uniform over `decades` decades
    around 1."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(0, c)), c) for c in range(1, n)}
    edges |= {(i, j) for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.2}
    edges = sorted(edges)
    b = 10.0 ** rng.uniform(-decades / 2, decades / 2, len(edges))
    mu = 10.0 ** rng.uniform(-decades / 2, decades / 2, n)
    return WeightedGraph(mu, [(i, j, float(w)) for (i, j), w in zip(edges, b)])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=40),
       seed=st.integers(min_value=0, max_value=10_000),
       decades=st.sampled_from([0, 2, 4, 6]),
       lam_ts=st.lists(st.sampled_from([2.0 ** -10, 0.3, 1.0, 3.0, 24.0,
                                        100.0, 500.0, 1000.0]),
                       min_size=1, max_size=4))
def test_property_symmetric_frame_tables(n, seed, decades, lam_ts):
    g = spread_graph(n, seed, decades)
    lam = float(np.max(g.degrees()))
    times = [c / lam for c in lam_ts]
    hl.clear_kernel_cache()
    tables = heat_semigroups(g, times)
    # the reference: expm of D^{1/2} H D^{-1/2}, from the dense generator
    root = np.sqrt(g.mu)
    scale = np.outer(root, root)
    s = g.generator_matrix() * root[:, None] / root[None, :]
    s = 0.5 * (s + s.T)
    for lam_t, t, tab in zip(lam_ts, times, tables):
        p = tab.values
        assert np.array_equal(p, p.T)
        assert np.all(p >= 0)
        assert tab.truncation_error_bound <= DEFAULT_TAIL_CUTOFF
        assert 0.0 <= tab.presymmetrization_defect <= 1e-13
        # the 2-norm bound 2^j tail, per entry of p over sqrt(mu_x mu_y);
        # rounding adds about lam_t * eps to e^{-tH_s}, expm's included
        err = np.abs(p - scipy.linalg.expm(-t * s) / scale)
        allowed = tab.truncation_error_bound + 1e-14 + 4 * lam_t * EPS
        assert np.all(err * scale <= allowed)
        assert np.max(np.abs(tab.mass() - 1.0)) <= 1e-12


def test_symmetric_jump_chain_edge_cases():
    # Lambda = 0 (one vertex, no edges): R_s = I, and p = 1/mu
    g = WeightedGraph([0.3], [])
    lam, r = g.symmetric_jump_chain()
    assert lam == 0.0 and np.array_equal(r, np.eye(1))
    hl.clear_kernel_cache()
    tab = heat_semigroup(g, 2.0)
    assert tab.values[0, 0] == pytest.approx(1 / 0.3, rel=1e-15)
    assert tab.truncation_error_bound == 0.0
    # every vertex of a regular graph has Deg = Lambda: a zero diagonal
    lam, r = hl.complete_graph(4, b=0.7, mu=0.3).symmetric_jump_chain()
    assert lam == pytest.approx(7.0)
    assert np.all(np.diag(r) == 0.0)
    # one vertex of largest degree, on a spread graph
    g = spread_graph(12, 3, 4)
    lam, r = g.symmetric_jump_chain()
    top = np.flatnonzero(g.degrees() == lam)
    assert top.size == 1 and r[top[0], top[0]] == 0.0
    assert np.array_equal(r, r.T) and np.all(r >= 0)
    # the similarity transform of the row-stochastic R, up to rounding
    root = np.sqrt(g.mu)
    r_dense = g.jump_chain()[1] * root[:, None] / root[None, :]
    assert np.allclose(r, r_dense, rtol=1e-14, atol=0)
    # mu near the top of the float range, where Lambda * mu would overflow:
    # R_s[0,1] = b / sqrt(mu_0 mu_1) / Lambda = 1e-10, not 0
    g = WeightedGraph([1e300, 1e300, 1e-10], [(0, 1, 1e300), (1, 2, 1.0)])
    lam, r = g.symmetric_jump_chain()
    assert lam == pytest.approx(1e10)
    assert np.all(np.isfinite(r)) and np.array_equal(r, r.T)
    assert r[0, 1] == pytest.approx(1e-10, rel=1e-14)
    root = np.sqrt(g.mu)
    r_dense = g.jump_chain()[1] * root[:, None] / root[None, :]
    assert np.allclose(r, r_dense, rtol=1e-14, atol=0)


def test_scan_diagonals_match_the_tables():
    g = spread_graph(25, 4, 2)
    w = np.linspace(-1.0, 2.0, g.n)
    report = hl.semiclassical_scan(g, w)
    hl.clear_kernel_cache()
    tables = heat_semigroups(g, report.t_grid.tolist())
    # gt_rhs = sum_x p(t,x,x) e^{-w(x)} mu(x), p read off the scan's chain
    boltz = np.exp(-w)
    rhs = [float(np.sum(np.diag(tab.values) * boltz * g.mu))
           for tab in tables]
    assert np.allclose(report.gt_bounds, rhs, rtol=1e-14, atol=0)


def test_chain_ignores_order_and_duplicates():
    g = hl.random_connected_graph(20, 7)
    lam = g.jump_chain()[0]
    # lambda t = 0.25 and 0.5 are alone; 1, 2 and 8 share a chain, and so
    # do 0.75 and 3
    times = [c / lam for c in (0.25, 0.5, 1.0, 2.0, 8.0, 0.75, 3.0)]
    hl.clear_kernel_cache()
    ref = heat_semigroups(g, times)
    assert [tab.t for tab in ref] == times
    for order in (times[::-1], times[3:] + times + times[:2],
                  sorted(times)):
        hl.clear_kernel_cache()
        got = heat_semigroups(g, order)
        assert [tab.t for tab in got] == order
        by_time = {tab.t: tab for tab in got}
        assert all(by_time[tab.t] is tab for tab in got)
        for tab in ref:
            assert np.array_equal(by_time[tab.t].values, tab.values)
            assert by_time[tab.t].truncation_error_bound == \
                tab.truncation_error_bound


def test_batch_builds_only_what_the_cache_lacks(monkeypatch):
    g = hl.random_connected_graph(12, 2)
    lam = g.jump_chain()[0]
    s = 3.0 / lam
    hl.clear_kernel_cache()
    first = heat_semigroup(g, s)
    series = []
    poisson_series = kernels._poisson_series

    def counted(r, pmf, *buffers):
        series.append(len(pmf))
        return poisson_series(r, pmf, *buffers)

    monkeypatch.setattr(kernels, "_poisson_series", counted)
    # 2s and 4s share s's step: one series for both, none for s
    tables = heat_semigroups(g, [s, 2 * s, s, 4 * s])
    assert tables[0] is first and tables[2] is first
    assert len(series) == 1
    assert heat_semigroups(g, [4 * s, 2 * s]) == [tables[3], tables[1]]
    assert heat_semigroup(g, s) is first
    assert len(series) == 1


def test_batch_returns_its_tables_past_the_cache_capacity(two_vertex):
    # more times than the cache holds: the first ones are evicted before
    # the call returns, and must still come back
    times = [0.01 * k for k in range(1, 301)]
    hl.clear_kernel_cache()
    tables = heat_semigroups(two_vertex, times)
    assert [tab.t for tab in tables] == times
    assert tables[0].values[0, 1] == pytest.approx(
        0.5 * (1 - math.exp(-0.02)), abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=30),
       seed=st.integers(min_value=0, max_value=10_000),
       base=st.floats(min_value=2.0 ** -8, max_value=4.0),
       factors=st.lists(st.sampled_from([0.5, 1, 1.5, 2, 3, 4, 6, 16, 64]),
                        min_size=1, max_size=6))
def test_property_chain_against_expm(n, seed, base, factors):
    h = unit_rate(hl.random_connected_graph(n, seed))
    times = [base * f for f in factors]
    tables = chained(h, times)
    assert sorted(tables) == sorted(set(times))
    for t, (e, info) in tables.items():
        assert np.all(e >= 0)
        assert info.tail_bound <= DEFAULT_TAIL_CUTOFF
        assert np.max(np.abs(e - scipy.linalg.expm(-t * h))) <= \
            info.tail_bound + 1e-13 + t * EPS


@settings(max_examples=8, deadline=None)
@given(n=st.integers(min_value=2, max_value=60),
       seed=st.integers(min_value=0, max_value=10_000))
def test_property_verify_kernel_at_long_times(n, seed):
    with tempfile.TemporaryDirectory() as tmp:
        gp = Path(tmp) / "g.graph"
        hl.save_graph(hl.random_connected_graph(n, seed), gp)
        assert cli.main(["verify-kernel", "--graph", str(gp), "--s", "20",
                         "--t", "40", "--out", tmp]) == 0


def test_table_metadata(two_vertex):
    tab = heat_semigroup(two_vertex, 1.0)
    assert tab.uniformization_rate == pytest.approx(1.0)  # max degree
    assert tab.truncation_error_bound <= 1e-13
    assert tab.presymmetrization_defect <= 1e-13
    assert tab.symmetry_defect() == 0.0


# ------------------------------------------------------------------ axioms


@pytest.mark.parametrize("seed", [1, 6])
def test_axioms_on_random_graphs(seed):
    g = hl.random_connected_graph(8, seed)
    rep = verify_axioms(heat_semigroup(g, 0.4), heat_semigroup(g, 0.7),
                        heat_semigroup(g, 1.1))
    assert rep.passed
    assert rep.chapman_kolmogorov_defect <= 1e-10
    assert rep.symmetry_defect <= 1e-12
    assert rep.mass_excess <= 1e-12 and rep.mass_deficit <= 1e-12


def test_axioms_reject_mismatched_graphs():
    a = heat_semigroup(hl.path_graph(4), 0.5)
    b = heat_semigroup(hl.path_graph(5), 0.5)
    with pytest.raises(GraphMismatch):
        verify_axioms(a, a, b)


def test_axioms_reject_wrong_times(two_vertex):
    a = heat_semigroup(two_vertex, 0.5)
    with pytest.raises(InputError):
        verify_axioms(a, a, heat_semigroup(two_vertex, 1.5))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500),
       s=st.floats(min_value=0.05, max_value=2.0),
       t=st.floats(min_value=0.05, max_value=2.0))
def test_property_semigroup(seed, s, t):
    g = hl.random_connected_graph(6, seed)
    rep = verify_axioms(heat_semigroup(g, s), heat_semigroup(g, t),
                        heat_semigroup(g, s + t))
    assert rep.passed


# ----------------------------------------------------------------- killing


def test_killed_interior_of_path(p5):
    # killing outside K = {1,2,3} leaves a 3x3 block whose center value is
    # e^{-2} cosh(sqrt 2)
    p, idx = killed_kernel(p5, [1, 2, 3], 1.0)
    assert idx == [1, 2, 3]
    assert p[1, 1] == pytest.approx(math.exp(-2) * math.cosh(math.sqrt(2)),
                                    abs=1e-13)


def test_killed_below_full():
    g = hl.random_connected_graph(9, 5)
    p, idx = killed_kernel(g, [0, 1, 2, 3, 4], 0.7)
    full = heat_semigroup(g, 0.7).values
    sub = full[np.ix_(idx, idx)]
    assert np.all(p <= sub + 1e-14)
    assert np.all(p >= 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_killed_kernel_against_expm(seed):
    # built in the symmetric frame, the table needs no symmetrizing pass:
    # it is exactly symmetric and within 1e-14 of expm(-t H_K) / mu_y
    g = hl.random_connected_graph(12, seed)
    for subset in ([0, 1, 2, 3, 4, 5], [11, 9, 7, 5, 3, 1], range(12)):
        for t in (0.05, 0.7, 3.0, 20.0):
            p, idx = killed_kernel(g, subset, t)
            assert idx == sorted(subset)
            assert np.array_equal(p, p.T)
            h_k = g.generator_matrix()[np.ix_(idx, idx)]
            ref = scipy.linalg.expm(-t * h_k) / g.mu[idx][None, :]
            assert np.max(np.abs(p - ref)) <= 1e-14


def test_exhaustion_monotone_to_full():
    g = hl.random_connected_graph(10, 7)
    ex = Exhaustion([[0, 1, 2, 3], [0, 1, 2, 3, 4, 5, 6], list(range(10))])
    seq = minimal_heat_kernel(g, ex, 0.8, 0, 0)
    assert np.all(np.diff(seq.values) >= -1e-15)
    full = heat_semigroup(g, 0.8).values[0, 0]
    assert seq.values[-1] == pytest.approx(full, abs=1e-10)


@pytest.mark.parametrize("n, seed, order, x, lam_t", [
    (25, 154261, [24, 7, 0, 5, 19, 23, 11, 3, 8, 10, 6], 24, 8.0),
    (54, 523183, [23, 44, 45, 13, 32, 39, 51, 30, 52, 11], 23, 64.0),
])
def test_exhaustion_nondecreasing_bit_for_bit(n, seed, order, x, lam_t):
    # members growing one vertex at a time from five: BLAS may round the
    # last columns of one product differently, and with every member a
    # column of one block these sequences dip by an ulp
    g = hl.random_connected_graph(n, seed)
    subsets = [sorted(order[:k]) for k in range(5, len(order))]
    seq = minimal_heat_kernel(g, Exhaustion(subsets),
                              lam_t / g.jump_chain()[0], x, x)
    assert np.all(np.diff(seq.values) >= 0)


def test_exhaustion_requires_nesting():
    with pytest.raises(VertexOutsideExhaustion):
        Exhaustion([[0, 1], [1, 2]])


@pytest.mark.parametrize("bad", [[[0, 1], 5], 5, [{0, 1}], "01", None])
def test_exhaustion_must_be_lists_of_vertices(p5, bad):
    # a member, or the exhaustion itself, that is no list or tuple is an
    # input error, not a bare TypeError
    with pytest.raises(VertexOutsideExhaustion):
        Exhaustion(bad)
    with pytest.raises(VertexOutsideExhaustion):
        minimal_heat_kernel(p5, bad, 0.5, 0, 1)
    assert Exhaustion(((1, 0), [2, 0, 1])).subsets == [[0, 1], [0, 1, 2]]


@pytest.mark.parametrize("bad", [1.5, True, None])
def test_vertex_ids_are_not_cast(p5, bad):
    # a bool or fractional id used to be cast to vertex 1; an exhaustion,
    # which has no graph to look labels up in, takes no label either
    for member in (bad, "1"):
        with pytest.raises(VertexOutsideExhaustion):
            Exhaustion([[0, member]])
    ex = Exhaustion([[0, 1, 2]])
    with pytest.raises(UnknownVertex):
        minimal_heat_kernel(p5, ex, 0.5, bad, 1)
    with pytest.raises(UnknownVertex):
        minimal_heat_kernel(p5, ex, 0.5, 1, 1.9)
    with pytest.raises(UnknownVertex):
        killed_kernel(p5, [0, bad], 0.5)


def test_exhaustion_requires_vertices_in_first_member(p5):
    ex = Exhaustion([[0, 1], [0, 1, 2, 3, 4]])
    with pytest.raises(VertexOutsideExhaustion):
        minimal_heat_kernel(p5, ex, 0.5, 4, 4)


@st.composite
def exhaustions(draw):
    """A random connected graph, a nested exhaustion ending anywhere, two
    vertices of its first member, and a rate-scaled time."""
    n = draw(st.integers(min_value=2, max_value=60))
    g = hl.random_connected_graph(n, draw(st.integers(0, 10_000)))
    order = draw(st.permutations(range(n)))
    sizes = sorted(set(draw(st.lists(st.integers(1, n), min_size=1,
                                     max_size=5))))
    x, y = draw(st.sampled_from(order[:sizes[0]])), \
        draw(st.sampled_from(order[:sizes[0]]))
    lam_t = draw(st.sampled_from([2.0 ** -20, 0.5, 8.0, 192.0, 960.0]))
    return g, [sorted(order[:k]) for k in sizes], x, y, lam_t


@settings(max_examples=40, deadline=None)
@given(case=exhaustions())
def test_property_matrix_free_entries_against_expm(case):
    g, subsets, x, y, lam_t = case
    h = g.generator_matrix()
    t = lam_t / float(np.max(np.diag(h)))
    # rounding: expm and the series both carry about lam_t * eps. The cut
    # is certified in absolute terms: every entry of e^{-tH_K} is within
    # the Poisson tail, which decides only entries far below it, such as
    # those of vertices several steps apart at tiny lam_t.
    rel = 1e-12 + lam_t * np.finfo(float).eps
    _, tail = _poisson_pmf(g.jump_chain()[0] * t, DEFAULT_TAIL_CUTOFF)
    refs = []
    for subset in subsets:
        e = scipy.linalg.expm(-t * h[np.ix_(subset, subset)])
        i, j = subset.index(x), subset.index(y)
        refs.append(0.5 * (e[i, j] / g.mu[y] + e[j, i] / g.mu[x]))
    seq = minimal_heat_kernel(g, Exhaustion(subsets), t, x, y)
    np.testing.assert_allclose(
        seq.values, refs, rtol=rel,
        atol=0.5 * tail * (1 / g.mu[x] + 1 / g.mu[y]))
    assert np.all(np.diff(seq.values) >= 0)
    full = scipy.linalg.expm(-t * h)[x, x]
    killed = scipy.linalg.expm(-t * h[np.ix_(subsets[0], subsets[0])])
    pos = subsets[0].index(x)
    assert stay_probability_exact(g, x, subsets[0], t) == pytest.approx(
        killed[pos, pos] / full, rel=rel + 2 * tail / full)
    # exp(-t Deg(x)) underflows at long times; the quotient is then denormal
    assert no_jump_lower_bound(g, x, t) == pytest.approx(
        math.exp(-t * g.degree(x)) / full, rel=rel + tail / full,
        abs=1e-300)


def test_matrix_free_callers_build_no_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a dense heat table was built")

    hl.clear_kernel_cache()
    monkeypatch.setattr(kernels, "_poisson_series", no_table)
    g = hl.random_connected_graph(12, 4)
    w = np.linspace(-1.0, 2.0, g.n)
    assert kato_modulus(g, w, 0.7) > 0
    seq = minimal_heat_kernel(g, Exhaustion([[0, 1, 2], list(range(12))]),
                              0.7, 0, 1)
    assert seq.values[-1] >= seq.values[0] > 0
    assert 0 < stay_probability_exact(g, 0, [0, 1, 2], 0.7) <= 1
    assert no_jump_lower_bound(g, 0, 0.7) > 0
    assert feynman_kac_trace_mc(g, w, 0.7, 50, seed=1).mean > 0
    assert 0 <= pnfb_probability(g, 0, [0, 1, 2], 0.7, 50, seed=1).mean <= 1


def test_matrix_free_callers_refuse_lam_t_above_cap():
    g = hl.WeightedGraph([1e-6, 1e-6], [(0, 1, 1.0)])    # degree 1e6
    t = 2 * MAX_BRIDGE_TERMS / 1e6
    for call in (lambda: minimal_heat_kernel(g, [[0, 1]], t, 0, 1),
                 lambda: stay_probability_exact(g, 0, [0], t),
                 lambda: no_jump_lower_bound(g, 0, t)):
        with pytest.raises(NTruncationExceeded):
            call()


def test_matrix_free_callers_reject_disconnected():
    g = WeightedGraph([1.0] * 4, [(0, 1, 1.0), (2, 3, 1.0)])
    for call in (lambda: stay_probability_exact(g, 0, [0, 1], 1.0),
                 lambda: no_jump_lower_bound(g, 0, 1.0),
                 lambda: feynman_kac_trace_mc(g, 0.0, 1.0, 10, seed=0)):
        with pytest.raises(DisconnectedGraph):
            call()
    # killing needs no connected ambient graph, as before
    seq = minimal_heat_kernel(g, [[0, 1]], 1.0, 0, 1)
    assert seq.values[0] == pytest.approx(0.5 * (1 - math.exp(-2.0)),
                                          rel=1e-13)


# ----------------------------------------------------------------- caching


def test_cache_evicts_oldest_and_keeps_first_insert():
    cache = Cache(capacity=2)
    assert cache.insert("a", 1) == 1
    assert cache.insert("a", 2) == 1            # the first insert wins
    assert cache.get("b", lambda: 3) == 3
    assert cache.get("b", lambda: 4) == 3       # a hit builds nothing
    cache.insert("c", 5)                        # full: "a" goes first
    assert cache.lookup("a") is None
    assert (cache.lookup("b"), cache.lookup("c")) == (3, 5)
    cache.clear()
    assert cache.lookup("b") is None


def test_kernel_caches_have_their_capacities(two_vertex):
    hl.clear_kernel_cache()
    tables = heat_semigroups(two_vertex, [0.01 * k for k in range(1, 258)])
    assert kernels._cache.lookup((two_vertex.fingerprint(), 0.01)) is None
    assert kernels._cache.lookup((two_vertex.fingerprint(), 0.02)) \
        is tables[1]
    for y in (0, 1):
        for k in range(1, 66):
            bridge_kernel(two_vertex, 0.01 * k, y)
    assert len(kernels._bridge_cache._data) == 129
    hl.clear_kernel_cache()
    assert not kernels._cache._data and not kernels._bridge_cache._data


def test_cache_returns_same_table(two_vertex):
    hl.clear_kernel_cache()
    a = heat_semigroup(two_vertex, 0.5)
    b = heat_semigroup(two_vertex, 0.5)
    assert a is b


def test_cache_is_thread_consistent():
    hl.clear_kernel_cache()
    g = hl.random_connected_graph(8, 1)
    seen = []

    def worker():
        seen.append(heat_semigroup(g, 0.321))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert all(tab is seen[0] for tab in seen)
