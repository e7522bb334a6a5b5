"""Weighted graph construction, validation and serialization."""

import copy
import json
import pickle
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatlab as hl
from heatlab.errors import (AsymmetricWeights, DisconnectedGraph,
                            HeatLabError, InputError, NegativeWeight,
                            NonpositiveMeasure, SelfLoop, UnknownVertex)
from heatlab.graphs import WeightedGraph, require_connected, uniformize
from heatlab.torus import TorusModel, cosine_well


def test_basic_construction(two_vertex):
    assert two_vertex.n == 2
    assert np.array_equal(two_vertex.mu, [1.0, 1.0])
    assert two_vertex.edges == ((0, 1, 1.0),)


def test_degree_uses_measure():
    g = WeightedGraph([2.0, 1.0], [(0, 1, 3.0)])
    assert g.degree(0) == pytest.approx(1.5)
    assert g.degree(1) == pytest.approx(3.0)
    assert np.allclose(g.degrees(), [1.5, 3.0])


def test_generator_rows_sum_to_zero():
    g = hl.random_connected_graph(8, 3)
    h = g.generator_matrix()
    assert np.allclose(h @ np.ones(g.n), 0.0, atol=1e-12)
    # diagonal carries the degree, off-diagonal the scaled negative weights
    assert np.allclose(np.diag(h), g.degrees())


def test_laplacian_sign_convention():
    # generator = -laplacian: H f = -(L f), with L from the edge formula
    # (L f)(x) = -(1/mu(x)) sum_y b(x,y) (f(x) - f(y))
    g = WeightedGraph([2.0, 1.0, 0.5], [(0, 1, 3.0), (1, 2, 0.25)])
    f = np.array([1.0, -2.0, 0.5])
    lap = np.array([-sum(b * (f[x] - f[y])
                         for y, b in zip(*g.neighbors(x))) / g.mu[x]
                    for x in range(g.n)])
    assert np.allclose(g.generator_matrix() @ f, -lap, atol=1e-14)


def test_dirichlet_energy_two_vertex(two_vertex):
    # <f, Hf>_mu = (1/2) sum_{x,y} b(x,y) (f(x)-f(y))^2, both orientations
    f = np.array([0.0, 1.0])
    h = two_vertex.generator_matrix()
    assert f @ (two_vertex.mu * (h @ f)) == pytest.approx(1.0)


def _graph(seed):
    return hl.random_connected_graph(60, seed)


def _torus(seed):
    return TorusModel(2, (1.0, 2.0), 3 + seed, cosine_well((1.0, 2.0)))


# every util.once method: (name, a fresh owner, the call)
SHARED = [
    ("edges", _graph, lambda g: g.edges),
    ("fingerprint", _graph, WeightedGraph.fingerprint),
    ("jump_chain", _graph, WeightedGraph.jump_chain),
    ("row_support", _graph, WeightedGraph.row_support),
    ("components", _graph, WeightedGraph.components),
    ("lattice", _torus, TorusModel.lattice),
    ("eigenvalues", _torus, TorusModel.eigenvalues),
    ("coefficient_table", _torus, TorusModel.coefficient_table),
    ("axis_models", _torus, TorusModel.axis_models),
]


@pytest.mark.parametrize("owner, call", [(o, c) for _, o, c in SHARED],
                         ids=[name for name, _, _ in SHARED])
def test_once_value_is_shared_under_thread_stress(owner, call):
    # threads released together all get the one value stored first
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(5):
            obj = owner(seed)
            barrier = threading.Barrier(8)

            def build(_):
                barrier.wait(timeout=30)
                return call(obj)

            with ThreadPoolExecutor(max_workers=8) as pool:
                values = list(pool.map(build, range(8)))
            assert all(v is values[0] for v in values)
            assert call(obj) is values[0]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("copy_of", [
    copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["deepcopy", "pickle"])
def test_copies_start_with_an_empty_memo(copy_of):
    # a lock cannot be copied, so a copy rebuilds what it reads
    g, m = hl.random_connected_graph(12, 4), TorusModel(1, (1.0,), 4)
    r, lattice = g.jump_chain()[1], m.lattice()
    g2, m2 = copy_of(g), copy_of(m)
    assert g2._memo.lookup("jump_chain") is None
    assert g2.jump_chain()[1].tobytes() == r.tobytes()
    assert g2.fingerprint() == g.fingerprint()
    assert m2 == m and m2.lattice().tobytes() == lattice.tobytes()


def test_jump_chain_is_shared_read_only():
    g = hl.random_connected_graph(12, 4)
    lam, r = g.jump_chain()
    assert g.jump_chain()[1] is r
    assert not r.flags.writeable


def test_row_support_is_built_apart_from_the_chain():
    # the chain's readers other than the bridge sampler pay for R alone
    g = hl.random_connected_graph(12, 4)
    r = g.jump_chain()[1]
    assert g._memo.lookup("row_support") is None
    cols, vals = g.row_support()
    assert g._memo.lookup("row_support")[0] is cols
    assert g.row_support()[0] is cols
    for z in range(g.n):
        nz = np.flatnonzero(r[z])
        assert cols[z, :nz.size].tolist() == nz.tolist()
        assert vals[z, :nz.size].tobytes() == r[z, nz].tobytes()
        assert not np.any(vals[z, nz.size:])


OPERATOR_GRAPHS = {
    **{name: g for name, (g, _) in hl.fixture_registry().items()},
    "lambda0": WeightedGraph([0.3], []),
    "mu-extreme": WeightedGraph([1e300, 1e300, 1e-10],
                                [(0, 1, 1e300), (1, 2, 1.0)]),
    "b-subnormal": WeightedGraph([1.0, 1e300, 0.5],
                                 [(0, 1, 5e-324), (1, 2, 1.0), (0, 2, 2.0)]),
    "spread": WeightedGraph(
        10.0 ** np.linspace(-6, 6, 7),
        [(i, j, 10.0 ** ((3 * i + 5 * j) % 13 - 6))
         for i in range(7) for j in range(i + 1, 7) if (i + j) % 3]),
}


@pytest.mark.parametrize("name", sorted(OPERATOR_GRAPHS))
def test_scattered_chains_are_the_uniformized_generators(name):
    # each operator is one scatter of the edge table; the jump chains must
    # be uniformize() of the generators bit for bit, on extreme mu and b too
    g = OPERATOR_GRAPHS[name]
    lam, r = uniformize(g.generator_matrix())
    assert g.jump_chain()[0] == lam
    assert g.jump_chain()[1].tobytes() == r.tobytes()
    lam_s, r_s = uniformize(g.symmetric_generator())
    assert g.symmetric_jump_chain()[0] == lam_s == lam
    assert g.symmetric_jump_chain()[1].tobytes() == r_s.tobytes()
    s = g.symmetric_generator()
    assert np.array_equal(s, s.T) and np.array_equal(r_s, r_s.T)
    assert np.all(r >= 0) and np.all(r_s >= 0)
    # no underflowed off-diagonal of H or S is a negative zero
    for a in (g.generator_matrix(), s):
        assert not np.any(np.signbit(a[a == 0.0]))


def test_rejects_negative_weight():
    with pytest.raises(NegativeWeight):
        WeightedGraph([1.0, 1.0], [(0, 1, -0.5)])


def test_rejects_self_loop():
    with pytest.raises(SelfLoop):
        WeightedGraph([1.0, 1.0], [(0, 0, 1.0)])


def test_rejects_nonpositive_measure():
    with pytest.raises(NonpositiveMeasure):
        WeightedGraph([1.0, 0.0], [(0, 1, 1.0)])
    with pytest.raises(NonpositiveMeasure):
        WeightedGraph([1.0, -2.0], [(0, 1, 1.0)])


def test_rejects_conflicting_duplicate_edges():
    with pytest.raises(AsymmetricWeights):
        WeightedGraph([1.0, 1.0], [(0, 1, 1.0), (1, 0, 2.0)])


def test_duplicate_edges_with_equal_weight_merge():
    g = WeightedGraph([1.0, 1.0], [(0, 1, 1.0), (1, 0, 1.0)])
    assert g.edges == ((0, 1, 1.0),)


def test_rejects_unknown_vertex():
    with pytest.raises(UnknownVertex):
        WeightedGraph([1.0, 1.0], [(0, 5, 1.0)])


def test_zero_weight_edges_dropped():
    g = WeightedGraph([1.0, 1.0, 1.0], [(0, 1, 1.0), (1, 2, 0.0)])
    assert g.edges == ((0, 1, 1.0),)
    assert len(g.components()) == 2


def test_components_and_connectivity():
    g = WeightedGraph([1.0] * 4, [(0, 1, 1.0), (2, 3, 1.0)])
    comps = g.components()
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3]]
    with pytest.raises(DisconnectedGraph):
        require_connected(g)


def test_resolve_labels():
    g = WeightedGraph([1.0, 1.0], [(0, 1, 1.0)], labels=("a", "b"))
    assert g.resolve("b") == 1
    assert g.resolve(0) == 0
    with pytest.raises(UnknownVertex):
        g.resolve("zz")


@pytest.mark.parametrize("key", [1, 1.0, np.int64(1), np.uint8(1),
                                 np.float64(1.0), np.float32(1.0),
                                 np.float16(1.0)])
def test_resolve_takes_integral_numbers(key):
    assert hl.path_graph(3).resolve(key) == 1


@pytest.mark.parametrize("key", [True, False, np.bool_(True), 1.7, -0.5,
                                 float("nan"), float("inf"), None, [1],
                                 10 ** 400, 3, -1, np.float32(1.5),
                                 np.float32("nan"), np.float32("inf")])
def test_resolve_refuses_what_is_not_an_index(key):
    # a bool or a fractional id is not cast to an index
    with pytest.raises(UnknownVertex):
        hl.path_graph(3).resolve(key)


def test_text_format_round_trip():
    g = hl.random_connected_graph(6, 11)
    assert hl.loads_graph(hl.dumps_graph(g)).fingerprint() == g.fingerprint()


def test_text_parse_rejects_gaps():
    text = "graph g\nv 0 1.0\nv 2 1.0\ne 0 2 1.0\n"
    with pytest.raises(InputError):
        hl.loads_graph(text)


def test_text_parse_rejects_garbage_line():
    with pytest.raises(InputError):
        hl.loads_graph("graph g\nv 0 1.0\nv 1 1.0\nq 0 1\n")


def test_json_format_parses():
    doc = {"vertices": [{"id": 0, "mu": 1.0}, {"id": 1, "mu": 2.0}],
           "edges": [{"u": 0, "v": 1, "b": 0.5}]}
    g = hl.loads_graph(json.dumps(doc))
    assert g.n == 2
    assert g.edges == ((0, 1, 0.5),)
    assert g.mu[1] == 2.0


@pytest.mark.parametrize("doc,where", [
    ({"vertices": [{"id": 0}]}, r"vertices\[0\]"),
    ({"vertices": [{"id": 0, "mu": 1.0}, {"id": "b", "mu": 1.0}]},
     r"vertices\[1\]"),
    ({"vertices": [[0, 1.0], [1]]}, r"vertices\[1\]"),
    ({"vertices": [0, 1]}, r"vertices\[0\]"),
    ({"vertices": [[0, None]]}, r"vertices\[0\]"),
    ({"vertices": [[0, 1.0], [1, 1.0]], "edges": [{"u": 0, "b": 1.0}]},
     r"edges\[0\]"),
    ({"vertices": [[0, 1.0], [1, 1.0]], "edges": [[0, 1, 1.0], [0, "x", 1]]},
     r"edges\[1\]"),
    ({"vertices": {"id": 0}}, "'vertices' must be an array"),
    ({"vertices": [[0, 1.0], [1, 1.0]], "edges": ["011"]}, r"edges\[0\]"),
    ({"vertices": [[0, 1.0]], "edges": 3}, "'edges' must be an array"),
], ids=["vertex-no-mu", "vertex-bad-id", "vertex-short-list",
        "vertex-scalar", "vertex-null-mu", "edge-no-v", "edge-bad-endpoint",
        "vertices-object", "edge-string", "edges-scalar"])
def test_json_parse_malformed_entry_is_input_error(doc, where):
    with pytest.raises(InputError, match=where):
        hl.loads_graph(json.dumps(doc))


def test_load_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError):
        hl.load_graph(tmp_path / "absent.graph")


def test_fingerprint_distinguishes_graphs():
    a = hl.path_graph(4)
    b = hl.path_graph(4, b=2.0)
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == hl.path_graph(4).fingerprint()
    # the key is the exact content: one ulp of one weight or of one mu
    # tells two graphs apart, and a zero-weight edge is no edge at all
    mu, edges = [1.0, 2.0, 3.0], [(0, 1, 0.5), (1, 2, 1.5)]
    key = WeightedGraph(mu, edges).fingerprint()
    ulp_b = [(0, 1, np.nextafter(0.5, 1.0)), (1, 2, 1.5)]
    assert WeightedGraph(mu, ulp_b).fingerprint() != key
    ulp_mu = [1.0, np.nextafter(2.0, 3.0), 3.0]
    assert WeightedGraph(ulp_mu, edges).fingerprint() != key
    assert WeightedGraph(mu, edges + [(0, 2, 0.0)]).fingerprint() == key


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=12),
       seed=st.integers(min_value=0, max_value=10_000))
def test_random_graphs_round_trip(n, seed):
    g = hl.random_connected_graph(n, seed)
    assert len(g.components()) == 1
    back = hl.loads_graph(hl.dumps_graph(g))
    assert back.fingerprint() == g.fingerprint()
    assert np.array_equal(back.mu, g.mu)


# --------------------------------------------- reference scalar constructor


def _scalar_graph(mu, edges):
    """The per-edge constructor the array one replaced, kept as a reference:
    (edges, degrees, generator, components, fingerprint), or the error."""
    mu = np.asarray(mu, dtype=float)
    n = mu.size
    merged, seen = {}, {}
    for i, j, b in edges:
        i, j = int(i), int(j)
        b = float(b)
        for v in (i, j):
            if not 0 <= v < n:
                raise UnknownVertex(f"edge ({i},{j}) references vertex {v}")
        if not np.isfinite(b):
            raise NegativeWeight(f"edge ({i},{j}) has non-finite weight {b}")
        if i == j:
            if b != 0.0:
                raise SelfLoop(f"b({i},{i}) = {b} must be zero")
            continue
        if (i, j) in seen and seen[(i, j)] != b:
            raise AsymmetricWeights(
                f"conflicting weights for edge ({i},{j}): {seen[(i, j)]} vs {b}")
        seen[(i, j)] = b
        if b < 0.0:
            raise NegativeWeight(f"b({i},{j}) = {b} must be nonnegative")
        key = (min(i, j), max(i, j))
        if key in merged and merged[key] != b:
            raise AsymmetricWeights(
                f"b{(i, j)} = {b} but b{(j, i)} = {merged[key]}")
        if b > 0.0:
            merged[key] = b
    triples = tuple(sorted((i, j, merged[(i, j)]) for (i, j) in merged))
    adj = [[] for _ in range(n)]
    for i, j, b in triples:
        adj[i].append((j, b))
        adj[j].append((i, b))
    adj = [sorted(nbrs) for nbrs in adj]
    sums = np.array([sum(b for _, b in nbrs) for nbrs in adj])
    with np.errstate(over="ignore"):
        degrees = sums / mu
    if not np.all(np.isfinite(degrees)):
        x = int(np.argmin(np.isfinite(degrees)))
        raise InputError(f"weighted degree Deg({x}) = {sums[x]} / "
                         f"{mu[x]} is not finite")
    h = np.zeros((n, n))
    for i, j, b in triples:
        h[i, j] -= b / mu[i]
        h[j, i] -= b / mu[j]
    np.fill_diagonal(h, degrees)
    comps, comp_of = [], [None] * n
    for start in range(n):
        if comp_of[start] is None:
            comp_of[start], queue, comp = start, [start], []
            while queue:
                v = queue.pop()
                comp.append(v)
                for w, _ in adj[v]:
                    if comp_of[w] is None:
                        comp_of[w] = start
                        queue.append(w)
            comps.append(sorted(comp))
    key = np.int64(n).tobytes() + mu.tobytes() + b"".join(
        np.int64(i).tobytes() + np.int64(j).tobytes()
        + np.float64(b).tobytes() for i, j, b in triples)
    return triples, degrees, h, comps, key


_WEIGHTS = [0.0, -0.0, 0.5, 1.0, 2.0, 1e300, 1e-320, -1.0, np.nan, np.inf,
            -np.inf]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=5))
def test_array_constructor_matches_the_scalar_reference(data, n):
    # duplicates, reversed pairs, zeros, self-loops, bad weights and
    # out-of-range ids: both raise the same error, or agree bit for bit
    mu = data.draw(st.lists(st.sampled_from([0.5, 1.0, 3.0, 1e-300]),
                            min_size=n, max_size=n))
    ids = st.integers(min_value=-1, max_value=n) | st.sampled_from([0.0, 1.0])
    edges = data.draw(st.lists(
        st.tuples(ids, ids, st.sampled_from(_WEIGHTS)), max_size=10))
    try:
        ref = _scalar_graph(mu, edges)
    except HeatLabError as exc:
        with pytest.raises(type(exc)) as caught:
            WeightedGraph(mu, edges)
        assert type(caught.value) is type(exc)
        assert str(caught.value) == str(exc)
        return
    g = WeightedGraph(mu, edges)
    triples, degrees, h, comps, key = ref
    assert g.edges == triples
    assert [tuple(map(type, e)) for e in g.edges] == \
        [(int, int, float)] * len(triples)
    assert g.degrees().tobytes() == degrees.tobytes()
    assert g.generator_matrix().tobytes() == h.tobytes()
    assert g.components() == comps
    assert g.fingerprint() == key


def test_golden_fingerprint():
    # int64 n, float64 mu, then one (int64 i, int64 j, float64 b) per edge
    golden = struct.pack("=q4d" + "qqd" * 3, 4, 1.0, 1.0, 1.0, 1.0,
                         0, 1, 1.0, 1, 2, 1.0, 2, 3, 1.0)
    assert len(golden) == 8 * (1 + 4 + 3 * 3)
    assert hl.path_graph(4).fingerprint() == golden


def test_neighbors_is_the_sorted_row():
    g = WeightedGraph([1.0] * 4, [(2, 1, 0.5), (1, 0, 2.0), (3, 1, 1.5)])
    cols, weights = g.neighbors(1)
    assert cols.tolist() == [0, 2, 3]
    assert weights.tolist() == [2.0, 0.5, 1.5]
    assert g.degree(1) == 4.0


def test_zero_weight_is_not_stored_so_a_later_weight_is_accepted():
    g = WeightedGraph([1.0, 1.0], [(0, 1, 0.0), (1, 0, 1.0)])
    assert g.edges == ((0, 1, 1.0),)
    with pytest.raises(AsymmetricWeights):
        WeightedGraph([1.0, 1.0], [(0, 1, 1.0), (1, 0, 0.0)])


# ------------------------------------------------------- malformed entries


def test_non_finite_degree_is_rejected(tmp_path):
    # sum b = 2 is finite, Deg = 2 / 1e-320 is not
    gp = tmp_path / "tiny.graph"
    gp.write_text("v 0 1e-320\nv 1 1.0\nv 2 1.0\ne 0 1 1.0\ne 0 2 1.0\n")
    with pytest.raises(InputError, match=r"Deg\(0\)"):
        hl.load_graph(gp)


def test_non_integral_edge_id_is_rejected():
    with pytest.raises(UnknownVertex, match="not an integer"):
        WeightedGraph([1.0, 1.0], [(0, 1.7, 1.0)])


def test_short_edge_is_input_error():
    with pytest.raises(InputError, match="triples"):
        WeightedGraph([1.0, 1.0], [(0, 1)])


@pytest.mark.parametrize("entry", [(0, "1", 1.0), (0, 1, None),
                                   (0, 2 ** 70, 1.0)],
                         ids=["string", "none", "huge-int"])
def test_non_numeric_edge_is_input_error(entry):
    with pytest.raises(InputError, match="triples of numbers"):
        WeightedGraph([1.0, 1.0], [(0, 1, 1.0), entry])


@pytest.mark.parametrize("doc,where", [
    ({"vertices": [[0, 1.0], [1, 1.0]], "edges": [[0, 1.9, 1]]},
     r"edges\[0\]"),
    ({"vertices": [[0, 1.0], [1, 1.0]], "edges": [{"u": 0, "v": "1",
                                                   "b": 1.0}]},
     r"edges\[0\]"),
    ({"vertices": [[0, 1.0], [1, 1.0]], "edges": [[0, 1, "2"]]},
     r"edges\[0\]"),
    ({"vertices": [[0, 1.0], [1, 1.0]], "edges": [[0, True, 1.0]]},
     r"edges\[0\]"),
    ({"vertices": [[0, 1.0], [1, 1.0]], "edges": [[0, 1, 1.0, 5]]},
     r"edges\[0\]"),
    ({"vertices": [[0, 1.0], {"id": "1", "mu": 1.0}]}, r"vertices\[1\]"),
    ({"vertices": [[0, 1.0], [1.5, 1.0]]}, r"vertices\[1\]"),
    ({"vertices": [[0, "2"]]}, r"vertices\[0\]"),
    ({"vertices": [[False, 1.0]]}, r"vertices\[0\]"),
], ids=["edge-fractional-id", "edge-string-id", "edge-string-weight",
        "edge-bool-id", "edge-long-list", "vertex-string-id",
        "vertex-fractional-id", "vertex-string-mu", "vertex-bool-id"])
def test_json_entry_types_are_checked(doc, where):
    with pytest.raises(InputError, match=where):
        hl.loads_graph(json.dumps(doc))


def test_json_integral_float_ids_are_accepted():
    doc = {"vertices": [[0.0, 1.0], {"id": 1, "mu": 2, "label": "b"}],
           "edges": [{"u": 1.0, "v": 0, "b": 3}]}
    g = hl.loads_graph(json.dumps(doc))
    assert g.edges == ((0, 1, 3.0),)
    assert g.labels == ("0", "b")


@pytest.mark.parametrize("text,message", [
    ("v 0 1\nv 1 1\nq 0\ne 0 x 1\n", "line 3: unknown record 'q'"),
    ("v 0 1\ne 0 x 1\nq 0\n",
     "line 2: invalid literal for int() with base 10: 'x'"),
    ("v 0 1\nv 0 y\n", "line 2: duplicate vertex 0"),
    ("v 0 y\nv 0 1\n", "line 1: could not convert string to float: 'y'"),
    ("v 0 1\ne 0 1 2 3\n", "line 2: expected: e <id> <id> <b>"),
    ("v 0\n", "line 1: expected: v <id> <mu> [label]"),
    ("v 1.0 1\n", "line 1: invalid literal for int() with base 10: '1.0'"),
    # the first bad line wins, whatever column its bad field sits in
    ("v 0 1\nv 1 1\ne 0 1 x\nv 1 1\n",
     "line 3: could not convert string to float: 'x'"),
    ("v 0 1\nv 0 1\ne 0 x 1\n", "line 2: duplicate vertex 0"),
    ("e 0 x 1\nv 0 1\nv 0 1\n",
     "line 1: invalid literal for int() with base 10: 'x'"),
    ("v 0 1\nv 1 x\nzzz\n", "line 2: could not convert string to float: 'x'"),
    ("v 1 1\nv 0 1 a\nv 0 z\n", "line 3: duplicate vertex 0"),
    ("v 0 1 # a comment\n\nv 1 1\r\nq\n", "line 4: unknown record 'q'"),
    # with every line good, the vertex ids
    ("v 0 1\nv 2 1\n", "vertex ids must form 0..1, got [0, 2]"),
    ("graph g\n# nothing\n", "no vertices declared"),
])
def test_text_parse_reports_the_first_bad_line(text, message):
    with pytest.raises(InputError) as caught:
        hl.loads_graph(text)
    assert str(caught.value) == message
    assert str(caught.value) == _reference_outcome(text)[1]


def _reference_parse(text: str, name_hint: str = "") -> WeightedGraph:
    """The per-line reader the column reader replaced, kept as a reference:
    each record is converted as its line is read, the first bad line raises,
    and the constructor takes (u, v, b) tuples and a label per vertex."""
    name = name_hint
    vertices, edges = {}, []        # id -> (mu, label); (u, v, b)
    usage = {"v": "expected: v <id> <mu> [label]",
             "e": "expected: e <id> <id> <b>"}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        tag = parts[0]
        try:
            if tag == "e" and len(parts) == 4:
                edges.append((int(parts[1]), int(parts[2]), float(parts[3])))
            elif tag == "v" and 3 <= len(parts) <= 4:
                vid = int(parts[1])
                if vid in vertices:
                    raise InputError(f"line {lineno}: duplicate vertex {vid}")
                vertices[vid] = (float(parts[2]), parts[3] if len(parts) == 4
                                 else str(vid))
            elif tag == "graph":
                name = " ".join(parts[1:]) or name
            else:
                raise InputError(f"line {lineno}: " + usage.get(
                    tag, f"unknown record {tag!r}"))
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    if not vertices:
        raise InputError("no vertices declared")
    ids = sorted(vertices)
    if ids != list(range(len(ids))):
        raise InputError(f"vertex ids must form 0..{len(ids) - 1}, got {ids}")
    mu, labels = zip(*(vertices[i] for i in ids))
    return WeightedGraph(mu, edges, labels=labels, name=name)


def _reference_outcome(text: str):
    return _outcome(_reference_parse, text)


def _outcome(parse, text: str):
    """(error type, message), or the graph's content, labels and name."""
    try:
        g = parse(text, "hint")
    except HeatLabError as exc:
        return type(exc), str(exc)
    return g.fingerprint(), g.labels, g.name


def _spellings(x: int) -> list:
    """Ways int() reads x: signs, leading zeros, underscores, other digits."""
    arabic_indic = str.maketrans("0123456789", "".join(
        chr(0x660 + d) for d in range(10)))
    return [str(x), f"+{x}", f"0{x}", f"0_{x}", str(x).translate(arabic_indic)]


_NUMBERS = ["1", "0.5", "+2e0", "1_0.25", "3.", ".5", "0", "-0.0", "1e300",
            "1e-320", "inf", "nan", "\u0661.5"]
# one line that a valid text may not hold, or that tests one check
_CORRUPT = ["q 1", "e 0 1", "v 0", "e 0 1 2 3", "v 0 1 a b", "v x 1",
            "v 1.0 1", "v 0 y", "e 0 x 1", "e 0 1 z", "e 1.5 0 1",
            "e -1 0 1", "e 0 99999999999999999999 1",
            "e 0 1" + "0" * 400 + " 1", "e 0 9007199254740993 1", "v 0 1",
            "v 1 1 lab", "v 9 1", "v -1 1", "graph", "e 0 0 1", "e 0 1 -1",
            "e 1 0 7", "v 0 1 1", "{", "e 0 1 1e999"]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=6))
def test_column_reader_matches_the_per_line_reference(data, n):
    # valid texts (ids out of order, every spelling int() and float() take,
    # labels, comments, blank lines, graph lines, other line breaks) give the
    # same graph; one corrupt line gives the same error type and message
    lines = []
    for x in data.draw(st.permutations(range(n))):
        fields = ["v", data.draw(st.sampled_from(_spellings(x))),
                  data.draw(st.sampled_from(["1", "0.5", "2e0", "+3", "1_0.5",
                                             "\u0662"]))]
        fields += data.draw(st.sampled_from([[], [], ["a"], [f"L{x}"]]))
        lines.append(" ".join(fields))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                   max_size=8)) if pairs else []:
        u, v = (j, i) if data.draw(st.booleans()) else (i, j)
        lines.append(" ".join(["e", data.draw(st.sampled_from(_spellings(u))),
                               data.draw(st.sampled_from(_spellings(v))),
                               data.draw(st.sampled_from(_NUMBERS[:6]))]))
    extras = ["", "   ", "\t", "# comment", "graph  two  words", "graph g # c"]
    for extra in data.draw(st.lists(st.sampled_from(extras), max_size=3)):
        lines.insert(data.draw(st.integers(0, len(lines))), extra)
    if data.draw(st.booleans()):
        line = data.draw(st.sampled_from(_CORRUPT + [
            f"e 0 {n - 1} {b}" for b in _NUMBERS]))
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    lines = [line + data.draw(st.sampled_from(["", " # tail", "#"]))
             for line in lines]
    text = data.draw(st.sampled_from(["\n", "\r\n", "\r", "\x1c",
                                      "\u2028"])).join(lines)
    if text.lstrip().startswith("{"):
        return
    assert _outcome(hl.loads_graph, text) == _reference_outcome(text)


@pytest.mark.parametrize("labels,message", [
    (["", "b"], "label '' of vertex 0 is empty"),
    (["a", "b c"], "label 'b c' of vertex 1 is empty or holds whitespace"),
    (["a\tb", "c"], "label 'a\\\\tb' of vertex 0"),
    (["a#b", "c"], "label 'a#b' of vertex 0"),
    (["a", "a"], "vertices 0 and 1 share the label 'a'"),
], ids=["empty", "space", "tab", "hash", "repeated"])
def test_label_the_line_format_cannot_hold_is_refused(labels, message):
    with pytest.raises(InputError, match=message):
        WeightedGraph([1.0, 1.0], [(0, 1, 1.0)], labels=labels)


@pytest.mark.parametrize("vertices", [
    [{"id": 0, "mu": 1, "label": "a b"}, [1, 1]],
    [{"id": 0, "mu": 1, "label": "1"}, [1, 1]],     # vertex 1's own label
], ids=["space", "index-of-another"])
def test_json_label_the_line_format_cannot_hold_is_refused(vertices):
    doc = {"vertices": vertices, "edges": [[0, 1, 1.0]]}
    with pytest.raises(InputError):
        hl.loads_graph(json.dumps(doc))


@pytest.mark.parametrize("name", ["a#b", "a\nb", "a\u2028b", " a", "a ",
                                  "a  b", "a\tb"],
                         ids=["hash", "newline", "line-separator", "leading",
                              "trailing", "repeated", "tab"])
def test_name_the_graph_line_cannot_hold_is_refused(name):
    with pytest.raises(InputError, match="graph name"):
        WeightedGraph([1.0, 1.0], [(0, 1, 1.0)], name=name)


def test_file_names_an_unnamed_graph_as_a_graph_line_would(tmp_path):
    g = WeightedGraph([1.0, 1.0], [(0, 1, 1.0)])
    path = tmp_path / "two  sides#1.graph"
    hl.save_graph(g, path)
    assert hl.load_graph(path).name == "two sides"
    assert hl.load_graph(path).fingerprint() == g.fingerprint()


def test_text_repeated_label_is_refused():
    with pytest.raises(InputError, match="share the label 'a'"):
        hl.loads_graph("v 0 1 a\nv 1 1 a\ne 0 1 1\n")


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=5))
def test_every_accepted_graph_round_trips_through_the_line_format(data, n):
    mu = data.draw(st.lists(st.sampled_from([0.5, 1.0, 0.1, 1 / 3, 1e-300]),
                            min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.sampled_from(
            [0.5, 1.0, 0.1, 1e-320, 1e300])), unique_by=lambda e: e[0],
        max_size=len(pairs))) if pairs else []
    labels = data.draw(st.lists(
        st.none() | st.text(st.sampled_from("ab0 1#\t\u00e9\u2028"),
                            max_size=3), min_size=n, max_size=n))
    labels = [str(i) if l is None else l for i, l in enumerate(labels)]
    name = data.draw(st.text(st.sampled_from("ab #\t\n\u2028"), max_size=4))
    try:
        g = WeightedGraph(mu, [(i, j, b) for (i, j), b in edges],
                          labels=labels, name=name)
    except HeatLabError:
        return
    back = hl.loads_graph(hl.dumps_graph(g))
    assert back.fingerprint() == g.fingerprint()
    assert back.labels == g.labels
    assert back.name == g.name
