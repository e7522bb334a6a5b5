"""Weighted graph construction, validation and serialization."""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatlab as hl
from heatlab.errors import (AsymmetricWeights, DisconnectedGraph, InputError,
                            NegativeWeight, NonpositiveMeasure, SelfLoop,
                            UnknownVertex)
from heatlab.graphs import WeightedGraph, require_connected


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
    lap = np.array([-sum(b * (f[x] - f[y]) for y, b in g.neighbors(x))
                    / g.mu[x] for x in range(g.n)])
    assert np.allclose(g.generator_matrix() @ f, -lap, atol=1e-14)


def test_dirichlet_energy_two_vertex(two_vertex):
    # <f, Hf>_mu = (1/2) sum_{x,y} b(x,y) (f(x)-f(y))^2, both orientations
    f = np.array([0.0, 1.0])
    h = two_vertex.generator_matrix()
    assert f @ (two_vertex.mu * (h @ f)) == pytest.approx(1.0)


def test_jump_chain_is_built_once_under_thread_stress():
    # threads released together all get the one read-only R of the graph
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(5):
            g = hl.random_connected_graph(60, seed)
            barrier = threading.Barrier(8)

            def build(_):
                barrier.wait(timeout=30)
                return g.jump_chain()[1]

            with ThreadPoolExecutor(max_workers=8) as pool:
                chains = list(pool.map(build, range(8)))
            assert all(r is chains[0] for r in chains)
            assert not chains[0].flags.writeable
    finally:
        sys.setswitchinterval(interval)


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


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=12),
       seed=st.integers(min_value=0, max_value=10_000))
def test_random_graphs_round_trip(n, seed):
    g = hl.random_connected_graph(n, seed)
    assert len(g.components()) == 1
    back = hl.loads_graph(hl.dumps_graph(g))
    assert back.fingerprint() == g.fingerprint()
    assert np.array_equal(back.mu, g.mu)
