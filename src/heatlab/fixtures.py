"""Standard graphs and potentials used by the shipped experiment configs.

Random graphs are built from a seeded generator: a random recursive tree
guarantees connectivity, then extra edges are added independently. The
same seed always yields the same graph and potential, byte for byte.
"""

from __future__ import annotations

import numpy as np

from .graphs import WeightedGraph


def two_vertex(b: float = 1.0) -> WeightedGraph:
    return WeightedGraph([1.0, 1.0], [(0, 1, b)], name="two-vertex")


def path_graph(n: int, b: float = 1.0, mu: float = 1.0) -> WeightedGraph:
    edges = [(i, i + 1, b) for i in range(n - 1)]
    return WeightedGraph([mu] * n, edges, name=f"path-{n}")


def complete_graph(n: int, b: float = 1.0, mu: float = 1.0) -> WeightedGraph:
    edges = [(i, j, b) for i in range(n) for j in range(i + 1, n)]
    return WeightedGraph([mu] * n, edges, name=f"complete-{n}")


def random_connected_graph(n: int, seed: int, edge_prob: float = 0.2,
                           weight_range=(0.5, 1.5),
                           mu_range=(0.5, 2.0)) -> WeightedGraph:
    rng = np.random.default_rng(seed)
    edges = []
    # random recursive tree keeps the graph connected for any extra-edge draw
    for child in range(1, n):
        parent = int(rng.integers(0, child))
        edges.append((parent, child))
    tree = set(edges)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in tree and rng.random() < edge_prob:
                edges.append((i, j))
    lo, hi = weight_range
    weights = rng.uniform(lo, hi, size=len(edges))
    mu = rng.uniform(mu_range[0], mu_range[1], size=n)
    triples = [(i, j, float(b)) for (i, j), b in zip(edges, weights)]
    return WeightedGraph(mu, triples, name=f"random-{n}-seed{seed}")


def random_potential(n: int, seed: int, low: float = -1.0,
                     high: float = 3.0) -> np.ndarray:
    # separate stream so the potential does not depend on the graph draw
    rng = np.random.default_rng(seed + 1_000_003)
    return rng.uniform(low, high, size=n)


RANDOM10_SEED = 7
RANDOM20_SEED = 2024


# name -> builder of (graph, potential), one per shipped fixture
FIXTURES = {
    "two_vertex": lambda: (two_vertex(), np.array([0.0, 2.0])),
    "p5": lambda: (path_graph(5), np.array([1.0, -0.5, 0.0, 0.5, 2.0])),
    "k5": lambda: (complete_graph(5), np.array([0.0, 0.5, 1.0, 1.5, 2.0])),
    "random10": lambda: (random_connected_graph(10, RANDOM10_SEED),
                         random_potential(10, RANDOM10_SEED)),
    "random20": lambda: (random_connected_graph(20, RANDOM20_SEED),
                         random_potential(20, RANDOM20_SEED)),
}


def fixture_registry() -> dict:
    """name -> (graph, potential) for every shipped fixture."""
    return {name: build() for name, build in FIXTURES.items()}
