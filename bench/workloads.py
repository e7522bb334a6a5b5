"""Seeded inputs for the four benchmark workloads.

Everything heatlab sees is written here as files: graphs in the line format,
experiment configs and admissibility profiles as JSON. ``build`` returns the
plan of one round: the operations in order, each with what the worker calls
and what the checker needs. Graphs are the benchmark's own random connected
graphs; their weights are rescaled so the largest weighted degree (the
uniformization rate) is fixed, which keeps the Poisson term counts, and so
the work per round, the same for every seed.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("graph-scan", "semigroup", "bridge-mc", "manifold")

# The MC checks allow K_SIGMA standard errors. The benchmark's configs ask
# the program for the same k. Every FK input also runs on a second MC seed
# in the same round, so a k that only one lucky stream satisfies does not
# pass; the pnfb input runs on one MC seed per run, and its second seeds
# are those of the other runs (README, "Checks").
K_SIGMA = 5.0

# The reference computations (calibrate.py) that stand for each workload's
# dominant layers: the QL solver's column rotations; the Poisson series'
# matrix products; bridge tables (products) and vectorised sampling (small
# numpy calls); dense eigvalsh on tori and chunked series sums.
CALIBRATE = {"graph-scan": ["rotations"], "semigroup": ["matmul"],
             "bridge-mc": ["rotations", "matmul"],
             "manifold": ["eig", "stream"]}

FIXED_GRAPH_SEED = 20240601

PNFB_RATE = 64.0
PNFB_DEGREE = 2.0
PNFB_T_DEGREE = (6.0, 3.0, 1.0, 0.01)   # t * Deg(x) of each pnfb time


@dataclass
class Graph:
    """Vertex measure mu and edges (i, j, b) with i < j."""

    mu: np.ndarray
    edges: list

    @property
    def n(self) -> int:
        return self.mu.size

    def generator(self) -> np.ndarray:
        """H[x,x] = sum_y b(x,y)/mu(x), H[x,y] = -b(x,y)/mu(x)."""
        h = np.zeros((self.n, self.n))
        for i, j, b in self.edges:
            h[i, j] -= b / self.mu[i]
            h[j, i] -= b / self.mu[j]
        h[np.diag_indices(self.n)] = -h.sum(axis=1)
        return h

    def degrees(self) -> np.ndarray:
        return np.diag(self.generator()).copy()

    def neighbours(self) -> list:
        adj = [[] for _ in range(self.n)]
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def text(self, name: str) -> str:
        lines = [f"graph {name}"]
        lines += [f"v {i} {float(m)!r}" for i, m in enumerate(self.mu)]
        lines += [f"e {i} {j} {float(b)!r}" for i, j, b in self.edges]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Graph":
        """Read the line format (``v id mu``, ``e i j b``)."""
        mu, edges = {}, []
        for raw in text.splitlines():
            parts = raw.split("#", 1)[0].split()
            if parts and parts[0] == "v":
                mu[int(parts[1])] = float(parts[2])
            elif parts and parts[0] == "e":
                i, j = sorted((int(parts[1]), int(parts[2])))
                edges.append((i, j, float(parts[3])))
        return cls(np.array([mu[i] for i in range(len(mu))]), edges)


def random_graph(rng, n: int, extra_degree: float, rate: float) -> Graph:
    """Random recursive tree plus independent extra edges.

    Vertex 0 has weighted degree exactly ``rate``, a power of two, and every
    other vertex at most 0.8 * rate, so heatlab's uniformization rate is the
    same float for every seed. (Its Poisson series length can jump by ~40%
    under a one-ulp change of the rate; see CHANGES.md.) Weights are
    multiples of 2^-20, so degree sums are exact in any order.
    """
    if math.frexp(rate)[0] != 0.5:
        raise ValueError(f"rate {rate} is not a power of two")
    pairs = [(int(rng.integers(0, c)), c) for c in range(1, n)]
    tree = set(pairs)
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < min(1.0, extra_degree / max(n - 1, 1))
    pairs += [(int(i), int(j)) for i, j in zip(iu[keep], ju[keep])
              if (int(i), int(j)) not in tree]
    b = rng.uniform(0.5, 1.5, size=len(pairs))
    mu = rng.uniform(0.5, 2.0, size=n)
    g = Graph(mu, [(i, j, float(w)) for (i, j), w in zip(pairs, b)])
    scale = 0.8 * rate / float(g.degrees().max())
    g.edges = sorted((i, j, round(w * scale * 2.0 ** 20) * 2.0 ** -20)
                     for i, j, w in g.edges)
    g.mu[0] = math.fsum(w for i, j, w in g.edges if 0 in (i, j)) / rate
    return g


def bfs_order(g: Graph, root: int) -> list:
    adj = g.neighbours()
    seen, order, queue = {root}, [], deque([root])
    while queue:
        v = queue.popleft()
        order.append(v)
        for u in sorted(adj[v]):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return order


class _Writer:
    """Writes input files into one directory and names them."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def graph(self, name: str, g: Graph) -> str:
        path = self.root / f"{name}.graph"
        path.write_text(g.text(name))
        return str(path)

    def json(self, name: str, doc: dict) -> str:
        path = self.root / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return str(path)


def _run(name: str, config: str) -> dict:
    return {"name": name, "call": "cli",
            "argv": ["run", config, "--out", "{out}", "--threads", "1"],
            "check": {"kind": "run", "config": config}}


def _verify_kernel(name: str, graph: str, s: float, t: float) -> dict:
    return {"name": name, "call": "cli",
            "argv": ["verify-kernel", "--graph", graph, "--s", repr(s),
                     "--t", repr(t), "--out", "{out}"],
            "capture": {"graph": graph, "times": [s, t, s + t]},
            "check": {"kind": "verify-kernel", "graph": graph}}


def _graph_scan(rng, w: _Writer) -> list:
    # The in-repo QL eigensolver runs once per grid point, so its cost
    # (quadratic Python loops per sweep) sets the round time. Sizes stop at
    # n = 60 so that a round stays near 2 s and a run has ten or more.
    ops = []
    for i, n in enumerate((30, 40, 50, 60)):
        name = f"scan{i}-n{n}"
        g = w.graph(name, random_graph(rng, n, 6.0, 16.0))
        pot = rng.uniform(-1.0, 3.0, size=n)
        cfg = w.json(name, {
            "kind": "graph-limit", "name": name,
            "graph": Path(g).name, "potential": {"values": pot.tolist()}})
        ops.append(_run(name, cfg))
    return ops


def _semigroup(rng, w: _Writer) -> list:
    ops = []
    # A: the axioms run asks for tau twice and 2*tau; verify-kernel then
    # asks for tau and 2*tau again (table-cache hits) and 3*tau. lambda*3*tau
    # stays at 192, where the mass window of 1e-12 still holds (see F).
    ga = random_graph(rng, 160, 8.0, 16.0)
    pa = w.graph("semi_a", ga)
    tau = 4.0
    cfg = w.json("axioms_a", {"kind": "axioms", "name": "axioms_a",
                              "graph": Path(pa).name, "s": tau, "t": tau})
    op = _run("axioms-a", cfg)
    op["capture"] = {"graph": pa, "times": [tau, 2 * tau]}
    ops.append(op)
    ops.append(_verify_kernel("verify-kernel-a", pa, tau, 2 * tau))
    # F: lambda*t up to 960 on a graph that does not depend on the seed.
    # At this rate the kernel masses miss 1 by ~6.5e-12 (rounding in the
    # log-space Poisson weights), so verify-kernel's default mass window
    # fails on every run: the one known fault kept in the benchmark.
    gf = random_graph(np.random.default_rng(FIXED_GRAPH_SEED), 160, 8.0, 16.0)
    pf = w.graph("semi_fixed", gf)
    op = _verify_kernel("verify-kernel-rate960", pf, 20.0, 40.0)
    op["known_fault"] = ("mass window: heat_semigroup masses miss 1 by "
                         "more than 1e-12 once lambda*t exceeds ~280")
    ops.append(op)
    # B: a few hundred vertices at moderate lambda*t.
    gb = random_graph(rng, 300, 10.0, 32.0)
    pb = w.graph("semi_b", gb)
    cfg = w.json("axioms_b", {"kind": "axioms", "name": "axioms_b",
                              "graph": Path(pb).name, "s": 0.5, "t": 1.0})
    op = _run("axioms-b", cfg)
    op["capture"] = {"graph": pb, "times": [0.5, 1.0, 1.5]}
    ops.append(op)
    # C: two Kato moduli (32 quadrature tables each) at t and 4t.
    gc = random_graph(rng, 120, 6.0, 8.0)
    pc = w.graph("semi_c", gc)
    pot = rng.uniform(-1.0, 3.0, size=gc.n).tolist()
    for t in (1.0, 4.0):
        ops.append({"name": f"kato-t{t:g}", "call": "kato_modulus",
                    "graph": pc, "potential": pot, "t": t,
                    "check": {"kind": "kato", "graph": pc, "potential": pot,
                              "t": t, "smaller": "kato-t1" if t > 1 else None}})
    # D: killed kernels along an exhaustion by BFS balls around x.
    gd = random_graph(rng, 200, 6.0, 16.0)
    pd = w.graph("semi_d", gd)
    order = bfs_order(gd, 0)
    x, y = order[0], order[1]
    subsets = [sorted(order[:k]) for k in (50, 100, 150, 200)]
    ops.append({"name": "minimal-kernel", "call": "minimal_heat_kernel",
                "graph": pd, "subsets": subsets, "t": 2.0, "x": x, "y": y,
                "check": {"kind": "minimal", "graph": pd, "subsets": subsets,
                          "t": 2.0, "x": x, "y": y}})
    return ops


def _bridge_mc(rng, w: _Writer, seed: int) -> list:
    ops = []
    # FK traces: the CLI and the fk-crosscheck runner on the same (graph,
    # potential, t) with two different MC seeds, sharing one bridge kernel.
    g = random_graph(rng, 20, 4.0, 8.0)
    pg = w.graph("fk20", g)
    pot = rng.uniform(-1.0, 2.0, size=g.n)
    mc_seed = 1000 + 2 * seed
    ops.append({
        "name": "fk-trace-cli", "call": "cli",
        "argv": ["sample-paths", "--graph", pg, "--t", "1.0",
                 "--samples", "3000", "--seed", str(mc_seed),
                 "--mode", "fk-trace", "--threads", "1",
                 # the joined form: argparse takes "-0.5,..." for an option
                 "--potential=" + ",".join(repr(float(v)) for v in pot),
                 "--out", "{out}"],
        "check": {"kind": "fk-trace", "graph": pg,
                  "potential": pot.tolist(), "t": 1.0}})
    cfg = w.json("fk20", {
        "kind": "fk-crosscheck", "name": "fk20", "graph": Path(pg).name,
        "potential": {"values": pot.tolist()}, "t": 1.0, "samples": 3000,
        "seed": mc_seed + 1, "tolerances": {"k_sigma": K_SIGMA}})
    ops.append(_run("fk-crosscheck", cfg))
    # pnfb: a larger graph, several t, 1000 samples each. Every t builds
    # and keeps a bridge kernel with its full T x n x n power table.
    gp = random_graph(rng, 150, 6.0, PNFB_RATE)
    x = int(np.argmin(gp.degrees()))
    # K = {x}, and mu(x) set so that Deg(x) = PNFB_DEGREE: the t list, the
    # bridge tables it builds and the staying probabilities it estimates
    # are then the same size for every seed, with neighbouring
    # probabilities many standard errors apart (the runner requires
    # monotone estimates).
    gp.mu[x] = math.fsum(b for i, j, b in gp.edges
                         if x in (i, j)) / PNFB_DEGREE
    pp = w.graph("pnfb150", gp)
    t_list = [c / PNFB_DEGREE for c in PNFB_T_DEGREE]
    cfg = w.json("pnfb150", {
        "kind": "pnfb", "name": "pnfb150", "graph": Path(pp).name,
        "x": x, "K": [x], "t_list": t_list, "samples": 1000,
        "seed": mc_seed + 7,
        "tolerances": {"k_sigma": K_SIGMA, "final_min": 0.9}})
    ops.append(_run("pnfb-n150", cfg))
    return ops


def _manifold(rng, w: _Writer) -> list:
    ops = []
    two_pi = 2.0 * math.pi
    length = float(rng.uniform(0.75, 1.0)) * two_pi
    grid = {"t0": 1.0, "ratio": 0.5}
    configs = [
        ("torus_1d_zero", 1, [length], 64, "zero",
         dict(grid, points=11), {"final_rel_error": 0.005, "monotone": False}),
        ("torus_1d_constant", 1, [length], 64,
         f"constant:{float(rng.uniform(0.2, 1.5))!r}",
         dict(grid, points=11), {"final_rel_error": 0.005, "monotone": False}),
        ("torus_1d_cosine", 1, [length], 64, "cosine-well",
         dict(grid, points=9), {"final_rel_error": 0.01}),
        ("torus_2d_cosine", 2, [length, two_pi], 8, "cosine-well",
         dict(grid, points=4), {"final_rel_error": 0.15}),
    ]
    for name, dim, lengths, trunc, pot, t_grid, tol in configs:
        cfg = w.json(name, {"kind": "torus-limit", "name": name, "dim": dim,
                            "lengths": lengths, "truncation": trunc,
                            "potential": pot, "t_grid": t_grid,
                            "tolerances": tol})
        ops.append(_run(name.replace("_", "-"), cfg))
    profiles = [
        ("adm_gaussian", "admissible",
         {"m": 2, "A": float(rng.uniform(0.5, 2.0)), "k_max": 200,
          "rule": {"rule": "quadratic-growth",
                   "rate": float(rng.uniform(0.5, 2.0))}}),
        ("adm_growth", "inadmissible",
         {"m": 2, "A": float(rng.uniform(0.5, 1.0)), "k_max": 300,
          "rule": {"rule": "constant", "value": float(rng.uniform(0.5, 2.0))}}),
    ]
    # Three p-series sum k^-s of ~1e6 terms, s = 1.5, 2 and 2.5: between
    # the four light runs above and the three heavy ones, so they hold the
    # median operation of a round (10 operations) and op_p50_s has three
    # samples per round. At this k_max the certificate a_K q/(1-q) is
    # ~7e-4, ~5e-7 and ~4e-10: undecided, undecided, admissible.
    for exponent, expect in ((-2.5, "undecided"), (-3.0, "undecided"),
                             (-3.5, "admissible")):
        profiles.append((
            f"adm_p_series_s{-exponent - 1:g}", expect,
            {"m": 1, "A": 0.0, "k_max": 1_000_000 + int(rng.integers(0, 1000)),
             "rule": {"rule": "power", "exponent": exponent}}))
    for name, expect, profile in profiles:
        cfg = w.json(name, {"kind": "admissibility", "name": name,
                            "profile": profile, "expect": expect})
        ops.append(_run(name.replace("_", "-"), cfg))
    # ~1e8 series terms through the CLI, chunked by the program.
    big = w.json("p_series_large", {
        "m": 1, "A": 0.0, "k_max": 100_000_000 + int(rng.integers(0, 1000)),
        "rule": {"rule": "power", "exponent": -3.0}})
    ops.append({"name": "check-admissibility-1e8", "call": "cli",
                "argv": ["check-admissibility", big, "--out", "{out}"],
                "check": {"kind": "check-admissibility", "profile": big}})
    return ops


def build(workload: str, seed: int, root: Path) -> dict:
    """Write the inputs of one workload run and return its round plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    w = _Writer(root)
    if workload == "graph-scan":
        ops = _graph_scan(rng, w)
    elif workload == "semigroup":
        ops = _semigroup(rng, w)
    elif workload == "bridge-mc":
        ops = _bridge_mc(rng, w, seed)
    else:
        ops = _manifold(rng, w)
    return {"workload": workload, "seed": seed, "ops": ops,
            "calibrate": CALIBRATE[workload]}
