"""Weighted graphs (X, b, mu) and the difference Laplacian.

A graph is a finite vertex set with a symmetric edge-weight function b >= 0
(zero diagonal, finite row sums) and a strictly positive vertex measure mu.
The formal difference Laplacian acts on functions psi by

    (L psi)(x) = -(1/mu(x)) * sum_y b(x,y) * (psi(x) - psi(y)),

and the (nonnegative) generator used everywhere else in the package is
H = -L, with matrix entries H[x,x] = Deg(x) and H[x,y] = -b(x,y)/mu(x),
where Deg(x) = (1/mu(x)) * sum_y b(x,y) is the weighted degree. Its
uniformization at the rate Lambda = max_x Deg(x) is the jump chain
R = I - H/Lambda, which each graph builds once (jump_chain), together with
the padded table of each row's nonzeros that the bridge sampler steps on.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import deque

import numpy as np

from .errors import (
    AsymmetricWeights,
    DisconnectedGraph,
    InputError,
    NegativeWeight,
    NonpositiveMeasure,
    SelfLoop,
    UnknownVertex,
)


# serializes the first build of a graph's jump chain, so concurrent bridge
# builds all share one R and one row-support table
_chain_lock = threading.Lock()


def uniformize(h: np.ndarray) -> tuple[float, np.ndarray]:
    """Rate Lambda = max_x h[x,x] and jump chain R = I - h / Lambda.

    R is entrywise nonnegative for a generator with nonnegative diagonal and
    nonpositive off-diagonal; with Lambda = 0 (no edges) R = I. R is
    returned read-only.
    """
    n = h.shape[0]
    lam = float(np.max(np.diag(h))) if n else 0.0
    r = np.eye(n) - h / lam if lam else np.eye(n)
    r.setflags(write=False)
    return lam, r


def _row_support(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded table (cols, vals) of the nonzeros of each row of r.

    Row z lists the columns with r[z, c] != 0 in ascending order and their
    values, then pads with column n - 1 (where a search over all n columns
    clamps) and value 0.0 up to one more than the longest row, so every row
    ends in at least one pad. Both arrays are returned read-only.
    """
    n = r.shape[0]
    rows, cs = np.nonzero(r)
    per_row = np.bincount(rows, minlength=n)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(per_row) - per_row,
                                            per_row)
    width = int(per_row.max(initial=0)) + 1
    cols = np.full((n, width), n - 1, dtype=np.intp)
    vals = np.zeros((n, width))
    cols[rows, slot] = cs
    vals[rows, slot] = r[rows, cs]
    cols.setflags(write=False)
    vals.setflags(write=False)
    return cols, vals


class WeightedGraph:
    """Immutable weighted graph over vertices 0..n-1 with optional labels."""

    def __init__(self, mu, edges, labels=None, name: str = ""):
        mu = np.asarray(mu, dtype=float).copy()
        if mu.ndim != 1 or mu.size == 0:
            raise NonpositiveMeasure("mu must be a nonempty 1-d array")
        n = mu.size
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
            bad = int(np.argmin(np.where(np.isfinite(mu), mu, -np.inf)))
            raise NonpositiveMeasure(f"mu({bad}) = {mu[bad]} must be positive and finite")

        merged: dict[tuple[int, int], float] = {}
        seen: dict[tuple[int, int], float] = {}
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

        self.n = n
        self.name = name
        self.mu = mu
        self.mu.setflags(write=False)
        if labels is None:
            labels = [str(i) for i in range(n)]
        if len(labels) != n:
            raise InputError(f"{len(labels)} labels for {n} vertices")
        self.labels = tuple(str(l) for l in labels)
        self.edges = tuple(sorted((i, j, merged[(i, j)]) for (i, j) in merged))

        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for i, j, b in self.edges:
            adj[i].append((j, b))
            adj[j].append((i, b))
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        # summability witness: per-vertex sum_y b(x,y) must be finite
        self._weight_sums = np.array(
            [sum(b for _, b in nbrs) for nbrs in self._adj])
        if not np.all(np.isfinite(self._weight_sums)):
            raise NegativeWeight("non-finite weight sum")
        self._weight_sums.setflags(write=False)
        self._generator = None
        self._chain = None
        self._components = None
        self._fingerprint = None

    # ------------------------------------------------------------- identity

    def resolve(self, key) -> int:
        """Map an int index or a string label to a vertex index."""
        if isinstance(key, str):
            try:
                return self.labels.index(key)
            except ValueError:
                raise UnknownVertex(f"no vertex labeled {key!r}") from None
        try:
            x = int(key)
        except (OverflowError, TypeError, ValueError):
            raise UnknownVertex(f"{key!r} is not a vertex index or label") \
                from None
        if not 0 <= x < self.n:
            raise UnknownVertex(f"vertex {x} outside 0..{self.n - 1}")
        return x

    def fingerprint(self) -> str:
        """Stable content hash used as a cache key for kernel tables."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(np.int64(self.n).tobytes())
            h.update(self.mu.tobytes())
            for i, j, b in self.edges:
                h.update(np.int64(i).tobytes())
                h.update(np.int64(j).tobytes())
                h.update(np.float64(b).tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------- geometry

    def neighbors(self, x) -> tuple[tuple[int, float], ...]:
        return self._adj[self.resolve(x)]

    def degree(self, x) -> float:
        """Weighted degree Deg(x) = (1/mu(x)) * sum_y b(x,y)."""
        x = self.resolve(x)
        return float(self._weight_sums[x] / self.mu[x])

    def degrees(self) -> np.ndarray:
        return self._weight_sums / self.mu

    # ------------------------------------------------------------- operator

    def generator_matrix(self) -> np.ndarray:
        """Dense matrix of H = -L; H[x,x] = Deg(x), H[x,y] = -b(x,y)/mu(x)."""
        if self._generator is None:
            h = np.zeros((self.n, self.n))
            for i, j, b in self.edges:
                h[i, j] -= b / self.mu[i]
                h[j, i] -= b / self.mu[j]
            np.fill_diagonal(h, self.degrees())
            h.setflags(write=False)
            self._generator = h
        return self._generator

    def jump_chain(self) -> tuple:
        """(Lambda, R, cols, vals): uniformize(H) and _row_support(R), built
        once and shared read-only."""
        with _chain_lock:
            if self._chain is None:
                lam, r = uniformize(self.generator_matrix())
                self._chain = (lam, r) + _row_support(r)
        return self._chain

    # ----------------------------------------------------------- structure

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists (BFS)."""
        if self._components is None:
            seen = np.zeros(self.n, dtype=bool)
            comps = []
            for start in range(self.n):
                if seen[start]:
                    continue
                queue = deque([start])
                seen[start] = True
                comp = []
                while queue:
                    v = queue.popleft()
                    comp.append(v)
                    for w, _ in self._adj[v]:
                        if not seen[w]:
                            seen[w] = True
                            queue.append(w)
                comps.append(sorted(comp))
            self._components = comps
        return self._components

    def __repr__(self):
        return (f"WeightedGraph(n={self.n}, edges={len(self.edges)}"
                + (f", name={self.name!r}" if self.name else "") + ")")


def require_connected(graph: WeightedGraph) -> None:
    comps = graph.components()
    if len(comps) > 1:
        raise DisconnectedGraph(
            f"graph has {len(comps)} components; strict kernel positivity "
            "cannot be certified")


# ------------------------------------------------------------- file format


def _parse_text(text: str, name_hint: str) -> WeightedGraph:
    name = name_hint
    vertices: dict[int, float] = {}
    edges: list[tuple[int, int, float]] = []
    labels: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "graph":
                name = " ".join(parts[1:]) or name
            elif parts[0] == "v":
                if len(parts) not in (3, 4):
                    raise ValueError("expected: v <id> <mu> [label]")
                vid = int(parts[1])
                if vid in vertices:
                    raise ValueError(f"duplicate vertex {vid}")
                vertices[vid] = float(parts[2])
                if len(parts) == 4:
                    labels[vid] = parts[3]
            elif parts[0] == "e":
                if len(parts) != 4:
                    raise ValueError("expected: e <id> <id> <b>")
                edges.append((int(parts[1]), int(parts[2]), float(parts[3])))
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    if not vertices:
        raise InputError("no vertices declared")
    ids = sorted(vertices)
    if ids != list(range(len(ids))):
        raise InputError(f"vertex ids must form 0..{len(ids) - 1}, got {ids}")
    mu = [vertices[i] for i in ids]
    lab = [labels.get(i, str(i)) for i in ids]
    return WeightedGraph(mu, edges, labels=lab, name=name)


# what int(), float() and indexing raise on a malformed JSON entry
_ENTRY_ERRORS = (KeyError, IndexError, TypeError, ValueError, OverflowError)


def _entries(doc: dict, key: str) -> list:
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise InputError(f"'{key}' must be an array, got {items!r}")
    return items


def _parse_structured(doc: dict, name_hint: str) -> WeightedGraph:
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise InputError("structured graph document needs a 'vertices' array")
    entries = []
    for index, item in enumerate(_entries(doc, "vertices")):
        try:
            if isinstance(item, dict):
                entries.append((int(item["id"]), float(item["mu"]),
                                item.get("label")))
            elif isinstance(item, list):
                entries.append((int(item[0]), float(item[1]), None))
            else:
                raise TypeError("entry must be an object or an array")
        except _ENTRY_ERRORS as exc:
            raise InputError(
                f"vertices[{index}] needs an integer id and a number mu, "
                f"got {item!r} ({type(exc).__name__}: {exc})") from None
    ids = sorted(e[0] for e in entries)
    if ids != list(range(len(ids))):
        raise InputError(f"vertex ids must form 0..{len(ids) - 1}, got {ids}")
    mu = [0.0] * len(ids)
    labels = [None] * len(ids)
    for vid, m, lab in entries:
        mu[vid] = m
        labels[vid] = lab if lab is not None else str(vid)
    edges = []
    for index, item in enumerate(_entries(doc, "edges")):
        try:
            if isinstance(item, dict):
                edges.append((int(item["u"]), int(item["v"]),
                              float(item["b"])))
            elif isinstance(item, list):
                edges.append((int(item[0]), int(item[1]), float(item[2])))
            else:
                raise TypeError("entry must be an object or an array")
        except _ENTRY_ERRORS as exc:
            raise InputError(
                f"edges[{index}] needs integer endpoints and a number b, "
                f"got {item!r} ({type(exc).__name__}: {exc})") from None
    return WeightedGraph(mu, edges, labels=labels,
                         name=str(doc.get("name", name_hint)))


def loads_graph(text: str, name_hint: str = "") -> WeightedGraph:
    """Parse a graph from either the line format or a JSON document.

    Line format:  ``graph <name>`` / ``v <id> <mu>`` / ``e <id> <id> <b>``.
    JSON format:  one object with ``vertices`` and ``edges`` arrays.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON graph document: {exc}") from None
        return _parse_structured(doc, name_hint)
    return _parse_text(text, name_hint)


def load_graph(path) -> WeightedGraph:
    """Load a graph file (text or JSON, sniffed by content); the
    WeightedGraph constructor enforces every invariant of the data."""
    from pathlib import Path

    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise InputError(f"cannot read graph file {p}: {exc}") from None
    return loads_graph(text, name_hint=p.stem)


def dumps_graph(graph: WeightedGraph) -> str:
    """Serialize to the line format (round-trips through loads_graph)."""
    lines = [f"graph {graph.name}" if graph.name else "graph g"]
    for i in range(graph.n):
        if graph.labels[i] != str(i):
            lines.append(f"v {i} {float(graph.mu[i])!r} {graph.labels[i]}")
        else:
            lines.append(f"v {i} {float(graph.mu[i])!r}")
    for i, j, b in graph.edges:
        lines.append(f"e {i} {j} {float(b)!r}")
    return "\n".join(lines) + "\n"


def save_graph(graph: WeightedGraph, path) -> None:
    from pathlib import Path

    Path(path).write_text(dumps_graph(graph))
