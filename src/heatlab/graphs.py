"""Weighted graphs (X, b, mu) and the difference Laplacian.

A graph is a finite vertex set with a symmetric edge-weight function b >= 0
(zero diagonal, finite row sums) and a strictly positive vertex measure mu.
The formal difference Laplacian acts on functions psi by

    (L psi)(x) = -(1/mu(x)) * sum_y b(x,y) * (psi(x) - psi(y)),

and the (nonnegative) generator used everywhere else in the package is
H = -L, with matrix entries H[x,x] = Deg(x) and H[x,y] = -b(x,y)/mu(x),
where Deg(x) = (1/mu(x)) * sum_y b(x,y) is the weighted degree. H is
self-adjoint on L^2(X, mu), so S = M^{1/2} H M^{-1/2}, M = diag(mu), is
symmetric. At the rate Lambda = max_x Deg(x) they uniformize to the jump
chain R = I - H/Lambda and R_s = I - S/Lambda = M^{1/2} R M^{-1/2}. This
module alone builds them, each as one scatter of the edge table: S on each
call for the traces and killed kernels, R_s on each call for the heat
tables, R once per graph for the bridges, the killed actions and the scan,
the padded table of R's row nonzeros (row_support) once per graph for the
bridge sampler alone, and H on each call for the tests.

Storage. A WeightedGraph keeps its edges as numpy arrays, built once by the
constructor, and derives everything else from them without a per-edge
Python loop:

- ``_upper``: the (m, 3) int64 table of stored edges (i, j, bits of b),
  i < j, sorted ascending, b > 0 only. The fingerprint is its bytes after
  those of n and mu; ``edges`` is the same table as Python triples.
- ``_rows``, ``_cols``, ``_vals``, ``_indptr``: the symmetric matrix b in
  CSR form, each edge once in row i and once in row j, entries sorted by
  (row, column). ``neighbors(x)`` is one row slice; each operator is one
  fancy-index assignment; the weighted degrees are one ``bincount`` over
  the rows, which adds each row's weights in ascending column order from 0.

The constructor validates the raw edge list in one vectorized pass
(``_check_edges``), which reports the first invalid edge in input order.
"""

from __future__ import annotations

import functools
import json
import threading

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
from .util import is_finite_real


# serializes the first build of a graph's jump chain and of its row support,
# so concurrent bridge builds all share one R and one row-support table
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


def _edge_table(edges) -> np.ndarray:
    """An edge list of (u, v, b) triples as an (m, 3) float array."""
    try:
        if not isinstance(edges, (list, tuple, np.ndarray)):
            edges = list(edges)
        table = np.array(edges)
    except (TypeError, ValueError) as exc:
        raise InputError(f"edges must be (u, v, b) triples: {exc}") from None
    if table.dtype.kind not in "biuf":
        raise InputError("edges must be (u, v, b) triples of numbers, got "
                         f"entries of type {table.dtype}")
    table = table.astype(float, copy=False)
    if table.ndim == 1 and table.size == 0:
        table = table.reshape(0, 3)
    if table.ndim != 2 or table.shape[1] != 3:
        raise InputError(f"edges must be (u, v, b) triples, got an array of "
                         f"shape {table.shape}")
    return table


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the positions that begin a run of equal sorted keys."""
    starts = np.ones(sorted_keys.size, dtype=bool)
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return starts


def _first_in_group(keys: np.ndarray, rank=0) -> np.ndarray:
    """For each entry, the index of the entry of least rank (0 or 1) among
    those with the same key, ties going to the lower index.

    Every sort here is numpy's stable argsort: one sort kernel keeps the
    code the process touches, and so its resident size, small.
    """
    order = np.argsort(keys * 2 + rank, kind="stable")
    starts = _run_starts(keys[order])
    first = np.empty(keys.size, dtype=np.intp)
    first[order] = order[starts][np.cumsum(starts) - 1]
    return first


def _vertex_label(x: float) -> str:
    return str(int(x)) if x.is_integer() else repr(x)


def _check_edges(u, v, b, n: int) -> None:
    """Raise for the first invalid edge in input order, or return.

    The checks of one edge run in this order: both ids are integers in
    0..n-1 (u first), b is finite, a self-loop has b = 0, an earlier edge
    of the same direction has the same b, b >= 0, and an earlier stored
    (b > 0) edge of either direction has the same b. Zero weights are not
    stored, so (0,1,0.0),(1,0,1.0) is accepted while (0,1,1.0),(1,0,0.0)
    is not. Flags are computed for every edge at once; the edges before the
    first flagged one are all valid, which is what the conflict checks
    compare against.
    """
    good_u = (u >= 0) & (u < n) & (np.floor(u) == u)
    good_v = (v >= 0) & (v < n) & (np.floor(v) == v)
    finite = np.isfinite(b)
    loop = u == v
    ok = good_u & good_v & finite
    bad = ~ok | (loop & (b != 0.0))
    # candidates: edges that reach the conflict checks
    cand = np.flatnonzero(ok & ~loop)
    i = u[cand].astype(np.int64)
    j = v[cand].astype(np.int64)
    w = b[cand]
    directed = w != w[_first_in_group(i * n + j)]
    # b of the pair's first stored edge; with none stored, every b of the
    # pair is <= 0 and any difference is a negative b, flagged anyway
    ref = _first_in_group(np.minimum(i, j) * n + np.maximum(i, j), w <= 0.0)
    undirected = (ref < np.arange(cand.size)) & (w != w[ref])
    bad[cand] |= directed | (w < 0.0) | undirected
    if not bad.any():
        return
    k = int(np.argmax(bad))
    x, y, w = float(u[k]), float(v[k]), float(b[k])
    if not (good_u[k] and good_v[k]):
        z = y if good_u[k] else x
        raise UnknownVertex(
            f"edge ({_vertex_label(x)},{_vertex_label(y)}) references vertex "
            f"{_vertex_label(z)}"
            + ("" if z.is_integer() else ", which is not an integer"))
    x, y = int(x), int(y)
    if not finite[k]:
        raise NegativeWeight(f"edge ({x},{y}) has non-finite weight {w}")
    if x == y:
        raise SelfLoop(f"b({x},{x}) = {w} must be zero")
    same = np.flatnonzero((u[:k] == u[k]) & (v[:k] == v[k]))
    if same.size and b[same[-1]] != w:
        raise AsymmetricWeights(f"conflicting weights for edge ({x},{y}): "
                                f"{float(b[same[-1]])} vs {w}")
    if w < 0.0:
        raise NegativeWeight(f"b({x},{y}) = {w} must be nonnegative")
    c = int(np.searchsorted(cand, k))
    raise AsymmetricWeights(
        f"b{(x, y)} = {w} but b{(y, x)} = {float(b[cand[ref[c]]])}")


class WeightedGraph:
    """Immutable weighted graph over vertices 0..n-1 with optional labels.

    A label is one token of the line format (nonempty, without whitespace
    or '#') and names one vertex; an unlabelled vertex's label is its index.
    The name is what a ``graph <name>`` line holds: no '#', and its
    whitespace only single spaces between words. The empty name means
    unnamed.
    """

    def __init__(self, mu, edges, labels=None, name: str = ""):
        try:
            mu = np.array(mu, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"mu must be an array of numbers: {exc}") \
                from None
        if mu.ndim != 1 or mu.size == 0:
            raise NonpositiveMeasure("mu must be a nonempty 1-d array")
        n = mu.size
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
            bad = int(np.argmin(np.where(np.isfinite(mu), mu, -np.inf)))
            raise NonpositiveMeasure(f"mu({bad}) = {mu[bad]} must be positive and finite")

        u, v, b = _edge_table(edges).T
        _check_edges(u, v, b, n)
        # store each b > 0 once, as the triple (i < j, b), ascending; valid
        # self-loops have b = 0
        keep = b > 0.0
        lo = np.minimum(u[keep], v[keep]).astype(np.int64)
        hi = np.maximum(u[keep], v[keep]).astype(np.int64)
        pairs = lo * n + hi
        order = np.argsort(pairs, kind="stable")
        first = order[_run_starts(pairs[order])]
        iu, ju, bu = lo[first], hi[first], b[keep][first]
        self._upper = np.column_stack((iu, ju, bu.view(np.int64)))
        # symmetric CSR: each triple in rows i and j, each row by column
        rows, cols = np.concatenate((iu, ju)), np.concatenate((ju, iu))
        order = np.argsort(rows * n + cols, kind="stable")
        self._rows, self._cols = rows[order], cols[order]
        self._vals = np.concatenate((bu, bu))[order]
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._rows, minlength=n), out=self._indptr[1:])
        for a in (self._upper, self._rows, self._cols, self._vals,
                  self._indptr):
            a.setflags(write=False)

        if " ".join(name.split()) != name or "#" in name:
            raise InputError(f"graph name {name!r} holds '#', a line break "
                             "or whitespace other than single inner spaces")
        self.n = n
        self.name = name
        self.mu = mu
        self.mu.setflags(write=False)
        self.labels = tuple(map(str, range(n) if labels is None else labels))
        if len(self.labels) != n:
            raise InputError(f"{len(self.labels)} labels for {n} vertices")
        # each label must be one token of the line format, and name one vertex
        first = {}
        for x, label in enumerate(self.labels):
            if label.split() != [label] or "#" in label:
                raise InputError(f"label {label!r} of vertex {x} is empty or "
                                 "holds whitespace or '#'")
            if first.setdefault(label, x) != x:
                raise InputError(f"vertices {first[label]} and {x} share the "
                                 f"label {label!r}")

        # summability: Deg(x) = sum_y b(x,y) / mu(x) must be finite; the sum
        # runs over the neighbours of x in ascending order, from 0
        sums = np.bincount(self._rows, weights=self._vals, minlength=n)
        with np.errstate(over="ignore"):
            self._degrees = sums / mu
        if not np.all(np.isfinite(self._degrees)):
            x = int(np.argmin(np.isfinite(self._degrees)))
            raise InputError(f"weighted degree Deg({x}) = {sums[x]} / "
                             f"{mu[x]} is not finite")
        self._degrees.setflags(write=False)
        self._chain = None
        self._support = None
        self._components = None
        self._fingerprint = None

    @functools.cached_property
    def edges(self) -> tuple:
        """The stored edges as (i, j, b) triples, i < j, ascending."""
        i, j, bits = self._upper.T
        return tuple(zip(i.tolist(), j.tolist(),
                         bits.view(np.float64).tolist()))

    # ------------------------------------------------------------- identity

    def resolve(self, key) -> int:
        """Map a string label or an integral index (_is_id) to a vertex."""
        if isinstance(key, str):
            try:
                return self.labels.index(key)
            except ValueError:
                raise UnknownVertex(f"no vertex labeled {key!r}") from None
        if not _is_id(key):
            raise UnknownVertex(f"{key!r} is not a vertex index or label")
        x = int(key)
        if not 0 <= x < self.n:
            raise UnknownVertex(f"vertex {x} outside 0..{self.n - 1}")
        return x

    def fingerprint(self) -> bytes:
        """The graph's exact content, the cache key of its kernel tables:
        int64 n, then mu, then the stored triples as int64 (i, j, bits of b)
        rows. Not a hash: equal keys mean equal graphs, so two graphs never
        share a cache entry. Built once; cache entries share it."""
        if self._fingerprint is None:
            self._fingerprint = b"".join((np.int64(self.n).tobytes(),
                                          self.mu.tobytes(),
                                          self._upper.tobytes()))
        return self._fingerprint

    # ------------------------------------------------------------- geometry

    def neighbors(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(columns, weights) of row x: the neighbours y of x in ascending
        order and b(x, y), as read-only views."""
        x = self.resolve(x)
        row = slice(self._indptr[x], self._indptr[x + 1])
        return self._cols[row], self._vals[row]

    def degree(self, x) -> float:
        """Weighted degree Deg(x) = (1/mu(x)) * sum_y b(x,y)."""
        return float(self._degrees[self.resolve(x)])

    def degrees(self) -> np.ndarray:
        """All weighted degrees, read-only."""
        return self._degrees

    # ------------------------------------------------------------- operator

    def _dense(self, off: np.ndarray, diag) -> np.ndarray:
        """A new n x n array: off at the stored positions (in CSR order),
        diag on the diagonal, 0.0 elsewhere."""
        a = np.zeros((self.n, self.n))
        a[self._rows, self._cols] = off
        np.fill_diagonal(a, diag)
        return a

    def _weights(self, symmetric: bool) -> np.ndarray:
        """b(x,y)/mu(x) at the stored positions or, when symmetric, the
        exactly symmetric b(x,y) / (sqrt(mu_x) * sqrt(mu_y))."""
        if not symmetric:
            return self._vals / self.mu[self._rows]
        root = np.sqrt(self.mu)
        return self._vals / (root[self._rows] * root[self._cols])

    def generator_matrix(self) -> np.ndarray:
        """Dense H = -L, built on each call: H[x,x] = Deg(x) and H[x,y] =
        0.0 - b(x,y)/mu(x), +0.0 where that underflows, as at a non-edge."""
        return self._dense(0.0 - self._weights(False), self._degrees)

    def symmetric_generator(self) -> np.ndarray:
        """Dense S = M^{1/2} H M^{-1/2}, built on each call: exactly
        symmetric, S[x,x] = Deg(x), S[x,y] = -b(x,y) / sqrt(mu_x mu_y)."""
        return self._dense(0.0 - self._weights(True), self._degrees)

    def _uniformized(self, symmetric: bool) -> tuple[float, np.ndarray]:
        """uniformize(S if symmetric else H) bit for bit, from the edges:
        weight / Lambda off the diagonal, 1 - Deg(x)/Lambda on it."""
        lam = float(np.max(self._degrees))
        if not lam:
            return lam, np.eye(self.n)
        return lam, self._dense(self._weights(symmetric) / lam,
                                1.0 - self._degrees / lam)

    def jump_chain(self) -> tuple[float, np.ndarray]:
        """(Lambda, R), R = I - H/Lambda, built once and shared read-only."""
        with _chain_lock:
            if self._chain is None:
                self._chain = self._uniformized(False)
                self._chain[1].setflags(write=False)
        return self._chain

    def row_support(self) -> tuple[np.ndarray, np.ndarray]:
        """Padded table (cols, vals) of R's row nonzeros, built once, shared
        read-only, read by the bridge sampler alone. Row z lists the columns
        c with R[z, c] != 0 in ascending order and their values, then pads
        with column n - 1 (where a search over all n columns clamps) and 0.0
        up to one more than the longest row, so each row ends in a pad."""
        r = self.jump_chain()[1]
        with _chain_lock:
            if self._support is None:
                rows, cs = np.nonzero(r)
                per_row = np.bincount(rows, minlength=self.n)
                slot = np.arange(rows.size) - np.repeat(
                    np.cumsum(per_row) - per_row, per_row)
                width = int(per_row.max(initial=0)) + 1
                cols = np.full((self.n, width), self.n - 1, dtype=np.intp)
                vals = np.zeros((self.n, width))
                cols[rows, slot] = cs
                vals[rows, slot] = r[rows, cs]
                cols.setflags(write=False)
                vals.setflags(write=False)
                self._support = (cols, vals)
        return self._support

    def symmetric_jump_chain(self) -> tuple[float, np.ndarray]:
        """(Lambda, R_s), R_s = I - S/Lambda = M^{1/2} R M^{-1/2}, built on
        each call and not kept. R_s is exactly symmetric and nonnegative;
        its off-diagonal divides by Lambda last, which cannot overflow:
        b(x,y) / sqrt(mu_x mu_y) <= sqrt(Deg(x) Deg(y)) <= Lambda.
        """
        return self._uniformized(True)

    # ----------------------------------------------------------- structure

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by their
        least vertex.

        Every vertex starts labelled with itself and takes the least label
        among its neighbours, then the label of its label (pointer jumping),
        until no label moves; each label is then its component's least
        vertex.
        """
        if self._components is None:
            labels = np.arange(self.n)
            while True:
                step = labels.copy()
                np.minimum.at(step, self._rows, labels[self._cols])
                step = step[step]
                if np.array_equal(step, labels):
                    break
                labels = step
            order = np.argsort(labels, kind="stable")
            cuts = np.flatnonzero(np.diff(labels[order])) + 1
            self._components = [c.tolist() for c in np.split(order, cuts)]
        return self._components

    def __repr__(self):
        return (f"WeightedGraph(n={self.n}, edges={len(self._upper)}"
                + (f", name={self.name!r}" if self.name else "") + ")")


def require_connected(graph: WeightedGraph) -> None:
    comps = graph.components()
    if len(comps) > 1:
        raise DisconnectedGraph(
            f"graph has {len(comps)} components; strict kernel positivity "
            "cannot be certified")


# ------------------------------------------------------------- file format

_RECORD_USAGE = {"v": "expected: v <id> <mu> [label]",
                 "e": "expected: e <id> <id> <b>"}


def _parse_text(text: str, name_hint: str) -> WeightedGraph:
    """Parse the line format, converting each record as its line is read.

    The error reported is the first bad line's: a malformed record, or
    within one line a bad id, a duplicate vertex id, then a bad number.
    """
    name = name_hint
    vertices, edges = {}, []        # id -> (mu, label); (u, v, b)
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
                raise InputError(f"line {lineno}: " + _RECORD_USAGE.get(
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


def _entries(doc: dict, key: str) -> list:
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise InputError(f"'{key}' must be an array, got {items!r}")
    return items


def _fields(item, keys: tuple) -> tuple:
    """The values of an entry given as an object with these keys or as an
    array of exactly these values; None for each one that is missing."""
    if isinstance(item, dict):
        return tuple(item.get(key) for key in keys)
    if isinstance(item, list) and len(item) == len(keys):
        return tuple(item)
    return (None,) * len(keys)


def _is_id(value) -> bool:
    """An integral number, numpy's too (1, 1.0; not 1.5, true or "1")."""
    if isinstance(value, np.floating):
        value = float(value)
    return isinstance(value, np.integer) or (
        is_finite_real(value) and float(value).is_integer())


def _parse_structured(doc: dict, name_hint: str) -> WeightedGraph:
    """Parse a JSON graph document. Ids and numbers follow the rule of
    config values: a number, never a bool, a string or null, and an id
    integral."""
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise InputError("structured graph document needs a 'vertices' array")
    entries = []
    for index, item in enumerate(_entries(doc, "vertices")):
        vid, m = _fields(item, ("id", "mu"))
        if not (_is_id(vid) and is_finite_real(m)):
            raise InputError(
                f"vertices[{index}] needs an integer id and a finite number "
                f"mu, got {item!r}")
        label = item.get("label") if isinstance(item, dict) else None
        entries.append((int(vid), float(m), label))
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
        u, v, b = _fields(item, ("u", "v", "b"))
        if not (_is_id(u) and _is_id(v) and is_finite_real(b)):
            raise InputError(
                f"edges[{index}] needs integer endpoints and a finite number "
                f"b, got {item!r}")
        edges.append((int(u), int(v), float(b)))
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
    # the file stem, read as a graph line would read it
    hint = " ".join(p.stem.split("#", 1)[0].split())
    return loads_graph(text, name_hint=hint)


def dumps_graph(graph: WeightedGraph) -> str:
    """Serialize to the line format (round-trips through loads_graph).

    An unnamed graph gets no ``graph`` line, so loads_graph reads it back
    unnamed and load_graph names it after its file, as any such file.
    """
    lines = [f"graph {graph.name}"] if graph.name else []
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
