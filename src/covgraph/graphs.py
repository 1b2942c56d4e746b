"""Bi-directed covariance graphs and their combinatorial structure.

A covariance graph records which entries of a covariance matrix are
unrestricted: each vertex stands for one variable, and a missing edge
between two distinct vertices forces the corresponding covariance to
zero.  The vertex order is fixed at construction and defines the row
and column order of every matrix indexed by the graph.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "GraphError",
    "CovarianceGraph",
    "FreeIndexSet",
    "free_index_set",
    "cliques",
    "validate_family",
    "parse_graph_text",
    "parse_family_text",
    "graph_from_matrix",
    "label_order",
]


class GraphError(ValueError):
    """Raised for malformed graphs, unknown labels, or bad graph files."""


def _upper_pairs(mask: np.ndarray) -> Iterator[tuple[int, int]]:
    """Positions (i, j), i < j, where ``mask`` is set, in lexicographic order."""
    rows, cols = np.nonzero(np.triu(mask, 1))
    return zip(rows.tolist(), cols.tolist())


class CovarianceGraph:
    """Bi-directed graph over an ordered tuple of distinct string labels.

    Edges are unordered pairs of distinct vertices.  Instances are
    immutable after construction and safe to share across threads.
    What is derived from the graph alone is built once per graph: the
    ``FreeIndexSet`` on construction, and everything else on first use,
    into one store that ``_kept`` fills by key.  Filling is idempotent,
    so a race at most builds a value twice.  The store is not part of
    the graph's value: equality, hashing and pickling ignore it.

    Parameters
    ----------
    vertices : iterable of str
        Vertex labels; the declaration order is kept and defines matrix
        row/column order.
    edges : iterable of (str, str)
        Unordered label pairs.  Self-loops and unknown labels are
        rejected; repeated pairs collapse to one edge.
    """

    __slots__ = ("vertices", "_pos", "_adj", "_free", "_store")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        vs = tuple(str(v) for v in vertices)
        if not vs:
            raise GraphError("a covariance graph needs at least one vertex")
        if len(vs) != len(set(vs)):
            raise GraphError(f"duplicate vertex labels in declaration: {', '.join(map(repr, _duplicates(vs)))}")
        self.vertices = vs
        self._pos = {v: k for k, v in enumerate(vs)}
        adj = np.zeros((len(vs), len(vs)), dtype=bool)
        for a, b in edges:
            i, j = self.index(a), self.index(b)
            if i == j:
                raise GraphError(f"self-loop at vertex {a!r}")
            adj[i, j] = adj[j, i] = True
        adj.setflags(write=False)
        self._adj = adj
        self._free = FreeIndexSet(adj)
        self._store: dict = {}

    @property
    def p(self) -> int:
        return len(self.vertices)

    def index(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise GraphError(f"unknown vertex label {label!r}") from None

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean adjacency matrix in vertex order."""
        return self._adj

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Edges as label pairs, in lexicographic index order."""
        vs = self.vertices
        return tuple((vs[i], vs[j]) for i, j in self._free.pairs[self.p:])

    @property
    def n_edges(self) -> int:
        return len(self._free) - self.p

    def __reduce__(self):
        # Rebuilt, not restored slot by slot, so the arrays stay read-only.
        return CovarianceGraph, (self.vertices, self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CovarianceGraph):
            return NotImplemented
        return self.vertices == other.vertices and np.array_equal(self._adj, other._adj)

    def __hash__(self) -> int:
        return hash((self.vertices, self._adj.tobytes()))

    def __repr__(self) -> str:
        return f"CovarianceGraph(p={self.p}, edges={self.n_edges})"


def _kept(g: CovarianceGraph, key: Hashable, build: Callable[[], Any]) -> Any:
    """The value kept in the store of ``g`` under ``key``; ``build()`` makes it on first use."""
    if key not in g._store:
        g._store[key] = build()
    return g._store[key]


def _duplicates(labels: Sequence[str]) -> list[str]:
    return [lab for lab, count in Counter(labels).items() if count > 1]


def label_order(
    vertices: Sequence[str], labels: Sequence[str] | None, size: int, what: str
) -> np.ndarray:
    """Indices that read the ``size`` variables of input ``what`` in ``vertices`` order.

    Unlabelled input (``labels`` None) is read in vertex order if ``size``
    matches; labelled input must name each vertex once, else ``GraphError``
    names every missing, extra and duplicate label.
    """
    if labels is None:
        if size != len(vertices):
            raise GraphError(f"{what} has {size} unlabelled variables for {len(vertices)} vertices")
        return np.arange(size)
    pos = {lab: k for k, lab in enumerate(labels)}
    bad = {
        "missing": [v for v in vertices if v not in pos],
        "extra": sorted(pos.keys() - set(vertices)),
        "duplicate": _duplicates(labels),
    }
    if any(bad.values()):
        found = "; ".join(f"{kind} {', '.join(map(repr, labs))}" for kind, labs in bad.items() if labs)
        raise GraphError(f"{what} labels do not match the graph's vertices: {found}")
    return np.array([pos[v] for v in vertices])


class FreeIndexSet:
    """Index map between a patterned symmetric matrix and its free entries.

    The free entries are the diagonal positions in vertex order followed
    by the edge positions (i, j), i < j, in lexicographic order.  ``rows``
    and ``cols`` hold them as read-only int arrays and ``pairs`` as
    plain-int tuples; ``mult`` is the edge doubling, 1 on the diagonal
    and 2 on an edge.  The map plays the role of the 0/1 duplication
    matrix sending the free-entry vector to the vectorized matrix; it is
    applied by gather and scatter, never materialized.  Each
    ``CovarianceGraph`` builds its map once; read it by ``free_index_set``.
    """

    __slots__ = ("p", "rows", "cols", "mult", "pairs")

    def __init__(self, adjacency: np.ndarray):
        self.p = len(adjacency)
        edge_rows, edge_cols = np.nonzero(np.triu(adjacency, 1))
        diag = np.arange(self.p)
        self.rows = np.concatenate([diag, edge_rows])
        self.cols = np.concatenate([diag, edge_cols])
        self.mult = np.where(self.rows == self.cols, 1.0, 2.0)
        for a in (self.rows, self.cols, self.mult):
            a.setflags(write=False)
        self.pairs = tuple(zip(self.rows.tolist(), self.cols.tolist()))

    def __len__(self) -> int:
        return len(self.pairs)

    def expand(self, values: np.ndarray) -> np.ndarray:
        """Symmetric p x p matrix with ``values`` on the free entries."""
        out = np.zeros((self.p, self.p))
        out[self.rows, self.cols] = values
        out[self.cols, self.rows] = values
        return out

    def adjoint_vec(self, m: np.ndarray) -> np.ndarray:
        """Adjoint applied to a vectorized symmetric matrix: doubles edges."""
        return self.mult * np.asarray(m)[self.rows, self.cols]


def free_index_set(g: CovarianceGraph) -> FreeIndexSet:
    """The graph's free-entry map: diagonal pairs, then edge pairs."""
    return g._free


def cliques(g: CovarianceGraph) -> tuple[tuple[str, ...], ...]:
    """All maximal complete sets as label tuples, each once, in deterministic order.

    Found on the first call for a graph and kept on it.
    """
    return _kept(g, "cliques", lambda: _maximal_cliques(g))


def _maximal_cliques(g: CovarianceGraph) -> tuple[tuple[str, ...], ...]:
    """Bron-Kerbosch with a deterministic pivot.

    The pivot has the largest candidate intersection, ties broken by
    smallest index.  Graphs handled here are small, so the exponential
    worst case is acceptable.
    """
    adj = [set(np.flatnonzero(row)) for row in g.adjacency]
    found: list[tuple[int, ...]] = []

    def expand(r: list[int], p_: list[int], x: list[int]) -> None:
        if not p_ and not x:
            found.append(tuple(sorted(r)))
            return
        pivot = max(p_ + x, key=lambda u: (len(adj[u] & set(p_)), -u))
        for v in [u for u in p_ if u not in adj[pivot]]:
            expand(r + [v], [u for u in p_ if u in adj[v]], [u for u in x if u in adj[v]])
            p_.remove(v)
            x.append(v)

    expand([], list(range(g.p)), [])
    found.sort()
    return tuple(tuple(g.vertices[i] for i in c) for c in found)


def validate_family(g: CovarianceGraph, fam: Iterable[Iterable[str]]) -> str | None:
    """Check a complete-set family: a sequence of label sets.

    Every set must name known vertices, each once, and be complete, and
    the union must cover all vertices.  Returns ``None`` when the family
    is valid, otherwise a message on the first offending set or pair.
    """
    covered: set[str] = set()
    for sub in map(tuple, fam):
        try:
            idx = sorted(g.index(v) for v in sub)
        except GraphError:
            return f"set {sub} names an unknown vertex"
        if len(set(idx)) < len(idx):
            return f"set {sub} names vertex {_duplicates(sub)[0]} more than once"
        for a, b in itertools.combinations(idx, 2):
            if not g.adjacency[a, b]:
                return f"set {sub} is not complete: {g.vertices[a]} and {g.vertices[b]} are not adjacent"
        covered.update(sub)
    missing = tuple(v for v in g.vertices if v not in covered)
    if missing:
        return f"family does not cover vertices {missing}"
    return None


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of every line left nonblank once its ``#`` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_graph_text(text: str, source: str = "<string>") -> CovarianceGraph:
    """Parse the plain-text graph format.

    One declaration per line: ``vertex <label>`` lines first, then
    ``edge <label> <label>`` lines.  ``#`` starts a comment.  Duplicate
    vertices and edges are rejected, citing ``source`` and the line.
    """
    vertices: dict[str, None] = {}  # the declared labels, in order
    edges: list[tuple[str, str]] = []
    seen_edges: set[frozenset[str]] = set()
    for lineno, line in _content_lines(text):
        parts = line.split()
        where = f"{source}:{lineno}"
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise GraphError(f"{where}: expected 'vertex <label>'")
            if edges:
                raise GraphError(f"{where}: vertex declared after edges")
            if parts[1] in vertices:
                raise GraphError(f"{where}: duplicate vertex {parts[1]!r}")
            vertices[parts[1]] = None
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise GraphError(f"{where}: expected 'edge <label> <label>'")
            unknown = [lab for lab in parts[1:3] if lab not in vertices]
            if unknown:
                raise GraphError(f"{where}: unknown vertex label {unknown[0]!r}")
            key = frozenset(parts[1:3])
            if len(key) == 1:
                raise GraphError(f"{where}: self-loop at vertex {parts[1]!r}")
            if key in seen_edges:
                raise GraphError(f"{where}: duplicate edge {parts[1]} {parts[2]}")
            seen_edges.add(key)
            edges.append((parts[1], parts[2]))
        else:
            raise GraphError(f"{where}: unknown declaration {parts[0]!r}")
    return CovarianceGraph(vertices, edges)


def parse_family_text(text: str, g: CovarianceGraph, source: str = "<string>") -> tuple[tuple[str, ...], ...]:
    """Parse a family of known labels, one set per line, comma-separated; ``validate_family`` checks it."""
    sets: list[tuple[str, ...]] = []
    for lineno, line in _content_lines(text):
        labels = tuple(part.strip() for part in line.split(","))
        if any(not lab for lab in labels):
            raise GraphError(f"{source}:{lineno}: empty label in set")
        unknown = [lab for lab in labels if lab not in g._pos]
        if unknown:
            raise GraphError(f"{source}:{lineno}: unknown vertex label {unknown[0]!r}")
        sets.append(labels)
    return tuple(sets)


def graph_from_matrix(m: np.ndarray, labels: Sequence[str] | None = None) -> CovarianceGraph:
    """Graph whose edges mark the nonzero off-diagonal entries of ``m``; one label per row, X1... by default."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GraphError("expected a square matrix")
    p = m.shape[0]
    labels = tuple(labels) if labels is not None else tuple(f"X{k + 1}" for k in range(p))
    if len(labels) != p:
        raise GraphError(f"{len(labels)} labels for a {p} x {p} matrix")
    nonzero = m != 0.0
    edges = [(labels[i], labels[j]) for i, j in _upper_pairs(nonzero | nonzero.T)]
    return CovarianceGraph(labels, edges)
