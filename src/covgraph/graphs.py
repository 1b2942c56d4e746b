"""Bi-directed covariance graphs and their combinatorial structure.

A covariance graph records which entries of a covariance matrix are
unrestricted: each vertex stands for one variable, and a missing edge
between two distinct vertices forces the corresponding covariance to
zero.  The vertex order is fixed at construction and defines the row
and column order of every matrix indexed by the graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "GraphError",
    "CovarianceGraph",
    "FreeIndexSet",
    "CompleteSetFamily",
    "FamilyViolation",
    "spouses",
    "free_index_set",
    "cliques",
    "singleton_family",
    "validate_family",
    "parse_graph_text",
    "parse_family_text",
    "graph_from_matrix",
]


class GraphError(ValueError):
    """Raised for malformed graphs, unknown labels, or bad graph files."""


class CovarianceGraph:
    """Bi-directed graph over an ordered tuple of distinct string labels.

    Edges are unordered pairs of distinct vertices.  Instances are
    immutable after construction and safe to share across threads.

    Parameters
    ----------
    vertices : iterable of str
        Vertex labels; the declaration order is kept and defines matrix
        row/column order.
    edges : iterable of (str, str)
        Unordered label pairs.  Self-loops and unknown labels are
        rejected; repeated pairs collapse to one edge.
    """

    __slots__ = ("vertices", "_pos", "_adj")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        vs = tuple(str(v) for v in vertices)
        if not vs:
            raise GraphError("a covariance graph needs at least one vertex")
        if len(vs) != len(set(vs)):
            raise GraphError("duplicate vertex labels in declaration")
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

    @property
    def p(self) -> int:
        return len(self.vertices)

    def index(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise GraphError(f"unknown vertex label {label!r}") from None

    def has_edge(self, a: str, b: str) -> bool:
        return bool(self._adj[self.index(a), self.index(b)])

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean adjacency matrix in vertex order."""
        return self._adj

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Edges as label pairs, in lexicographic index order."""
        return tuple(
            (self.vertices[i], self.vertices[j])
            for i, j in zip(*np.triu_indices(self.p, k=1))
            if self._adj[i, j]
        )

    @property
    def n_edges(self) -> int:
        return int(self._adj.sum()) // 2

    def spouse_idx(self, i: int) -> np.ndarray:
        """Positions of the vertices adjacent to position ``i``."""
        return np.flatnonzero(self._adj[i])

    def is_complete(self, idx: Sequence[int]) -> bool:
        idx = list(idx)
        return all(self._adj[a, b] for a, b in itertools.combinations(idx, 2))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CovarianceGraph):
            return NotImplemented
        return self.vertices == other.vertices and np.array_equal(self._adj, other._adj)

    def __hash__(self) -> int:
        return hash((self.vertices, self._adj.tobytes()))

    def __repr__(self) -> str:
        return f"CovarianceGraph(p={self.p}, edges={self.n_edges})"


def spouses(g: CovarianceGraph, i: str) -> tuple[str, ...]:
    """Vertices adjacent to ``i``, in vertex order."""
    return tuple(g.vertices[j] for j in g.spouse_idx(g.index(i)))


@dataclass(frozen=True)
class FreeIndexSet:
    """Matrix positions left unrestricted by the graph.

    ``pairs`` lists the diagonal positions in vertex order followed by
    the edge positions (i, j), i < j, in lexicographic order.  Its
    length is the vertex count plus the edge count.
    """

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)


def free_index_set(g: CovarianceGraph) -> FreeIndexSet:
    """Diagonal pairs plus edge pairs, in deterministic order."""
    diag = [(i, i) for i in range(g.p)]
    edge = [(i, j) for i, j in zip(*np.triu_indices(g.p, k=1)) if g.adjacency[i, j]]
    return FreeIndexSet(tuple(diag) + tuple((int(i), int(j)) for i, j in edge))


@dataclass(frozen=True)
class CompleteSetFamily:
    """Ordered family of vertex subsets, each intended to be complete."""

    sets: tuple[tuple[str, ...], ...]

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return iter(self.sets)


def cliques(g: CovarianceGraph) -> CompleteSetFamily:
    """All maximal complete sets, each once, in deterministic order.

    Bron-Kerbosch with a deterministic pivot (largest candidate
    intersection, ties broken by smallest index).  Graphs handled here
    are small, so the exponential worst case is acceptable.
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
    return CompleteSetFamily(tuple(tuple(g.vertices[i] for i in c) for c in found))


def singleton_family(g: CovarianceGraph) -> CompleteSetFamily:
    """One singleton set per vertex, in vertex order."""
    return CompleteSetFamily(tuple((v,) for v in g.vertices))


@dataclass(frozen=True)
class FamilyViolation:
    """First defect found when checking a complete-set family."""

    kind: str  # "unknown-vertex" | "incomplete" | "coverage"
    subset: tuple[str, ...] | None = None
    pair: tuple[str, str] | None = None
    missing: tuple[str, ...] | None = None

    @property
    def message(self) -> str:
        if self.kind == "unknown-vertex":
            return f"set {self.subset} names an unknown vertex"
        if self.kind == "incomplete":
            return f"set {self.subset} is not complete: {self.pair[0]} and {self.pair[1]} are not adjacent"
        return f"family does not cover vertices {self.missing}"


def validate_family(g: CovarianceGraph, fam: CompleteSetFamily | Iterable[Iterable[str]]) -> FamilyViolation | None:
    """Check that every set is complete and the union covers all vertices.

    Returns ``None`` when the family is valid, otherwise a report for
    the first offending set or pair.
    """
    sets = fam.sets if isinstance(fam, CompleteSetFamily) else tuple(tuple(s) for s in fam)
    covered: set[str] = set()
    for sub in sets:
        try:
            idx = sorted(g.index(v) for v in sub)
        except GraphError:
            return FamilyViolation("unknown-vertex", subset=tuple(sub))
        for a, b in itertools.combinations(idx, 2):
            if not g.adjacency[a, b]:
                return FamilyViolation(
                    "incomplete", subset=tuple(sub), pair=(g.vertices[a], g.vertices[b])
                )
        covered.update(sub)
    missing = tuple(v for v in g.vertices if v not in covered)
    if missing:
        return FamilyViolation("coverage", missing=missing)
    return None


def parse_graph_text(text: str, source: str = "<string>") -> CovarianceGraph:
    """Parse the plain-text graph format.

    One declaration per line: ``vertex <label>`` lines first, then
    ``edge <label> <label>`` lines.  ``#`` starts a comment.  Duplicate
    edges are rejected.
    """
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    seen_edges: set[frozenset[str]] = set()
    edges_started = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        where = f"{source}:{lineno}"
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise GraphError(f"{where}: expected 'vertex <label>'")
            if edges_started:
                raise GraphError(f"{where}: vertex declared after edges")
            vertices.append(parts[1])
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise GraphError(f"{where}: expected 'edge <label> <label>'")
            edges_started = True
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


def parse_family_text(text: str, g: CovarianceGraph, source: str = "<string>") -> CompleteSetFamily:
    """Parse a complete-set family: one set per line, labels comma-separated."""
    sets: list[tuple[str, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        labels = tuple(part.strip() for part in line.split(","))
        if any(not lab for lab in labels):
            raise GraphError(f"{source}:{lineno}: empty label in set")
        for lab in labels:
            g.index(lab)
        sets.append(labels)
    return CompleteSetFamily(tuple(sets))


def graph_from_matrix(m: np.ndarray, labels: Sequence[str] | None = None, tol: float = 0.0) -> CovarianceGraph:
    """Graph whose edges mark the nonzero off-diagonal entries of ``m``."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GraphError("expected a square matrix")
    p = m.shape[0]
    if labels is None:
        labels = [f"X{k + 1}" for k in range(p)]
    labels = tuple(labels)
    edges = [
        (labels[i], labels[j])
        for i in range(p)
        for j in range(i + 1, p)
        if abs(m[i, j]) > tol or abs(m[j, i]) > tol
    ]
    return CovarianceGraph(labels, edges)
