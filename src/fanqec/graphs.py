"""Undirected simple graphs, BFS distance matrices, and path spectra.

Vertices are labelled 0..n-1.  The fan on n+1 vertices puts the hub at 0 and
the path on 1..n, which matches the block layout of its distance matrix
(hub row/column first).  Path eigenpairs are the classical sine vectors with
eigenvalues 2cos(k*pi/(n+1)).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np


class ParseError(ValueError):
    """Malformed edge-list input."""


class Disconnected(ValueError):
    """A vertex pair has no connecting walk."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus a set of (u, v) pairs, u < v."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        for u, v in self.edges:
            if not (0 <= u < v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range or not normalized")

    @classmethod
    def from_edges(cls, n_vertices: int, edges) -> Graph:
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            normalized.add((min(u, v), max(u, v)))
        return cls(n_vertices, frozenset(normalized))

    def neighbor_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        return adj


def single() -> Graph:
    return Graph(1, frozenset())


def path(n: int) -> Graph:
    """Path on n >= 1 vertices, edges {i, i+1}."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def join(g1: Graph, g2: Graph) -> Graph:
    """Graph join: disjoint union plus every edge between the two parts."""
    off = g1.n_vertices
    edges = set(g1.edges)
    edges.update((u + off, v + off) for u, v in g2.edges)
    edges.update((u, v + off) for u in range(g1.n_vertices)
                 for v in range(g2.n_vertices))
    return Graph.from_edges(off + g2.n_vertices, edges)


def fan(n: int) -> Graph:
    """Fan on n+1 vertices: hub 0 joined to the path 1..n."""
    if n < 1:
        raise ValueError("fan needs n >= 1")
    return join(single(), path(n))


def from_edge_list(text: str) -> Graph:
    """Parse `u v` pairs, one per line; `#` starts a comment; 0-indexed.

    A label is ASCII decimal digits; a leading `-` is refused as negative.
    The vertex count is max label + 1.  A label below the maximum that no
    edge uses would be an isolated vertex, so it raises Disconnected here,
    before anything of that size is allocated.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two vertex labels, got {raw!r}")
        # int() would also take "1_0", "+1" and non-ASCII digits.
        if not all(p.isascii() and p.removeprefix("-").isdigit() for p in parts):
            raise ParseError(f"line {lineno}: non-integer vertex label in {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex label in {raw!r}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
    if not edges:
        raise ParseError("no edges found")
    labels = {w for e in edges for w in e}
    if len(labels) <= max(labels):
        # The smallest unused label is below len(labels): O(E) to find.
        unused = next(w for w in range(len(labels)) if w not in labels)
        raise Disconnected(f"vertex {unused} is in no edge")
    return Graph.from_edges(len(labels), edges)


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest-path lengths by BFS from every vertex.

    Raises Disconnected if any pair is unreachable.
    """
    n = g.n_vertices
    adj = g.neighbor_lists()
    d = np.empty((n, n), dtype=np.int64)
    for src in range(n):
        # A plain list per source: numpy scalar indexing is 5x slower here.
        dist = [-1] * n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if -1 in dist:
            raise Disconnected(f"vertex {src} cannot reach every vertex")
        d[src] = dist
    return d


def path_spectrum(n: int) -> np.ndarray:
    """Eigenvalues 2cos(k*pi/(n+1)) of the path adjacency matrix, k = 1..n.

    Entry k-1 is the k-th largest eigenvalue; the sequence is strictly
    decreasing.
    """
    if n < 1:
        raise ValueError("path needs n >= 1")
    k = np.arange(1, n + 1)
    return 2.0 * np.cos(k * math.pi / (n + 1))


def path_eigenvector(n: int, k: int) -> np.ndarray:
    """Sine eigenvector (sin(l*k*pi/(n+1)))_{l=1..n} for the k-th eigenvalue."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    l = np.arange(1, n + 1)
    return np.sin(l * k * math.pi / (n + 1))
