"""Undirected simple graphs, BFS distance matrices, and path spectra.

Vertices are labelled 0..n-1.  The fan on n+1 vertices puts the hub at 0 and
the path on 1..n, which matches the block layout of its distance matrix
(hub row/column first).  Distance matrices come from one level-synchronous
breadth-first search that runs every source at once, in numpy, over an
adjacency in compressed sparse row form.  Path eigenpairs are the classical
sine vectors with eigenvalues 2cos(k*pi/(n+1)).
"""

from __future__ import annotations

import itertools
import math
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


def single() -> Graph:
    return Graph(1, frozenset())


def path(n: int) -> Graph:
    """Path on n >= 1 vertices, edges {i, i+1}."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def join(g1: Graph, g2: Graph) -> Graph:
    """Graph join: disjoint union plus every edge between the two parts."""
    off = g1.n_vertices
    # Every edge below already has u < v, so Graph checks it once as it is.
    edges = set(g1.edges)
    edges.update((u + off, v + off) for u, v in g2.edges)
    edges.update((u, v + off) for u in range(g1.n_vertices)
                 for v in range(g2.n_vertices))
    return Graph(off + g2.n_vertices, frozenset(edges))


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


# Sources per block of the breadth-first search are chosen so that a block
# expands at most about this many (source, vertex) pairs over all its levels.
# It bounds the search's working set: without blocks, a dense graph of
# diameter 2 would expand n * 2E pairs at once.
_PAIRS_PER_BLOCK = 1 << 22


def _adjacency(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compressed sparse rows: degrees, offset of each vertex's first
    neighbour, and every neighbour list laid end to end."""
    adj: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = np.fromiter(map(len, adj), dtype=np.int64, count=g.n_vertices)
    nbr = np.fromiter(itertools.chain.from_iterable(adj), dtype=np.int64,
                      count=2 * len(g.edges))
    return deg, np.cumsum(deg) - deg, nbr


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest-path lengths by BFS from every vertex.

    The search runs a block of sources at once: its frontier is the set of
    (source, vertex) pairs first reached at the current level, stored as
    flat indices source * n + vertex into the result.

    Raises Disconnected if any pair is unreachable.
    """
    n = g.n_vertices
    deg, first, nbr = _adjacency(g)
    d = np.full((n, n), -1, dtype=np.int64)
    flat = d.reshape(-1)  # a view: writing it fills d
    flat[::n + 1] = 0
    block = max(1, _PAIRS_PER_BLOCK // max(1, len(nbr)))
    for lo in range(0, n, block):
        src = np.arange(lo, min(lo + block, n), dtype=np.int64)
        key = src * (n + 1)
        unreached = len(src) * (n - 1)
        level = 0
        while unreached:
            if not len(key):
                # Reachability is symmetric, so vertex 0 misses a vertex too.
                raise Disconnected("vertex 0 cannot reach every vertex")
            level += 1
            cur = key % n
            k = deg[cur]
            ends = np.cumsum(k)
            # Neighbour j of frontier entry i sits at nbr[first[cur[i]] + j];
            # entry i's neighbours start at position ends[i] - k[i] here.
            at = np.arange(ends[-1]) + np.repeat(first[cur] - ends + k, k)
            key = np.repeat(key - cur, k) + nbr[at]
            key = key[flat[key] < 0]
            # Keep one entry per pair: each writes its position as a stamp,
            # and the entry whose stamp survives is the one kept.
            stamp = -2 - np.arange(len(key))
            flat[key] = stamp
            key = key[flat[key] == stamp]
            flat[key] = level
            unreached -= len(key)
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
