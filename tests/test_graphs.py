"""Graph construction, distance matrices, and path eigenpairs."""

import math
import random
from collections import deque

import numpy as np
import pytest

from fanqec import graphs
from fanqec.graphs import (
    Disconnected,
    Graph,
    ParseError,
    distance_matrix,
    fan,
    from_edge_list,
    join,
    path,
    path_eigenvector,
    path_spectrum,
)


def path_adjacency(n: int) -> np.ndarray:
    """Tridiagonal 0/1 adjacency matrix of the path on n vertices."""
    a = np.zeros((n, n))
    idx = np.arange(n - 1)
    a[idx, idx + 1] = 1.0
    a[idx + 1, idx] = 1.0
    return a


def complete(n: int) -> Graph:
    return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def star(n: int) -> Graph:
    return Graph(n, frozenset((0, i) for i in range(1, n)))


def complete_minus_matching(n: int) -> Graph:
    """K_n for even n without the edges {2i, 2i+1}: diameter 2, dense."""
    return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)
                              if not (i % 2 == 0 and j == i + 1)))


def random_connected(rng: random.Random, n: int) -> Graph:
    """Random spanning tree on shuffled labels plus up to n random chords."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = {tuple(sorted((labels[i], labels[rng.randrange(i)]))) for i in range(1, n)}
    for _ in range(rng.randrange(n + 1)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add(tuple(sorted((u, v))))
    return Graph(n, frozenset(edges))


def reference_distances(g: Graph) -> list[list[int]]:
    """Plain queue BFS from each source in turn; -1 marks an unreached vertex."""
    adj = [[] for _ in range(g.n_vertices)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    rows = []
    for src in range(g.n_vertices):
        dist = [-1] * g.n_vertices
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(dist)
    return rows


def reference_graphs() -> list[Graph]:
    rng = random.Random(20261019)
    return ([random_connected(rng, rng.randint(1, 150)) for _ in range(40)]
            + [complete(n) for n in (1, 2, 3, 17)]
            + [star(n) for n in (2, 3, 40)]
            + [path(n) for n in (1, 2, 3, 7, 64)]
            + [fan(n) for n in (1, 2, 5, 90)]
            + [complete_minus_matching(40)])


DISCONNECTED = [
    Graph(2, frozenset()),
    Graph(4, frozenset([(0, 1), (2, 3)])),
    # A component without vertex 0, and vertex 0 alone.
    Graph(5, frozenset([(0, 1), (1, 2), (3, 4)])),
    Graph(4, frozenset([(1, 2), (2, 3), (1, 3)])),
    Graph(6, frozenset([(0, 5), (1, 2), (2, 3), (3, 4)])),
]


class TestConstruction:
    def test_smallest_fans_are_complete(self):
        assert fan(1).edges == complete(2).edges
        assert fan(2).edges == complete(3).edges

    def test_fan_five_counts(self):
        g = fan(5)
        assert g.n_vertices == 6
        assert len(g.edges) == 9

    def test_join_of_singletons(self):
        assert join(path(1), path(1)).edges == complete(2).edges

    def test_fan_is_join_of_hub_and_path(self):
        assert fan(7) == join(path(1), path(7))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(0, 5)}))

    def test_path_needs_vertex(self):
        with pytest.raises(ValueError):
            path(0)


class TestEdgeList:
    def test_roundtrip(self):
        g = from_edge_list("0 1\n1 2  # comment\n\n# full comment\n2 3\n")
        assert g == path(4)

    def test_reversed_and_repeated_pairs_are_one_edge(self):
        # Graph itself refuses an unordered pair; the parser orders each.
        assert from_edge_list("1 0\n2 1\n0 1\n") == path(3)

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            from_edge_list("0 1 2\n")

    def test_non_integer(self):
        with pytest.raises(ParseError):
            from_edge_list("a b\n")

    # int() reads each of the first three as a number: "1_0" as 10,
    # Arabic-Indic and fullwidth digits as 3, 0 and 0.  A line is split on
    # whitespace, so no label is empty; "-" is the empty label once its sign
    # is stripped.
    @pytest.mark.parametrize("text", ["0 1_0\n", "\u0663 \u0660\n", "\uff10 1\n",
                                      "+0 1\n", "0 --1\n", "--1 0\n", "- 1\n",
                                      "0 -\n", "1- 0\n", "0 1-\n"])
    def test_only_ascii_decimal_labels(self, text):
        with pytest.raises(ParseError, match="non-integer vertex label"):
            from_edge_list(text)

    def test_negative_vertex(self):
        with pytest.raises(ParseError, match="negative vertex label"):
            from_edge_list("-1 2\n")

    def test_self_loop(self):
        with pytest.raises(ParseError):
            from_edge_list("3 3\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            from_edge_list("# nothing\n")

    def test_label_gap_is_disconnected(self):
        # Labels 1..999999999 would be isolated vertices: rejected from the
        # two labels alone, before any per-vertex list or matrix exists.
        with pytest.raises(Disconnected):
            from_edge_list("0 1000000000\n")


class TestDistanceMatrix:
    def test_path_three(self):
        assert distance_matrix(path(3)).tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_fan_goes_through_hub(self):
        assert distance_matrix(fan(5))[1, 5] == 2

    def test_fan_offdiagonal_entries(self):
        d = distance_matrix(fan(30))
        off = d[~np.eye(d.shape[0], dtype=bool)]
        assert set(off.tolist()) == {1, 2}

    def test_single_vertex(self):
        d = distance_matrix(path(1))
        assert d.dtype == np.int64 and d.tolist() == [[0]]

    @pytest.mark.parametrize("g", reference_graphs(),
                             ids=lambda g: f"n{g.n_vertices}-e{len(g.edges)}")
    def test_matches_per_source_reference(self, g):
        d = distance_matrix(g)
        assert d.dtype == np.int64
        assert d.shape == (g.n_vertices, g.n_vertices)
        assert d.tolist() == reference_distances(g)

    def test_disconnected(self):
        for g in DISCONNECTED:
            assert any(-1 in row for row in reference_distances(g))
            with pytest.raises(Disconnected) as info:
                distance_matrix(g)
            assert str(info.value) == "vertex 0 cannot reach every vertex"

    @pytest.mark.parametrize("pairs", [1, 7, 64])
    def test_small_blocks_give_the_same_matrix(self, monkeypatch, pairs):
        monkeypatch.setattr(graphs, "_PAIRS_PER_BLOCK", pairs)
        for g in reference_graphs():
            assert distance_matrix(g).tolist() == reference_distances(g)
        for g in DISCONNECTED:
            with pytest.raises(Disconnected, match="^vertex 0 cannot reach every vertex$"):
                distance_matrix(g)

    @pytest.mark.parametrize("n", range(1, 51))
    def test_fan_block_form(self, n):
        # Path block of the fan distance matrix is 2J - 2I - A_n; hub row and
        # column are all ones.
        d = distance_matrix(fan(n)).astype(float)
        assert (d[0, 1:] == 1).all() and (d[1:, 0] == 1).all()
        expected = 2.0 * np.ones((n, n)) - 2.0 * np.eye(n) - path_adjacency(n)
        assert np.array_equal(d[1:, 1:], expected)

    def test_triangle_inequality_on_random_connected_graphs(self):
        rng = random.Random(424242)
        for _ in range(20):
            n = rng.randint(2, 24)
            edges = {(rng.randint(0, i - 1), i) for i in range(1, n)}  # spanning tree
            for _ in range(n):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            d = distance_matrix(Graph(n, frozenset(edges)))
            assert np.array_equal(d, d.T)
            assert (np.diag(d) == 0).all()
            assert (d[~np.eye(n, dtype=bool)] >= 1).all()
            for k in range(n):
                assert (d <= d[:, [k]] + d[[k], :]).all()


class TestPathSpectrum:
    def test_strictly_decreasing(self):
        for n in (1, 2, 5, 40):
            w = path_spectrum(n)
            assert (np.diff(w) < 0).all() or n == 1

    @pytest.mark.parametrize("n", range(1, 41))
    def test_matches_dense_eigensolver(self, n):
        # Characteristic-polynomial bridge: the adjacency spectrum is the
        # cosine grid, i.e. the zeros of the halved-variable polynomial.
        dense = np.linalg.eigvalsh(path_adjacency(n))[::-1]
        assert np.abs(dense - path_spectrum(n)).max() < 1e-9


class TestPathEigenvectors:
    def test_smallest_cases(self):
        g = path_eigenvector(2, 1)
        assert g == pytest.approx([math.sin(math.pi / 3), math.sin(2 * math.pi / 3)])
        a = path_adjacency(2)
        assert a @ g == pytest.approx(1.0 * g)
        assert path_eigenvector(1, 1)[0] == pytest.approx(1.0)

    def test_eigenpair_residuals(self):
        for n in range(1, 61):
            a = path_adjacency(n)
            w = path_spectrum(n)
            for k in range(1, n + 1):
                g = path_eigenvector(n, k)
                assert np.abs(a @ g - w[k - 1] * g).max() < 1e-9

    def test_ones_orthogonality_iff_even(self):
        for n in range(1, 61):
            for k in range(1, n + 1):
                inner = float(path_eigenvector(n, k).sum())
                if k % 2 == 0:
                    assert abs(inner) < 1e-9
                else:
                    assert abs(inner) > 1e-9

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            path_eigenvector(4, 5)
