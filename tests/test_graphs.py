"""Graph construction, distance matrices, and path eigenpairs."""

import math
import random

import numpy as np
import pytest

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
    single,
)


def path_adjacency(n: int) -> np.ndarray:
    """Tridiagonal 0/1 adjacency matrix of the path on n vertices."""
    a = np.zeros((n, n))
    idx = np.arange(n - 1)
    a[idx, idx + 1] = 1.0
    a[idx + 1, idx] = 1.0
    return a


def complete(n: int) -> Graph:
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


class TestConstruction:
    def test_smallest_fans_are_complete(self):
        assert fan(1).edges == complete(2).edges
        assert fan(2).edges == complete(3).edges

    def test_fan_five_counts(self):
        g = fan(5)
        assert g.n_vertices == 6
        assert len(g.edges) == 9

    def test_join_of_singletons(self):
        assert join(single(), single()).edges == complete(2).edges

    def test_fan_is_join_of_hub_and_path(self):
        assert fan(7) == join(single(), path(7))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 1)])

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

    def test_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
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
            d = distance_matrix(Graph.from_edges(n, edges))
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
