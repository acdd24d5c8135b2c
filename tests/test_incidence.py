import hashlib
import itertools
import json
from math import comb
from pathlib import Path

import pytest

from cliquekit import (
    clique_count,
    clique_value,
    complete_graph,
    cycle_graph,
    delete_edge,
    delete_edge_set,
    delete_vertex,
    disjoint_union,
    double_count,
    edge_deck_matrix,
    enumerate_cliques,
    parse_graph6,
    subclique_superclique_matrix,
    triangle_deck_matrix,
    triangle_graph,
    vertex_deck_matrix,
)

from _helpers import (
    all_labelled_graphs,
    naive_cliques_of_size,
    naive_edge_set,
    naive_is_clique,
)

MATRIX_REFERENCE = (
    Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "matrix_export.json"
)

# kind -> (builder, smallest valid k)
BUILDERS = {
    "super": (subclique_superclique_matrix, 1),
    "vdeck": (vertex_deck_matrix, 1),
    "edeck": (edge_deck_matrix, 2),
    "tdeck": (triangle_deck_matrix, 3),
}


def naive_matrix(g, kind: str, k: int):
    """Labels, entries, row sums and column sums straight from the definitions."""
    rows = naive_cliques_of_size(g, k)
    if kind == "super":
        cols = naive_cliques_of_size(g, k + 1)
        hit = lambda q, c: set(q) <= set(c)
    elif kind == "vdeck":
        cols = [(v,) for v in range(g.n)]
        hit = lambda q, c: c[0] not in q
    elif kind == "edeck":
        cols = sorted(naive_edge_set(g))
        hit = lambda q, c: not set(c) <= set(q)
    else:
        cols = naive_cliques_of_size(g, 3)
        hit = lambda q, c: len(set(q) & set(c)) <= 1
    entries = {(i, j) for i, q in enumerate(rows) for j, c in enumerate(cols) if hit(q, c)}
    row_sums = [sum((i, j) in entries for j in range(len(cols))) for i in range(len(rows))]
    col_sums = [sum((i, j) in entries for i in range(len(rows))) for j in range(len(cols))]
    return rows, cols, entries, row_sums, col_sums


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class TestSubcliqueSuperclique:
    def test_order_one_is_vertex_edge_incidence(self):
        m = subclique_superclique_matrix(complete_graph(3), 1)
        assert m.shape == (3, 3)
        assert m.row_labels == ((0,), (1,), (2,))
        assert m.col_labels == ((0, 1), (0, 2), (1, 2))
        assert m.row_sums() == [2, 2, 2]
        assert m.col_sums() == [2, 2, 2]

    def test_k4_order_two(self):
        g = complete_graph(4)
        m = subclique_superclique_matrix(g, 2)
        assert m.shape == (6, 4)
        assert set(m.row_sums()) == {2}
        assert set(m.col_sums()) == {3}
        # brute-force containment cross-check
        for i, q in enumerate(m.row_labels):
            for j, c in enumerate(m.col_labels):
                assert m.entry(i, j) == (set(q) <= set(c))

    def test_no_triangles_gives_zero_columns(self):
        m = subclique_superclique_matrix(cycle_graph(5), 2)
        assert m.shape == (5, 0)

    def test_row_sums_are_clique_values(self, corpus):
        for g in corpus:
            omega = enumerate_cliques(g).omega
            for k in range(1, omega + 1):
                m = subclique_superclique_matrix(g, k)
                for i, q in enumerate(m.row_labels):
                    assert m.row_sum(i) == clique_value(g, q)
                assert all(s == k + 1 for s in m.col_sums())

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            subclique_superclique_matrix(complete_graph(3), 0)


class TestVertexDeck:
    def test_c5_order_two(self):
        m = vertex_deck_matrix(cycle_graph(5), 2)
        assert m.shape == (5, 5)
        assert set(m.row_sums()) == {3}
        assert set(m.col_sums()) == {3}
        # survival cross-check: clique survives iff it avoids the vertex
        for i, q in enumerate(m.row_labels):
            for v in range(5):
                assert m.entry(i, v) == (v not in q)

    def test_spanning_clique_has_zero_row(self):
        m = vertex_deck_matrix(complete_graph(4), 4)
        assert m.shape == (1, 4)
        assert m.row_sums() == [0]

    def test_single_edge_order_two(self):
        m = vertex_deck_matrix(complete_graph(2), 2)
        assert m.shape == (1, 2)
        assert not m.entries

    def test_column_sums_count_deck_cliques(self, corpus):
        for g in corpus:
            omega = enumerate_cliques(g).omega
            for k in range(1, omega + 1):
                m = vertex_deck_matrix(g, k)
                assert all(s == g.n - k for s in m.row_sums())
                for v in range(g.n):
                    assert m.col_sum(v) == clique_count(delete_vertex(g, v), k)


class TestEdgeDeck:
    def test_k4_order_three(self):
        m = edge_deck_matrix(complete_graph(4), 3)
        assert m.shape == (4, 6)
        assert set(m.row_sums()) == {3}
        assert set(m.col_sums()) == {2}

    def test_k3_order_three_is_zero(self):
        m = edge_deck_matrix(complete_graph(3), 3)
        assert m.shape == (1, 3)
        assert not m.entries

    def test_k4_order_two(self):
        m = edge_deck_matrix(complete_graph(4), 2)
        assert m.shape == (6, 6)
        assert set(m.row_sums()) == {5}
        assert set(m.col_sums()) == {5}

    def test_column_sums_count_deck_cliques(self, corpus):
        for g in corpus:
            omega = enumerate_cliques(g).omega
            for k in range(2, omega + 1):
                m = edge_deck_matrix(g, k)
                assert all(s == g.m - comb(k, 2) for s in m.row_sums())
                for j, e in enumerate(m.col_labels):
                    assert m.col_sum(j) == clique_count(delete_edge(g, e), k)


class TestTriangleDeck:
    def test_disjoint_triangles(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        m = triangle_deck_matrix(g, 3)
        assert m.shape == (2, 2)
        assert m.row_sums() == [1, 1]
        assert m.entry(0, 0) == 0 and m.entry(1, 1) == 0
        assert m.entry(0, 1) == 1 and m.entry(1, 0) == 1

    def test_k4_is_all_zero(self):
        m = triangle_deck_matrix(complete_graph(4), 3)
        assert m.shape == (4, 4)
        assert not m.entries

    def test_triangle_free_graph(self):
        m = triangle_deck_matrix(cycle_graph(5), 3)
        assert m.shape == (0, 0)

    def test_column_sums_always_count_deck_cliques(self, corpus):
        for g in corpus:
            omega = enumerate_cliques(g).omega
            for k in range(3, omega + 1):
                m = triangle_deck_matrix(g, k)
                for j, d in enumerate(m.col_labels):
                    remaining = delete_edge_set(g, itertools.combinations(d, 2))
                    assert m.col_sum(j) == clique_count(remaining, k)

    def test_row_sums_constant_only_on_edgeless_triangle_graph_class(self, corpus):
        for g in corpus:
            cat = enumerate_cliques(g)
            if cat.omega < 3 or len(cat.cliques(3)) > 64:
                continue
            if triangle_graph(g).m != 0:
                continue
            t = len(cat.cliques(3))
            for k in range(3, cat.omega + 1):
                m = triangle_deck_matrix(g, k)
                assert all(s == t - comb(k, 3) for s in m.row_sums())


class TestDoubleCount:
    def test_matches_handshake_total(self):
        m = subclique_superclique_matrix(complete_graph(4), 2)
        assert double_count(m) == (12, 12)

    def test_matches_vertex_deck_total(self):
        m = vertex_deck_matrix(cycle_graph(5), 2)
        assert double_count(m) == (15, 15)

    def test_empty_matrix(self):
        m = subclique_superclique_matrix(cycle_graph(5), 4)
        assert double_count(m) == (0, 0)

    def test_totals_agree_on_corpus(self, corpus):
        for g in corpus:
            omega = enumerate_cliques(g).omega
            for k in range(1, omega + 1):
                for build in (subclique_superclique_matrix, vertex_deck_matrix):
                    m = build(g, k)
                    by_rows, by_cols = double_count(m)
                    assert by_rows == by_cols == len(m.entries)


class TestExport:
    def test_csv_exact(self):
        m = subclique_superclique_matrix(complete_graph(3), 1)
        assert m.to_csv() == (
            ",0-1,0-2,1-2,row_sum\n"
            "0,1,1,0,2\n"
            "1,1,0,1,2\n"
            "2,0,1,1,2\n"
            "col_sum,2,2,2,6\n"
        )

    def test_json_dict(self):
        m = vertex_deck_matrix(complete_graph(2), 1)
        d = m.to_json_dict()
        json.dumps(d)  # must be serializable
        assert d["kind"] == "vertex-deck"
        assert d["k"] == 1
        assert d["row_labels"] == [[0], [1]]
        assert d["col_labels"] == [[0], [1]]
        assert d["matrix"] == [[0, 1], [1, 0]]
        assert d["double_count"] == [2, 2]

    def test_dense_matches_entries(self):
        np = pytest.importorskip("numpy")
        m = edge_deck_matrix(complete_graph(4), 2)
        dense = m.to_dense()
        assert dense.shape == (6, 6)
        assert dense.dtype == np.uint8
        assert int(dense.sum()) == len(m.entries)
        assert all(dense[i, j] == 1 for i, j in m.entries)

    def test_entries_are_binary_and_labeled(self, corpus):
        for g in corpus[:12]:
            m = subclique_superclique_matrix(g, 1)
            assert all(naive_is_clique(g, lbl) for lbl in m.col_labels)
            assert m.row_labels == tuple((v,) for v in range(g.n))
            assert naive_cliques_of_size(g, 2) == list(m.col_labels)


class TestBitRows:
    def test_every_small_graph_matches_the_definitions(self):
        for n in range(6):
            for g in all_labelled_graphs(n):
                omega = max((k for k in range(n + 1) if naive_cliques_of_size(g, k)), default=0)
                for kind, (build, k_min) in BUILDERS.items():
                    for k in range(k_min, omega + 2):
                        m = build(g, k)
                        rows, cols, entries, row_sums, col_sums = naive_matrix(g, kind, k)
                        assert list(m.row_labels) == rows and list(m.col_labels) == cols
                        assert m.entries == entries
                        assert m.row_sums() == row_sums
                        assert m.col_sums() == col_sums

    def test_rows_hold_one_bitmask_per_row(self):
        m = subclique_superclique_matrix(complete_graph(3), 1)
        assert m.rows == (0b011, 0b101, 0b110)

    @pytest.mark.parametrize("query, args", [
        ("entry", (99, 99)), ("entry", (-1, 0)), ("entry", (0, -1)),
        ("entry", (3, 0)), ("entry", (0, 3)),
        ("row_sum", (-1,)), ("row_sum", (3,)),
        ("col_sum", (-1,)), ("col_sum", (3,)), ("col_sum", (50,)),
    ])
    def test_out_of_range_query_raises(self, query, args):
        m = subclique_superclique_matrix(complete_graph(3), 1)
        with pytest.raises(IndexError):
            getattr(m, query)(*args)

    def test_matrix_export_reference_digests(self):
        """First stored instance of each template: CSV and JSON digests as stored."""
        templates = json.loads(MATRIX_REFERENCE.read_text())["templates"]
        assert len(templates) == 9
        for template in templates:
            item = template["items"][0]
            build, _ = BUILDERS[template["kind"]]
            m = build(parse_graph6(item["g6"]), template["k"])
            json_text = json.dumps(m.to_json_dict(), sort_keys=True, indent=2) + "\n"
            assert _digest(m.to_csv()) == item["csv"]
            assert _digest(json_text) == item["json"]
            assert double_count(m) == (item["total"], item["total"])
