import hashlib
import itertools
import json
import random
from math import comb
from pathlib import Path

import pytest

from cliquekit import (
    RngSpec,
    clique_count,
    clique_counts,
    clique_value,
    complete_graph,
    cycle_graph,
    delete_edge,
    delete_edge_set,
    delete_vertex,
    disjoint_union,
    double_count,
    edge_deck_matrix,
    empty_graph,
    enumerate_cliques,
    parse_graph6,
    random_gnp,
    subclique_superclique_matrix,
    to_graph6,
    triangle_deck_matrix,
    triangle_graph,
    vertex_deck_matrix,
)

from _helpers import (
    all_labelled_graphs,
    csv_oracle,
    naive_cliques_of_size,
    naive_common_neighbors,
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


def sweep_triangle_deck_row_sums(count: int) -> tuple[int, int]:
    """Check every row sum of the triangle-deck matrix of count seeded
    G(n, p), n drawn from 3..16 and p from 0.2..0.9, at every k from 3 to
    the clique number, against the exact formula: row K sums to
    t - C(k, 3) - sum over the edges e of K of (|N(e)| - (k - 2)), with t
    the triangles and N(e) the common neighbours of e's ends, each found by
    testing vertex sets.  Returns the number of rows checked and of
    matrices whose row sums are not constant.  Forty graphs run with the
    tests; CI runs 300 as

        PYTHONPATH=src:tests python -c "import test_incidence as t; t.sweep_triangle_deck_row_sums(300)"
    """
    rows = uneven = 0
    for seed in range(1, count + 1):
        draw = random.Random(seed)
        n = draw.randint(3, 16)
        g = random_gnp(n, round(draw.uniform(0.2, 0.9), 3), RngSpec(seed))
        t = len(naive_cliques_of_size(g, 3))
        shared = {e: len(naive_common_neighbors(g, e)) for e in naive_edge_set(g)}
        for k in range(3, len(clique_counts(g)) + 1):
            m = triangle_deck_matrix(g, k)
            sums = m.row_sums()
            expected = [t - comb(k, 3) - sum(shared[e] - (k - 2) for e in itertools.combinations(q, 2))
                        for q in m.row_labels]
            assert sums == expected, (to_graph6(g), k)
            rows += len(sums)
            uneven += len(set(sums)) > 1
    return rows, uneven


def test_triangle_deck_row_sums_follow_the_exact_formula():
    rows, uneven = sweep_triangle_deck_row_sums(40)
    assert rows and uneven


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

    @pytest.mark.parametrize("g, kind, k, text", [
        (complete_graph(3), "super", 3, ",row_sum\n0-1-2,0\ncol_sum,0\n"),
        (complete_graph(3), "super", 4, ",row_sum\ncol_sum,0\n"),
        (empty_graph(3), "edeck", 2, ",row_sum\ncol_sum,0\n"),
        (empty_graph(3), "vdeck", 2, ",0,1,2,row_sum\ncol_sum,0,0,0,0\n"),
    ])
    def test_csv_of_an_empty_shape(self, g, kind, k, text):
        m = BUILDERS[kind][0](g, k)
        assert m.to_csv() == text
        assert double_count(m) == (0, 0)

    def test_json_text_matches_the_encoder(self, corpus):
        """to_json is the encoder's text for every kind and k, empty shapes included."""
        for g in corpus:
            omega = len(clique_counts(g))
            for build, lo in BUILDERS.values():
                for k in range(omega + 3):
                    if k < lo:
                        with pytest.raises(ValueError):
                            build(g, k)
                        continue
                    m = build(g, k)
                    assert m.to_json() == json.dumps(m.to_json_dict(), sort_keys=True, indent=2)

    def test_entries_are_binary_and_labeled(self, corpus):
        for g in corpus[:12]:
            m = subclique_superclique_matrix(g, 1)
            assert all(naive_is_clique(g, lbl) for lbl in m.col_labels)
            assert m.row_labels == tuple((v,) for v in range(g.n))
            assert naive_cliques_of_size(g, 2) == list(m.col_labels)


class TestBitRows:
    def test_every_small_graph_matches_the_definitions(self):
        """Labels, entries, sums, CSV and JSON against the definitions and the CSV oracle."""
        shapes = set()
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
                        cells = [[int((i, j) in entries) for j in range(len(cols))]
                                 for i in range(len(rows))]
                        assert m.to_csv() == csv_oracle(rows, cols, cells)
                        d = m.to_json_dict()
                        assert d["matrix"] == cells and d["col_sums"] == col_sums
                        assert double_count(m) == (len(entries), len(entries))
                        shapes.add((bool(rows), bool(cols)))
        # 0-row, 0-column and 0x0 matrices are all among them
        assert shapes == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("kind, k", [("tdeck", 4), ("super", 3)])
    @pytest.mark.parametrize("n, seed", [(18, 1), (19, 2), (20, 3)])
    def test_dense_graphs_match_the_definitions(self, kind, k, n, seed):
        g = random_gnp(n, 0.7, RngSpec(seed))
        m = BUILDERS[kind][0](g, k)
        rows, cols, entries, row_sums, col_sums = naive_matrix(g, kind, k)
        assert rows and cols
        assert list(m.row_labels) == rows and list(m.col_labels) == cols
        assert m.entries == entries
        assert m.row_sums() == row_sums
        assert m.col_sums() == col_sums
        assert [m.col_sum(j) for j in range(len(cols))] == col_sums

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
