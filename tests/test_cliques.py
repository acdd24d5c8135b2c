import itertools
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from math import comb

import cliquekit.cliques
from cliquekit import (
    RngSpec,
    bits,
    brute_force_counts,
    clique_count,
    clique_counts,
    clique_counts_in,
    clique_polynomial,
    clique_value,
    complete_graph,
    cycle_graph,
    delete_edge,
    delete_edge_set,
    disjoint_union,
    edge_deleted_adj,
    empty_graph,
    enumerate_cliques,
    induced_subgraph,
    is_clique,
    parse_graph6,
    poly_add,
    poly_derivative,
    poly_divided_derivative,
    poly_equal,
    poly_normalize,
    poly_reverse,
    poly_sub,
    random_gnp,
    triangles,
)

from _helpers import all_labelled_graphs, graphs, naive_cliques_of_size

DENSE_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "dense_poly.json"


class TestEnumeration:
    def test_triangle_catalog(self):
        cat = enumerate_cliques(complete_graph(3))
        assert len(cat.cliques(1)) == 3
        assert len(cat.cliques(2)) == 3
        assert len(cat.cliques(3)) == 1
        assert cat.omega == 3

    def test_cycle_has_no_triangles(self):
        cat = enumerate_cliques(cycle_graph(5))
        assert cat.counts == (5, 5)
        assert cat.cliques(3) == ()

    def test_empty_graph_has_only_vertices(self):
        cat = enumerate_cliques(empty_graph(4))
        assert cat.counts == (4,)

    def test_counts_match_vertices_and_edges(self, corpus):
        for g in corpus:
            cat = enumerate_cliques(g)
            assert len(cat.cliques(1)) == g.n
            assert len(cat.cliques(2)) == g.m

    def test_lists_are_lexicographic_and_duplicate_free(self, corpus):
        for g in corpus:
            cat = enumerate_cliques(g)
            for k in range(1, cat.omega + 1):
                lst = cat.cliques(k)
                assert list(lst) == sorted(set(lst))

    def test_k_max_truncates(self):
        cat = enumerate_cliques(complete_graph(6), k_max=2)
        assert cat.counts == (6, 15)
        assert cat.cliques(3) == ()

    def test_matches_naive_subset_listing(self, corpus):
        for g in corpus:
            if g.n > 7:
                continue
            cat = enumerate_cliques(g)
            for k in range(1, g.n + 1):
                assert list(cat.cliques(k)) == naive_cliques_of_size(g, k)


class TestOracle:
    def test_k4(self):
        assert brute_force_counts(complete_graph(4)) == (4, 6, 4, 1)

    def test_c5(self):
        assert brute_force_counts(cycle_graph(5)) == (5, 5)

    def test_empty3(self):
        assert brute_force_counts(empty_graph(3)) == (3,)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="too large"):
            brute_force_counts(empty_graph(21))

    def test_oracle_equivalence_on_corpus(self, corpus):
        for g in corpus:
            if g.n <= 8:
                assert clique_counts(g) == brute_force_counts(g)

    @given(graphs())
    @settings(max_examples=150)
    def test_oracle_equivalence_property(self, g):
        assert clique_counts(g) == brute_force_counts(g)


class TestCountingKernel:
    def test_every_mask_of_every_small_graph_matches_the_oracle(self):
        for n in range(6):
            for g in all_labelled_graphs(n):
                for mask in range(1 << n):
                    expected = brute_force_counts(induced_subgraph(g, bits(mask)))
                    assert clique_counts_in(g.adj, mask) == expected

    @pytest.mark.parametrize("n, p", [
        (10, 0.85), (20, 0.85), (24, 0.85), (30, 0.5), (30, 0.7),
        (40, 0.3), (40, 0.5), (40, 0.6),
    ])
    def test_matches_networkx(self, n, p):
        nx = pytest.importorskip("networkx")
        g = random_gnp(n, p, RngSpec(1000 * n + round(100 * p)))
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        sizes = Counter(len(q) for q in nx.enumerate_all_cliques(h))
        assert clique_counts(g) == tuple(sizes[k] for k in range(1, max(sizes) + 1))

    def test_edited_adjacency_matches_deleted_graph(self, corpus):
        for g in corpus:
            full = (1 << g.n) - 1
            for e in g.edges():
                assert clique_counts_in(edge_deleted_adj(g, [e]), full) \
                    == enumerate_cliques(delete_edge(g, e)).counts
            for d in triangles(g):
                pairs = list(itertools.combinations(d, 2))
                assert clique_counts_in(edge_deleted_adj(g, pairs), full) \
                    == enumerate_cliques(delete_edge_set(g, pairs)).counts

    def test_edge_deleted_adj_rejects_a_non_edge(self):
        with pytest.raises(ValueError, match="is not an edge"):
            edge_deleted_adj(cycle_graph(5), [(0, 2)])
        with pytest.raises(ValueError, match="is not an edge"):
            edge_deleted_adj(cycle_graph(5), [(0, 9)])

    def test_rejects_mask_outside_the_rows(self):
        g = complete_graph(3)
        with pytest.raises(ValueError, match="outside"):
            clique_counts_in(g.adj, 1 << 3)
        with pytest.raises(ValueError, match="outside"):
            clique_counts_in(g.adj, -1)

    def test_wrappers_never_list_cliques(self, monkeypatch):
        g = random_gnp(14, 0.6, RngSpec(5))
        expected = enumerate_cliques(g).counts
        clique_counts_in.cache_clear()

        def listing(*args, **kwargs):
            raise AssertionError("enumerate_cliques called")

        monkeypatch.setattr(cliquekit.cliques, "enumerate_cliques", listing)
        assert clique_counts(g) == expected
        assert clique_polynomial(g) == [1, *expected]
        assert [clique_count(g, k) for k in range(len(expected) + 2)] \
            == [1, *expected, 0]

    def test_cache_is_bounded(self):
        assert clique_counts_in.cache_parameters()["maxsize"] is not None

    def test_dense_reference_polynomials(self):
        """One stored instance per template, each checked against networkx when stored."""
        templates = json.loads(DENSE_REFERENCE.read_text())["templates"]
        assert len(templates) == 9
        for template in templates:
            g6, poly = template["items"][0]
            g = parse_graph6(g6)
            assert g.n == template["n"]
            assert clique_polynomial(g) == poly


class TestPolynomial:
    @pytest.mark.parametrize("n", range(9))
    def test_complete_graph_is_binomial_row(self, n):
        assert clique_polynomial(complete_graph(n)) == [comb(n, k) for k in range(n + 1)]

    def test_c5(self):
        assert clique_polynomial(cycle_graph(5)) == [1, 5, 5]

    def test_diamond(self):
        diamond = delete_edge(complete_graph(4), (0, 1))
        assert clique_polynomial(diamond) == [1, 4, 5, 2]

    @given(graphs(max_n=6), graphs(max_n=6))
    @settings(max_examples=60)
    def test_disjoint_union_adds_polynomials(self, g, h):
        lhs = clique_polynomial(disjoint_union(g, h))
        rhs = poly_sub(poly_add(clique_polynomial(g), clique_polynomial(h)), [1])
        assert poly_equal(lhs, rhs)


class TestCliqueValue:
    def test_edge_in_k4(self):
        assert clique_value(complete_graph(4), (0, 1)) == 2

    def test_vertex_equals_degree(self):
        assert clique_value(complete_graph(4), (0,)) == 3

    def test_edge_in_c5(self):
        assert clique_value(cycle_graph(5), (0, 1)) == 0

    def test_rejects_non_clique(self):
        with pytest.raises(ValueError, match="not a clique"):
            clique_value(cycle_graph(5), (0, 2))
        with pytest.raises(ValueError, match="not a clique"):
            clique_value(cycle_graph(5), ())

    def test_is_clique_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            is_clique(complete_graph(3), (0, 5))

    @given(graphs(min_n=1))
    def test_degree_specialization(self, g):
        assert all(clique_value(g, (v,)) == g.degree(v) for v in range(g.n))

    @given(graphs(min_n=1))
    def test_vertex_values_sum_to_twice_edges(self, g):
        assert sum(clique_value(g, (v,)) for v in range(g.n)) == 2 * g.m

    def test_handshake_on_corpus(self, corpus):
        for g in corpus:
            cat = enumerate_cliques(g)
            for k in range(1, cat.omega + 1):
                total = sum(clique_value(g, q) for q in cat.cliques(k))
                assert total == (k + 1) * len(cat.cliques(k + 1))


class TestPolyCalculus:
    def test_first_derivative(self):
        assert poly_derivative([1, 3, 3, 1], 1) == [3, 6, 3]

    def test_halved_second_derivative_of_binomial(self):
        assert poly_divided_derivative([1, 4, 6, 4, 1], 2) == [6, 12, 6]
        assert poly_derivative([1, 4, 6, 4, 1], 2) == [12, 24, 12]

    def test_order_beyond_degree_is_zero(self):
        assert poly_derivative([1, 2], 5) == []
        assert poly_divided_derivative([1, 2], 5) == []

    def test_order_validation(self):
        with pytest.raises(ValueError):
            poly_derivative([1], 0)

    def test_divided_matches_scaled(self, corpus):
        for g in corpus[:10]:
            p = clique_polynomial(g)
            for order in (1, 2, 3):
                from math import factorial
                assert [c * factorial(order) for c in poly_divided_derivative(p, order)] \
                    == poly_derivative(p, order)

    def test_reverse_without_unit(self):
        assert poly_reverse([1, 2, 1], 2) == [1, 2, 1]
        assert poly_reverse([1, 3], 3) == [0, 0, 3, 1]

    def test_reverse_with_unit(self):
        assert poly_reverse([1, 2, 1], 2, include_unit=True) == [2, 2, 1]

    def test_reverse_base_too_small(self):
        with pytest.raises(ValueError, match="smaller"):
            poly_reverse([1, 2, 1], 1)

    def test_equality_normalizes_trailing_zeros(self):
        assert poly_equal([1, 2], [1, 2, 0])
        assert not poly_equal([1, 2], [1, 3])
        assert poly_equal([0, 0], [])

    def test_normalize_returns_copy(self):
        p = [1, 0]
        q = poly_normalize(p)
        q.append(7)
        assert p == [1, 0]
