import itertools

import networkx as nx
import pytest
from hypothesis import given, settings

import cliquekit.graphs
from cliquekit import (
    Graph,
    GraphFormatError,
    RngSpec,
    Splitmix64,
    common_neighborhood,
    complete_graph,
    cycle_graph,
    delete_edge,
    delete_edge_set,
    delete_vertex,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    is_connected,
    parse_edge_list,
    parse_graph6,
    path_graph,
    random_gnp,
    to_graph6,
    triangle_graph,
    triangles,
)

from _helpers import graphs, naive_common_neighbors, seeded_corpus


class TestGraphInvariants:
    def test_rejects_self_loop_rows(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, (0b01, 0b10))

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (0b10, 0b00))

    def test_rejects_bits_outside_range(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(2, (0b100, 0b000))

    def test_rejects_too_many_vertices(self):
        with pytest.raises(ValueError):
            Graph(65, (0,) * 65)

    def test_edge_count_cached(self):
        g = cycle_graph(5)
        assert g.m == 5
        assert len(g.edges()) == 5

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])


class TestGraph6:
    def test_k3_decodes_from_bw(self):
        # Hand-decoded: 'B' -> n=3; 'w' -> 63+56, bits 111000 -> all three pairs.
        assert parse_graph6("Bw") == complete_graph(3)

    def test_two_isolated_vertices(self):
        assert parse_graph6("A?") == empty_graph(2)

    def test_empty_input_rejected(self):
        with pytest.raises(GraphFormatError, match="empty"):
            parse_graph6("")

    def test_header_is_stripped(self):
        assert parse_graph6(">>graph6<<Bw") == complete_graph(3)

    def test_malformed_character(self):
        with pytest.raises(GraphFormatError, match="invalid graph6 character"):
            parse_graph6("B!")

    def test_length_mismatch(self):
        with pytest.raises(GraphFormatError, match="adjacency characters"):
            parse_graph6("Bww")
        with pytest.raises(GraphFormatError, match="adjacency characters"):
            parse_graph6("D?")

    def test_vertex_cap(self):
        too_big = nx.to_graph6_bytes(nx.empty_graph(65), header=False).decode().strip()
        with pytest.raises(GraphFormatError, match="exceeds"):
            parse_graph6(too_big)

    def test_nonzero_padding_rejected(self):
        # K3 uses 3 of 6 bits; force a padding bit on.
        bad = "B" + chr(63 + 0b111100)
        with pytest.raises(GraphFormatError, match="padding"):
            parse_graph6(bad)

    def test_encode_k3(self):
        assert to_graph6(complete_graph(3)) == "Bw"

    def test_encode_empty2(self):
        assert to_graph6(empty_graph(2)) == "A?"

    @pytest.mark.parametrize("n", [0, 1, 2, 30, 62, 63, 64])
    def test_roundtrip_various_sizes(self, n):
        g = random_gnp(n, 0.4, RngSpec(n))
        assert parse_graph6(to_graph6(g)) == g

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx_encoding(self, seed):
        g = random_gnp(9 + seed, 0.5, RngSpec(seed))
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        expected = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert to_graph6(g) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx_decoding(self, seed):
        nxg = nx.gnp_random_graph(11, 0.5, seed=seed)
        text = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        g = parse_graph6(text)
        assert g.n == 11
        assert {tuple(sorted(e)) for e in nxg.edges()} == set(g.edges())

    @given(graphs(max_n=12))
    def test_roundtrip_property(self, g):
        assert parse_graph6(to_graph6(g)) == g

    def test_graph6_property_encodes_once_per_graph(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return to_graph6(g)

        monkeypatch.setattr(cliquekit.graphs, "to_graph6", counted)
        g = cycle_graph(5)
        assert g.graph6 == g.graph6 == to_graph6(g)
        assert calls == [g]


class TestEdgeList:
    def test_triangle(self):
        assert parse_edge_list("3\n0 1\n1 2\n0 2") == complete_graph(3)

    def test_isolated_vertices(self):
        assert parse_edge_list("4\n") == empty_graph(4)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_edge_list("2\n0 0")

    def test_duplicate_edges_idempotent(self):
        g = parse_edge_list("3\n0 1\n0 1\n1 0")
        assert g.m == 1

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphFormatError, match="outside"):
            parse_edge_list("2\n0 2")

    def test_non_integer_token(self):
        with pytest.raises(GraphFormatError, match="non-integer"):
            parse_edge_list("2\n0 x")

    def test_bad_arity(self):
        with pytest.raises(GraphFormatError, match="expected"):
            parse_edge_list("3\n0 1 2")

    def test_missing_count(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("")


class TestDeletions:
    def test_vertex_from_complete(self):
        assert delete_vertex(complete_graph(4), 1) == complete_graph(3)

    def test_vertex_from_cycle_gives_path(self):
        assert delete_vertex(cycle_graph(5), 0) == path_graph(4)
        for v in range(5):
            h = delete_vertex(cycle_graph(5), v)
            assert sorted(h.degree(u) for u in range(4)) == [1, 1, 2, 2]
            assert is_connected(h)

    def test_last_vertex(self):
        assert delete_vertex(empty_graph(1), 0) == empty_graph(0)

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            delete_vertex(empty_graph(3), 3)

    @given(graphs(min_n=1))
    def test_vertex_deletion_counts(self, g):
        v = g.n - 1 if g.n % 2 else 0
        h = delete_vertex(g, v)
        assert h.n == g.n - 1
        assert h.m == g.m - g.degree(v)

    def test_edge_from_triangle(self):
        assert delete_edge(complete_graph(3), (0, 1)) == Graph.from_edges(3, [(0, 2), (1, 2)])

    def test_edge_from_k4_gives_diamond(self):
        assert delete_edge(complete_graph(4), (2, 3)).m == 5

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            delete_edge(path_graph(3), (0, 2))

    def test_edge_set_triangle_from_k4(self):
        got = delete_edge_set(complete_graph(4), [(0, 1), (0, 2), (1, 2)])
        assert got == Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)])

    def test_edge_set_empty_is_identity(self):
        g = cycle_graph(5)
        assert delete_edge_set(g, []) == g

    def test_edge_set_all_edges(self):
        assert delete_edge_set(complete_graph(3), [(0, 1), (0, 2), (1, 2)]) == empty_graph(3)

    def test_edge_set_missing_member(self):
        with pytest.raises(ValueError, match="not an edge"):
            delete_edge_set(path_graph(3), [(0, 1), (0, 2)])

    @given(graphs(min_n=2))
    @settings(max_examples=60)
    def test_edge_set_equals_iterated_deletion(self, g):
        edges = g.edges()[:4]
        expected = delete_edge_set(g, edges)
        for order in itertools.permutations(edges):
            h = g
            for e in order:
                h = delete_edge(h, e)
            assert h == expected


class TestNeighborhoods:
    def test_pair_in_k4(self):
        assert common_neighborhood(complete_graph(4), {0, 1}) == {2, 3}

    def test_pair_in_c5_empty(self):
        assert common_neighborhood(cycle_graph(5), {0, 1}) == set()

    def test_triple_in_k4(self):
        assert common_neighborhood(complete_graph(4), {0, 1, 2}) == {3}

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            common_neighborhood(complete_graph(4), set())

    @given(graphs(min_n=2))
    def test_pair_is_intersection_of_singles(self, g):
        u, v = 0, g.n - 1
        lhs = common_neighborhood(g, {u, v})
        assert lhs == common_neighborhood(g, {u}) & common_neighborhood(g, {v})
        assert lhs == naive_common_neighbors(g, [u, v])

    def test_induced_subgraph_reindexes(self):
        g = cycle_graph(5)
        assert induced_subgraph(g, [0, 1, 2]) == path_graph(3)
        assert induced_subgraph(g, []) == empty_graph(0)


class TestTriangles:
    def test_k4_triangle_graph_is_complete(self):
        assert triangle_graph(complete_graph(4)) == complete_graph(4)

    def test_disjoint_triangles_share_nothing(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        assert triangle_graph(g) == empty_graph(2)

    def test_triangle_free(self):
        assert triangle_graph(cycle_graph(5)) == empty_graph(0)

    def test_triangle_list_is_lexicographic(self):
        tris = triangles(complete_graph(4))
        assert tris == sorted(tris)
        assert tris == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_representation_bound(self):
        with pytest.raises(ValueError, match="exceeds"):
            triangle_graph(complete_graph(9))  # 84 triangles


class TestRandomGnp:
    def test_p_zero(self):
        assert random_gnp(5, 0.0, RngSpec(42)) == empty_graph(5)

    def test_p_one(self):
        assert random_gnp(5, 1.0, RngSpec(42)) == complete_graph(5)

    def test_determinism(self):
        a = random_gnp(12, 0.37, RngSpec(99))
        b = random_gnp(12, 0.37, RngSpec(99))
        assert a == b

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            random_gnp(5, 1.5, RngSpec(0))
        with pytest.raises(ValueError, match="outside"):
            random_gnp(5, -0.1, RngSpec(0))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            random_gnp(5, 0.5, RngSpec(0, algorithm="mystery"))

    def test_splitmix64_reference_values(self):
        # Published test vectors for the standard splitmix64 constants.
        stream = Splitmix64(1234567)
        assert [stream.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]
        assert Splitmix64(0).next_u64() == 0xE220A8397B1DCDAF

    def test_mean_edge_count_at_half(self):
        total = 0
        samples = 10_000
        for i in range(samples):
            total += random_gnp(8, 0.5, RngSpec(i)).m
        mean = total / samples
        # 28 pairs at p=1/2: mean 14, per-sample sd sqrt(7); 3 standard errors.
        assert abs(mean - 14.0) <= 3 * (7 ** 0.5) / (samples ** 0.5)


class TestConnectivityAndUnion:
    def test_connected(self):
        assert is_connected(cycle_graph(5))
        assert is_connected(empty_graph(0))
        assert is_connected(empty_graph(1))
        assert not is_connected(empty_graph(2))
        assert not is_connected(disjoint_union(complete_graph(3), complete_graph(3)))

    def test_disjoint_union_counts(self):
        g = disjoint_union(complete_graph(3), cycle_graph(5))
        assert g.n == 8 and g.m == 8
        assert not g.has_edge(0, 5)

    def test_corpus_stays_in_bounds(self):
        for g in seeded_corpus():
            assert 0 <= g.n <= 8
