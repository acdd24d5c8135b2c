import gc
import itertools
import json
import random
import time
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings
from math import comb

import cliquekit.cliques
import cliquekit.identities
from cliquekit.cliques import LISTING_BUDGET
from cliquekit.graphs import MAX_VERTICES, _vertex_mask, common_neighborhood_bits
from cliquekit import (
    CampaignConfig,
    CliqueBudgetExceeded,
    CliqueCatalog,
    Graph,
    RngSpec,
    bits,
    brute_force_counts,
    check_edge_recurrence,
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
    empty_graph,
    enumerate_cliques,
    induced_subgraph,
    is_clique,
    parse_graph6,
    path_graph,
    poly_add,
    poly_derivative,
    poly_divided_derivative,
    poly_equal,
    poly_normalize,
    poly_reverse,
    poly_sub,
    random_gnp,
    run_campaign,
    to_graph6,
    triangles,
)

from _helpers import (
    all_labelled_graphs,
    co_component_counts,
    co_component_reader,
    forbid_calls,
    graphs,
    naive_cliques_of_size,
    networkx_cliques,
    networkx_counts,
    record_calls,
    record_listings,
    relabelled,
)

DENSE_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "dense_poly.json"


def complement(g):
    """The complement of g, from its rows."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.adj)))


def complete_multipartite(parts):
    """The complete multipartite graph with parts of the given sizes."""
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(part)
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    )


def split_counts(g, kept, q):
    """The counts of G[kept] without the edges of the clique q, split
    through the counting state of a fresh induced_subgraph(g, kept) and
    unpacked.  Only q's vertices in kept delete edges, relabelled as
    induced_subgraph relabels them."""
    kept = sorted(kept)
    h = induced_subgraph(g, kept)
    counting = cliquekit.cliques._counting(h)
    return counting.unpack(counting.split(sum(1 << kept.index(v) for v in q if v in kept)))


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
        g = random_gnp(n, p, RngSpec(1000 * n + round(100 * p)))
        assert clique_counts(g) == networkx_counts(g)

    def test_edited_adjacency_matches_deleted_graph(self, corpus):
        for g in corpus:
            full = (1 << g.n) - 1
            for e in g.edges():
                assert clique_counts_in(delete_edge(g, e).adj, full) \
                    == enumerate_cliques(delete_edge(g, e)).counts
            for d in triangles(g):
                pairs = list(itertools.combinations(d, 2))
                assert clique_counts_in(delete_edge_set(g, pairs).adj, full) \
                    == enumerate_cliques(delete_edge_set(g, pairs)).counts

    def test_delete_edge_set_rejects_a_non_edge(self):
        with pytest.raises(ValueError, match="is not an edge"):
            delete_edge_set(cycle_graph(5), [(0, 2)])
        with pytest.raises(ValueError, match="is not an edge"):
            delete_edge_set(cycle_graph(5), [(0, 9)])

    def test_rejects_mask_outside_the_rows(self):
        g = complete_graph(3)
        with pytest.raises(ValueError, match="outside"):
            clique_counts_in(g.adj, 1 << 3)
        with pytest.raises(ValueError, match="outside"):
            clique_counts_in(g.adj, -1)

    def test_wrappers_never_list_cliques(self, monkeypatch):
        g = random_gnp(14, 0.6, RngSpec(5))
        expected = enumerate_cliques(g).counts

        forbid_calls(monkeypatch, cliquekit.cliques, "enumerate_cliques")
        assert clique_counts(g) == expected
        assert clique_polynomial(g) == [1, *expected]
        assert [clique_count(g, k) for k in range(len(expected) + 2)] \
            == [1, *expected, 0]
        with pytest.raises(AssertionError, match="enumerate_cliques called"):
            cliquekit.cliques._stored_catalog(g, 2)

    def test_results_live_exactly_as_long_as_their_graph(self):
        """No module-level cache: counts, the subset table, clique-deletion
        verdicts, their expansion context and splits, deck sums and the
        clique catalog go to the Graph's memo, one object per layer, and
        die with it.  A graph of
        at most _SUBSET_TABLE_MAX_N vertices builds its subset table on its
        first count; a larger one never does.  On both sides of the gate,
        one edge's verdict decides and splits that edge alone, lists
        nothing and holds as the context's one held verdict, and a 4-clique
        or a largest clique asked of a fresh graph decides and splits that
        clique alone."""
        for module in (cliquekit.cliques, cliquekit.identities):
            state = {name: value for name, value in vars(module).items()
                     if not name.startswith("__")}
            assert not [name for name, value in state.items()
                        if isinstance(value, (dict, list, set)) or hasattr(value, "cache_info")]
        for n in (20, 9):
            g = random_gnp(n, 0.7, RngSpec(2))
            memo = g.memo
            counts = clique_counts(g)
            counting = memo.cliques
            assert counting.counts is counts
            if n <= cliquekit.cliques._SUBSET_TABLE_MAX_N:
                assert len(counting.subset) == 1 << (n - 1)
            else:
                assert counting.subset is None
            u, v = g.edges()[0]
            report = check_edge_recurrence(g, (u, v))
            assert report.holds
            held = (True, report.lhs, tuple(report.rhs))
            terms = memo.identities
            assert counting.catalog is None
            assert terms.deletions == {(u, v): held}
            assert terms.deletions[(u, v)] is terms.held
            assert list(counting.splits) == [_vertex_mask((u, v))]
            assert cliquekit.cliques._stored_catalog(g, 2) is counting.catalog
            for size in (4, len(counts)):
                q = enumerate_cliques(g, size).cliques(size)[0]
                asked = Graph(g.n, g.adj)
                edges = itertools.combinations(q, 2)
                assert cliquekit.identities.clique_deletion_expansion(asked, edges).holds
                assert list(asked.memo.identities.deletions) == [q]
                assert list(asked.memo.cliques.splits) == [_vertex_mask(q)]
            assert cliquekit.identities._deck(g, 1) == terms.decks[1]
            assert vars(g)["memo"] is memo
            refs = [weakref.ref(g), weakref.ref(counting.catalog)]
            del g, memo, counting, terms
            assert [ref() for ref in refs] == [None, None]

    def test_dense_reference_polynomials(self):
        """One stored instance per template, each checked against networkx when stored."""
        templates = json.loads(DENSE_REFERENCE.read_text())["templates"]
        assert len(templates) == 9
        for template in templates:
            g6, poly = template["items"][0]
            g = parse_graph6(g6)
            assert g.n == template["n"]
            assert clique_polynomial(g) == poly


@pytest.mark.parametrize("n", [10, 20])
def test_terms_and_coefficients_match_row_arithmetic(n):
    """On both sides of the subset table's gate, term(mask, r, coeff) is
    coeff x**r C(G[mask]) packed, and coefficient reads each coefficient of
    a sum of terms back out, against rows of the kernel's counts."""
    g = random_gnp(n, 0.6, RngSpec(n))
    counting = cliquekit.cliques._counting(g)
    draw = random.Random(n)
    row = [0] * (n + 3)
    packed = 0
    for i in range(8):
        mask, r, coeff = draw.getrandbits(n), i % 3, 1 + i % 4
        shifted = [0] * r + [coeff * c for c in (1, *clique_counts_in(g.adj, mask))]
        term = counting.term(mask, r, coeff)
        assert term == cliquekit.cliques._pack(shifted, counting.lane)
        assert term == -counting.term(mask, r, -coeff)
        for j, c in enumerate(shifted):
            row[j] += c
        packed += term
    assert [counting.coefficient(packed, k) for k in range(len(row))] == row


class TestSubsetTable:
    """The subset table, from which a graph of at most _SUBSET_TABLE_MAX_N
    vertices answers every count, against references that share no code
    with it: one wrong entry would feed both sides of every identity."""

    @staticmethod
    def entries(g):
        """The counts that g's subset table holds for every mask, in mask
        order: a mask with the top vertex is read from two entries."""
        counting = cliquekit.cliques._counting(g)
        assert len(counting.subset) == 1 << max(g.n - 1, 0)
        return [counting.unpack(counting.read(mask)) for mask in range(1 << g.n)]

    def test_every_mask_matches_the_oracle(self, corpus):
        seeded = [random_gnp(n, p, RngSpec(100 * n + round(10 * p)))
                  for n in (9, 10) for p in (0.3, 0.6, 0.9)]
        for g in corpus + seeded:
            assert g.n <= 10
            for mask, counts in enumerate(self.entries(g)):
                assert counts == brute_force_counts(induced_subgraph(g, bits(mask))), \
                    (g.adj, mask)

    @pytest.mark.parametrize("p", [1.0, 0.3, 0.6, 0.9])
    def test_every_mask_at_the_gate_matches_the_kernel(self, p):
        """p = 1 is the complete graph, whose middle coefficient, C(n, n // 2),
        is the widest any graph on n vertices has."""
        n = cliquekit.cliques._SUBSET_TABLE_MAX_N
        g = random_gnp(n, p, RngSpec(n))
        entries = self.entries(g)
        for mask, counts in enumerate(entries):
            assert counts == clique_counts_in(g.adj, mask), mask
        if p == 1.0:
            assert entries[-1] == tuple(comb(n, k) for k in range(1, n + 1))

    def test_a_graph_above_the_gate_fills_no_table(self):
        n = cliquekit.cliques._SUBSET_TABLE_MAX_N + 1
        g = random_gnp(n, 0.8, RngSpec(n))
        q = enumerate_cliques(g, 3).cliques(3)[0]
        clique_counts(g)
        counting = cliquekit.cliques._counting(g)
        assert counting.unpack(counting.split(sum(1 << v for v in q))) \
            == networkx_counts(delete_edge_set(g, itertools.combinations(q, 2)))
        assert g.memo.cliques.subset is None


class TestDeletedCliqueSplit:
    """C(G - E(Q)) from G's own rows, by eliminating every vertex of Q but
    its highest, checked against counts of the edge-deleted graph itself.
    Each clique is split in G and in the induced subgraphs without its
    kept vertex and without its lowest eliminated one, where it is the
    relabelled rest of Q."""

    @staticmethod
    def cases(g, q):
        """The kept vertex sets: all of g, all but q's highest vertex, and
        all but its lowest."""
        return [range(g.n),
                [v for v in range(g.n) if v != q[-1]],
                [v for v in range(g.n) if v != q[0]]]

    def test_every_small_clique_of_the_corpus_matches_the_oracle(self, corpus):
        for g in corpus:
            for size in (2, 3, 4):
                for q in naive_cliques_of_size(g, size):
                    deleted = delete_edge_set(g, itertools.combinations(q, 2))
                    for kept in self.cases(g, q):
                        assert split_counts(g, kept, q) \
                            == brute_force_counts(induced_subgraph(deleted, kept)), \
                            (g.adj, q, kept)

    @pytest.mark.parametrize("p", [0.5, 0.8])
    def test_every_small_clique_of_seeded_graphs_matches_the_oracle(self, p):
        """On the subset table's side of its gate, every clique of at most
        four vertices of G(10, p), with the full mask."""
        g = random_gnp(10, p, RngSpec(10))
        counting = cliquekit.cliques._counting(g)
        for size in (2, 3, 4):
            cliques = naive_cliques_of_size(g, size)
            assert cliques
            for q in cliques:
                deleted = delete_edge_set(g, itertools.combinations(q, 2))
                counts = counting.unpack(counting.split(sum(1 << v for v in q)))
                assert counts == brute_force_counts(deleted), q
        assert len(g.memo.cliques.subset) == 1 << (g.n - 1)

    @pytest.mark.parametrize("n, p", [(21, 0.7), (30, 0.6), (40, 0.5)])
    def test_larger_graphs_match_networkx(self, n, p):
        g = random_gnp(n, p, RngSpec(n))
        cutoff = cliquekit.cliques._PIVOT_MIN_SIZE
        large = 0
        for size in (2, 3, 4):
            for q in enumerate_cliques(g, size).cliques(size)[::97][:3]:
                without = sum(1 << v for v in q)
                large += sum((g.adj[v] & ~without).bit_count() >= cutoff for v in q[:-1])
                deleted = delete_edge_set(g, itertools.combinations(q, 2))
                for kept in self.cases(g, q):
                    assert split_counts(g, kept, q) \
                        == networkx_counts(induced_subgraph(deleted, kept)), (q, kept)
        assert large  # some neighbourhood term is counted by the kernel, not grown


class TestPivotPath:
    """Inputs with candidate sets at or above the kernel's pivot cutoff."""

    @pytest.mark.parametrize("parts", [
        [2] * 32, [8] * 8, [32, 32], [3] * 21 + [1], list(range(1, 11)), [1] * 12 + [5] * 4,
    ])
    def test_complete_multipartite_is_the_product_of_its_parts(self, parts):
        expected = [1]
        for a in parts:  # multiply by (1 + a x)
            expected = [c + a * b for c, b in zip(expected + [0], [0] + expected)]
        assert clique_polynomial(complete_multipartite(parts)) == expected

    @pytest.mark.parametrize("n, p", [
        (14, 0.95), (16, 0.9), (18, 0.9), (20, 0.85), (20, 0.95), (22, 0.8),
        (24, 0.75), (26, 0.7), (28, 0.6), (30, 0.5), (30, 0.7),
    ])
    def test_dense_graphs_match_listing_and_networkx(self, n, p):
        g = random_gnp(n, p, RngSpec(1000 * n + round(100 * p)))
        counts = clique_counts(g)
        assert counts == enumerate_cliques(g).counts
        assert counts == networkx_counts(g)

    def test_every_prefix_mask_of_a_dense_graph(self):
        g = random_gnp(24, 0.8, RngSpec(24080))
        for k in range(g.n + 1):
            sub = induced_subgraph(g, range(k))
            expected = brute_force_counts(sub) if k <= 20 else networkx_counts(sub)
            assert clique_counts_in(g.adj, (1 << k) - 1) == expected, k

    @pytest.fixture(scope="module")
    def cutoff_cases(self):
        """(adj, mask, brute-force counts) for every mask of every labelled
        graph on at most 4 vertices, and the whole of three seeded G(n, p)."""
        cases = [(g.adj, mask, brute_force_counts(induced_subgraph(g, bits(mask))))
                 for n in range(5) for g in all_labelled_graphs(n) for mask in range(1 << n)]
        for n, p in [(12, 0.5), (16, 0.8), (18, 0.95)]:
            g = random_gnp(n, p, RngSpec(n))
            cases.append((g.adj, (1 << n) - 1, brute_force_counts(g)))
        return cases

    @pytest.mark.parametrize("cutoff", [2, 3, 5, 65])
    def test_counts_do_not_depend_on_the_cutoff(self, monkeypatch, cutoff, cutoff_cases):
        """2 splits every set of two or more candidates, 65 never splits."""
        monkeypatch.setattr(cliquekit.cliques, "_PIVOT_MIN_SIZE", cutoff)
        for adj, mask, counts in cutoff_cases:
            assert clique_counts_in(adj, mask) == counts, (adj, mask)

    def test_complements_of_paths_and_cycles_match_their_independence_recurrences(self):
        """C(complement of H) is the independence polynomial I(H), and
        I(P_n) = I(P_{n-1}) + x I(P_{n-2}), I(C_n) = I(P_{n-1}) + x I(P_{n-3})."""
        paths = [[1], [1, 1]]  # I(P_0), I(P_1)
        for n in range(2, MAX_VERTICES + 1):
            paths.append(poly_add(paths[n - 1], [0, *paths[n - 2]]))
        for n in range(1, MAX_VERTICES + 1):
            assert clique_polynomial(complement(path_graph(n))) == paths[n], n
        for n in range(3, MAX_VERTICES + 1):
            expected = poly_add(paths[n - 1], [0, *paths[n - 3]])
            assert clique_polynomial(complement(cycle_graph(n))) == expected, n

    @pytest.mark.parametrize("g, entries", [
        (complement(path_graph(64)), 52),
        (complete_multipartite([2] * 32), 27),
        (random_gnp(48, 0.95, RngSpec(1)), 745),
    ])
    def test_memo_entries_of_one_count(self, g, entries):
        """One entry per pivot level: the recursion's work, counted instead of
        timed.  Each entry is its candidate set's count packed at the graph's
        lane, checked against the co-component oracle, so a carry or a wrong
        shift in the packed sums of an inner node shows."""
        lane = cliquekit.cliques._lane(g.n)
        memo = {}
        cliquekit.cliques._poly_of(g.adj, (1 << g.n) - 1, memo, lane)
        assert len(memo) == entries
        for cand, packed in memo.items():
            expected = (1, *co_component_counts(induced_subgraph(g, bits(cand))))
            assert type(packed) is int
            assert packed == cliquekit.cliques._pack(expected, lane), cand

    def test_memory_of_one_dense_count(self):
        """The traced peak of counting G(48, 0.95), whose pivot memo holds
        745 packed counts: about 0.15 MiB on Python 3.11, and 0.26-0.28 MiB
        when the memo held coefficient tuples."""
        assert traced_count_peak_mib(random_gnp(48, 0.95, RngSpec(1))) < 0.2

    def test_dense_graph_near_the_vertex_cap_is_counted_quickly(self):
        g = random_gnp(48, 0.95, RngSpec(1))
        start = time.perf_counter()
        poly = clique_polynomial(g)
        assert time.perf_counter() - start < 30
        assert poly[:3] == [1, 48, g.m]


def traced_count_peak_mib(g: Graph) -> float:
    """The peak, in MiB, that tracemalloc reads while C(g) is counted for
    the first time: mostly the pivot memo of the kernel's full-mask count."""
    tracemalloc.start()
    try:
        clique_polynomial(g)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def sweep_memory_at_the_vertex_cap(bound_mib: float = 8.0) -> None:
    """Check the traced peak of counting G(64, 0.95) (seed 1, `cliquekit gen
    64 0.95 1`), whose pivot memo holds 31 341 counts packed at the 67-bit
    lane of 64 vertices: about 5.7 MiB on Python 3.11, and 10.5 MiB when
    the memo held coefficient tuples.  It takes about 6-8 s on a 2-core
    x86-64 host, too slow for the default test run; CI runs it as

        PYTHONPATH=src:tests python -c "import test_cliques as t; t.sweep_memory_at_the_vertex_cap()"
    """
    peak = traced_count_peak_mib(random_gnp(64, 0.95, RngSpec(1)))
    assert peak < bound_mib, f"traced peak {peak:.2f} MiB"


def sweep_listing_memory_at_the_cap(bound_mib: float = 63.0) -> None:
    """Check the traced peak of listing the 679 120 cliques of up to 4
    vertices of K64, the largest listing that the budget lets through
    uncounted: about 56.8 MiB for the clique tuples and their lists on
    Python 3.11, and 62.3 MiB with their common neighbourhoods, 8 bytes a
    clique.  It takes about 4 s on a 2-core x86-64 host; CI runs it as

        PYTHONPATH=src:tests python -c "import test_cliques as t; t.sweep_listing_memory_at_the_cap()"
    """
    g = complete_graph(MAX_VERTICES)
    tracemalloc.start()
    try:
        catalog = enumerate_cliques(g, 4)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert len(catalog.common_neighborhoods(4)) == comb(MAX_VERTICES, 4)
    assert peak < bound_mib, f"traced peak {peak:.2f} MiB"


def dense_band(count: int, n_range=(40, 64)):
    """count seeded G(n, p), n drawn from n_range and p from 0.85..0.95: the
    dense band, where no listing reaches and the pivot recursion is deepest."""
    for seed in range(1, count + 1):
        draw = random.Random(seed)
        n = draw.randint(*n_range)
        yield random_gnp(n, round(draw.uniform(0.85, 0.95), 3), RngSpec(seed))


def sweep_relabelled_dense_band(sample) -> None:
    """Check C(G) == C(reversed G) on each graph of sample.  The twenty graphs of
    dense_band(20) take about 5 s on a 2-core x86-64 host, too slow for the
    default test run; CI runs this sweep and
    sweep_dense_band_against_the_oracle over one list of them, so that each
    graph's memo keeps C(G) from the first sweep for the second:

        gs = list(dense_band(20))
        sweep_relabelled_dense_band(gs)
        sweep_dense_band_against_the_oracle(gs)
    """
    for g in sample:
        reversed_g = relabelled(g, range(g.n - 1, -1, -1))
        assert clique_polynomial(g) == clique_polynomial(reversed_g), to_graph6(g)


def sweep_dense_band_against_the_oracle(sample) -> None:
    """Check C(G) against the co-component oracle on each graph of sample, in CI
    the ones that sweep_relabelled_dense_band relabels."""
    for g in sample:
        assert clique_counts(g) == co_component_counts(g), to_graph6(g)


# The kernel masks that `cliquekit verify --identity clique_deletion --clique
# 0-1-2-4` reads on `cliquekit gen 64 0.9 1`, in the order it reads them:
# C(G), the split of G - E(Q) and the neighbourhood sums of Q's subsets.
DENSE_VERIFY_MASKS = (
    0xffffffffffffffff, 0xfffffffffffffff8, 0xf7bbffffbfffffe0, 0xdf7eeffefefff7e8,
    0xfeffffdfffbfffe8, 0xd73aeffebefff7f4, 0xf6bbffdfbfbffff2, 0xf63bffffbffff9e6,
    0xde7eefdefebff7f9, 0xde7eeffefefff1ed, 0xfe7fffdfffbff9eb, 0xd63aefdebebff7f0,
    0xd63aeffebefff1e4, 0xf63bffdfbfbff9e2, 0xde7eefdefebff1e9, 0xd63aefdebebff1e0,
)


def sweep_store_at_the_vertex_cap() -> None:
    """Read the 16 kernel masks of CI's dense clique-deletion verify through
    one graph, G(64, 0.9) seed 1, and check each count against the
    co-component oracle.  The first read keeps only its own count, the
    second shares the store and takes it past _STORE_MAX, and every later
    read adds only its own mask.  It takes about 12 s on a 2-core x86-64
    host, too slow for the default test run; CI runs it as

        PYTHONPATH=src:tests python -c "import test_cliques as t; t.sweep_store_at_the_vertex_cap()"
    """
    g = random_gnp(64, 0.9, RngSpec(1))
    reads = [("read", mask) for mask in DENSE_VERIFY_MASKS]
    sizes = []
    check_in_campaign_order(g, reads, co_component_oracle(g), sizes)
    bound = cliquekit.cliques._STORE_MAX
    assert sizes[0] == 1 and sizes[1] > bound, sizes[:2]
    assert [after - before for before, after in zip(sizes[1:], sizes[2:])] \
        == [1] * (len(sizes) - 2), sizes


def campaign_reads(g: Graph, cliques) -> list[tuple[str, int]]:
    """The reads of g's counting state in the order a theorem campaign makes
    them: C(G), then G - v and N(v) for every vertex v, then G - E(Q) for
    each clique Q of cliques, as ("read", mask) and ("split", Q's mask)."""
    full = (1 << g.n) - 1
    reads = [("read", full)]
    for v in range(g.n):
        reads += [("read", full ^ 1 << v), ("read", g.adj[v])]
    return reads + [("split", sum(1 << v for v in q)) for q in cliques]


def small_cliques(g: Graph, pick: slice = slice(None)) -> list[tuple[int, ...]]:
    """The cliques of 2, 3 and 4 vertices of g, by size, in listing order;
    pick selects from each size."""
    catalog = enumerate_cliques(g, 4)
    return [q for size in (2, 3, 4) for q in catalog.cliques(size)[pick]]


def listing_oracle(cliques) -> Callable[[str, int], tuple[int, ...]]:
    """The counts of a campaign read, from every clique of G listed once as a
    vertex mask: a mask holds the cliques inside it, and G - E(Q) those
    with at most one vertex of Q."""
    def expected(kind: str, mask: int) -> tuple[int, ...]:
        if kind == "read":
            sizes = Counter(q.bit_count() for q in cliques if not q & ~mask)
        else:
            sizes = Counter(q.bit_count() for q in cliques if (q & mask).bit_count() <= 1)
        return tuple(sizes[k] for k in range(1, max(sizes, default=0) + 1))

    return expected


def co_component_oracle(g: Graph) -> Callable[[str, int], tuple[int, ...]]:
    """The counts of a campaign read by the co-component oracle: one reader
    over g's masks, and G - E(Q) counted as a graph of its own."""
    read = co_component_reader(g)

    def expected(kind: str, mask: int) -> tuple[int, ...]:
        if kind == "read":
            return read(mask)
        return co_component_counts(delete_edge_set(g, itertools.combinations(bits(mask), 2)))

    return expected


def check_in_campaign_order(g: Graph, reads, expected, sizes=None) -> list[tuple[int, int]]:
    """Make reads, ("read", mask) or ("split", Q's mask), through g's one
    counting state in order, and check each count against expected(kind,
    mask).  Return (i, S) for every pivot node S that read i found in g's
    store, kept there by an earlier read, so a wrong node would feed every
    later count that reaches it.  sizes, if given, receives the store's size
    after each read."""
    counting = cliquekit.cliques._counting(g)
    store = counting.store
    earlier: set[int] = set()
    shared = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        frames = record_calls(monkeypatch, cliquekit.cliques, "_poly_of",
                              lambda adj, cand, memo, lane: (memo is store, cand))
        for i, (kind, mask) in enumerate(reads):
            packed = counting.read(mask) if kind == "read" else counting.split(mask)
            assert counting.unpack(packed) == expected(kind, mask), (to_graph6(g), i, kind, mask)
            shared += [(i, cand) for kept, cand in frames if kept and cand in earlier]
            frames.clear()
            earlier.update(itertools.islice(store, len(earlier), None))
            if sizes is not None:
                sizes.append(len(store))
    return shared


class TestCountStore:
    """A graph above the subset table's gate keeps one store of packed
    counts: its reader's dict, which every read after the first passes to
    the kernel as its pivot memo until it holds _STORE_MAX entries.  A node
    kept by one read then answers later reads of the graph, so each count
    of a sequence made in campaign order is checked against an oracle that
    shares nothing with the kernel."""

    @pytest.mark.parametrize("n, p", [
        (13, 0.9), (14, 0.85), (15, 0.8), (16, 0.85), (17, 0.75), (18, 0.8),
        (19, 0.7), (20, 0.65),
    ])
    def test_campaign_order_against_the_exhaustive_oracle(self, n, p):
        """Every clique of G, as listed by enumerate_cliques, is first checked
        against brute_force_counts size by size; then every read counts
        the listed cliques that it keeps.  At 13 vertices no read finds a
        node of an earlier one: G - v has 12 vertices, the pivot cutoff, so
        no node below a read's own mask is kept."""
        g = random_gnp(n, p, RngSpec(1000 * n + round(100 * p)))
        catalog = enumerate_cliques(g)
        assert catalog.counts == brute_force_counts(g)
        listed = [sum(1 << v for v in q) for k in range(1, catalog.omega + 1)
                  for q in catalog.cliques(k)]
        shared = check_in_campaign_order(
            g, campaign_reads(g, small_cliques(g)), listing_oracle(listed))
        assert shared or n == 13

    @pytest.mark.parametrize("n, p", [(24, 0.6), (27, 0.55), (30, 0.5)])
    def test_campaign_order_against_networkx(self, n, p):
        g = random_gnp(n, p, RngSpec(1000 * n + round(100 * p)))
        listed = [sum(1 << v for v in q) for q in networkx_cliques(g)]
        assert check_in_campaign_order(
            g, campaign_reads(g, small_cliques(g)), listing_oracle(listed))

    @pytest.mark.parametrize("g", list(dense_band(3)), ids=lambda g: f"G({g.n}, m={g.m})")
    def test_dense_band_against_the_co_component_oracle(self, g):
        """C(G), G - v and N(v) for every v, then G - E(Q) for a few cliques
        of each size, where no listing reaches."""
        reads = campaign_reads(g, small_cliques(g, slice(None, 291, 97)))
        assert check_in_campaign_order(g, reads, co_component_oracle(g))

    def test_a_wrong_node_in_the_store_is_caught(self):
        """Plant one wrong count, with one vertex too many, in a node that
        an earlier read kept and a later read reaches: the later read's
        count is then wrong, and the check sees it."""
        g = random_gnp(18, 0.8, RngSpec(18080))
        reads = campaign_reads(g, small_cliques(g))
        expected = co_component_oracle(g)
        i, node = check_in_campaign_order(Graph(g.n, g.adj), reads, expected)[0]
        check_in_campaign_order(g, reads[:i], expected)
        counting = cliquekit.cliques._counting(g)
        counting.store[node] += 1 << counting.lane
        with pytest.raises(AssertionError):
            check_in_campaign_order(g, reads[i:i + 1], expected)

    def test_one_count_keeps_one_entry_and_a_second_read_keeps_its_nodes(self):
        g = random_gnp(48, 0.95, RngSpec(1))
        clique_polynomial(g)
        store = g.memo.cliques.store
        assert list(store) == [(1 << g.n) - 1]
        check_in_campaign_order(g, [("read", (1 << g.n) - 2)], co_component_oracle(g))
        assert len(store) > 2

    def test_a_read_past_the_bound_adds_only_its_own_mask(self, monkeypatch):
        monkeypatch.setattr(cliquekit.cliques, "_STORE_MAX", 3)
        g = random_gnp(48, 0.95, RngSpec(1))
        full = (1 << g.n) - 1
        sizes = []
        reads = [("read", full ^ 1 << v) for v in range(4)]
        check_in_campaign_order(g, reads, co_component_oracle(g), sizes)
        assert sizes[0] == 1 and sizes[1] > 3
        assert sizes[2:] == [sizes[1] + 1, sizes[1] + 2]
        assert list(g.memo.cliques.store)[-2:] == [full ^ 4, full ^ 8]


class TestCoComponentOracle:
    """The co-component oracle, which shares no code with cliquekit.cliques,
    against the exhaustive oracle on every labelled graph of at most 5
    vertices, and against the kernel where only it reaches: dense graphs of
    40 to 64 vertices."""

    def test_small_graphs_against_the_exhaustive_oracle(self):
        for n in range(6):
            for g in all_labelled_graphs(n):
                assert co_component_counts(g) == brute_force_counts(g), g.adj

    @pytest.mark.parametrize("g", [
        random_gnp(64, 0.92, RngSpec(1)),
        random_gnp(48, 0.95, RngSpec(1)),
        complement(path_graph(64)),
        complement(cycle_graph(64)),
        random_gnp(40, 0.85, RngSpec(1)),
    ], ids=["G(64,0.92)", "G(48,0.95)", "co-P64", "co-C64", "G(40,0.85)"])
    def test_dense_graphs_against_the_kernel(self, g):
        assert clique_counts(g) == co_component_counts(g)

    def test_the_oracle_sweep_runs(self):
        """CI's oracle sweep of the dense band, on graphs small enough for
        the default run."""
        sweep_dense_band_against_the_oracle(dense_band(4, n_range=(16, 24)))


class TestRelabelling:
    """The kernel takes candidates from the top vertex down, and its pivot
    rule breaks ties by vertex number, so a relabelled copy of a graph runs
    a different recursion.  Its polynomial must not move: checked on G, on
    its reversal v -> n - 1 - v and on one seeded permutation, against the
    exhaustive oracle up to 14 vertices and against the stored polynomials
    of the dense_poly reference above that."""

    @staticmethod
    def labellings(n: int, seed: int) -> list[list[int]]:
        return [list(range(n)), list(range(n - 1, -1, -1)),
                random.Random(seed).sample(range(n), n)]

    @pytest.mark.parametrize("p", [0.3, 0.6, 0.9, 0.95])
    def test_small_graphs_against_the_oracle(self, p):
        for n in range(1, 15):
            seed = 100 * n + round(100 * p)
            g = random_gnp(n, p, RngSpec(seed))
            expected = [1, *brute_force_counts(g)]
            for perm in self.labellings(n, seed):
                assert clique_polynomial(relabelled(g, perm)) == expected, (n, perm)

    def test_dense_reference_graphs(self):
        for i, template in enumerate(json.loads(DENSE_REFERENCE.read_text())["templates"]):
            g6, poly = template["items"][0]
            g = parse_graph6(g6)
            for perm in self.labellings(g.n, i):
                assert clique_polynomial(relabelled(g, perm)) == poly, (g6, perm)

    def test_the_dense_band_sweep_runs(self):
        """CI's dense-band sweep, on graphs small enough for the default run."""
        sweep_relabelled_dense_band(dense_band(4, n_range=(16, 24)))


class TestDepthFirstCount:
    """The DFS below the pivot cutoff: candidate sets of at most three are
    counted in closed form, so every call it makes has at least four."""

    # _grow calls on the first instance of each dense_poly template, in order
    # G(64, 0.5), G(60, 0.55), ..., G(36, 0.85)
    GROW_CALLS = [999, 1339, 1690, 2019, 2643, 2954, 2705, 2434, 2002]

    def test_grow_calls_on_the_dense_reference(self, monkeypatch):
        calls = record_calls(monkeypatch, cliquekit.cliques, "_grow",
                             lambda adj, row, size, cand: cand.bit_count(), caller=True)
        totals = []
        for template in json.loads(DENSE_REFERENCE.read_text())["templates"]:
            g6, poly = template["items"][0]
            g = parse_graph6(g6)
            calls.clear()
            assert [1, *clique_counts_in(g.adj, (1 << g.n) - 1)] == poly
            totals.append(len(calls))
            assert min(size for caller, size in calls if caller == "_grow") >= 4
        assert totals == self.GROW_CALLS


class TestCommonNeighborhoods:
    """The common neighbourhood of each listed clique, against
    graphs.common_neighborhood_bits, which shares no code with the lister."""

    @staticmethod
    def assert_masks(g, k_max, expected):
        """Every size of enumerate_cliques(g, k_max), and the sizes around
        them, reads the masks that expected maps each clique to, in the
        order of its cliques; a size out of range reads an empty sequence."""
        cat = enumerate_cliques(g, k_max)
        limit = len(cat.by_size) - 1
        for k in range(-1, limit + 3):
            masks = cat.common_neighborhoods(k)
            assert len(masks) == len(cat.cliques(k)), (g.adj, k_max, k)
            assert list(masks) == [expected(q) for q in cat.cliques(k)], (g.adj, k_max, k)
        assert cat.common_neighborhoods(0) == () == cat.common_neighborhoods(limit + 1)

    def test_every_labelled_graph_of_up_to_5_vertices(self):
        for n in range(6):
            for g in all_labelled_graphs(n):
                for k_max in (*range(n + 1), None):
                    self.assert_masks(g, k_max, lambda q: common_neighborhood_bits(g, q))

    def test_seeded_graphs_of_6_to_20_vertices(self):
        for n in range(6, 21):
            g = random_gnp(n, (0.2, 0.4, 0.6, 0.8)[n % 4], RngSpec(4200 + n))
            expected = {q: common_neighborhood_bits(g, q)
                        for size in enumerate_cliques(g).by_size for q in size}
            for k_max in range(n + 1):
                self.assert_masks(g, k_max, expected.__getitem__)

    def test_no_vertices(self):
        for k_max in (0, 1, None):
            cat = enumerate_cliques(empty_graph(0), k_max)
            assert [cat.common_neighborhoods(k) for k in range(-1, 3)] == [()] * 4

    def test_the_masks_are_read_only(self):
        masks = enumerate_cliques(complete_graph(4)).common_neighborhoods(2)
        assert masks[0] == 0b1100
        with pytest.raises(TypeError):
            masks[0] = 0

    def test_catalogs_compare_and_hash_without_the_masks(self):
        """A listed catalog equals, hashes and shows as the catalog of the
        same cliques made without masks."""
        for g in (complete_graph(5), random_gnp(12, 0.6, RngSpec(9)), empty_graph(0)):
            cat = enumerate_cliques(g)
            bare = CliqueCatalog(g.n, cat.by_size)
            assert bare.common_neighborhoods(1) == ()
            assert cat == enumerate_cliques(g) == bare
            assert hash(cat) == hash(enumerate_cliques(g)) == hash(bare)
            assert repr(cat) == repr(bare)
        assert enumerate_cliques(complete_graph(4), 2) != enumerate_cliques(complete_graph(4), 3)


class TestListingOncePerGraph:
    def test_every_request_order_reads_the_same_cliques(self, corpus):
        """However the sizes are asked for, the stored catalog holds each
        size up to k as a fresh listing does, and enumerate_cliques lists
        exactly k sizes."""
        for g in corpus:
            top = g.n + 1
            for order in (range(top), range(top - 1, -1, -1), [2, 0, 4, 1, top, 3]):
                h = Graph(g.n, g.adj)
                for k in order:
                    stored = cliquekit.cliques._stored_catalog(h, k)
                    fresh = enumerate_cliques(g, k_max=k)
                    limit = min(k, g.n)
                    assert len(fresh.by_size) == limit + 1, (k, g.adj)
                    assert [stored.cliques(j) for j in range(limit + 1)] \
                        == list(fresh.by_size), (k, g.adj)
                assert h.memo.cliques.catalog.counts == clique_counts(g)

    def test_only_a_request_beyond_the_listed_sizes_lists_again(self, monkeypatch):
        g = random_gnp(12, 0.7, RngSpec(4))
        asked = record_listings(monkeypatch)
        omega = len(clique_counts(g))
        assert omega > 3
        for k in (2, 1, 2, 3, 2, omega, g.n, 3):
            assert cliquekit.cliques._stored_catalog(g, k) is g.memo.cliques.catalog
        assert asked == [2, 3, omega]

    def test_listings_and_a_campaign_leave_no_cyclic_garbage(self):
        """A listing makes no reference cycle, so a dropped catalog is freed
        at once: with the cyclic collector off, catalogs listed and dropped
        and an all-theorems campaign over G(12, 0.7..0.8) leave it nothing."""
        config = CampaignConfig(n_range=(12, 12), p_range=(0.7, 0.8), samples=20,
                                rng=RngSpec(1), checks=("all-theorems",))
        gc.collect()
        gc.disable()
        try:
            for seed in range(10):
                enumerate_cliques(random_gnp(12, 0.7, RngSpec(seed)))
            run_campaign(config)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0


class TestListingBudget:
    def test_over_budget_raises_before_listing(self):
        g = complete_graph(64)
        with pytest.raises(CliqueBudgetExceeded) as info:
            enumerate_cliques(g, k_max=5)
        listed = sum(comb(64, k) for k in range(1, 6))
        assert f"{listed} cliques" in str(info.value)
        assert f"budget of {LISTING_BUDGET}" in str(info.value)
        assert isinstance(info.value, ValueError)

    def test_within_budget_lists(self):
        assert enumerate_cliques(complete_graph(64), k_max=3).counts \
            == (64, comb(64, 2), comb(64, 3))

    def test_the_catalog_asks_the_budget_for_every_size(self, monkeypatch):
        """_stored_catalog lists through enumerate_cliques, so a listing of
        vertices, edges or triangles asks the budget as any other does."""
        monkeypatch.setattr(cliquekit.cliques, "LISTING_BUDGET", 0)
        g = complete_graph(6)
        for size, listed in ((1, 6), (2, 21), (3, 41)):
            with pytest.raises(CliqueBudgetExceeded,
                               match=f"up to {size} vertices would list {listed} cliques"):
                cliquekit.cliques._stored_catalog(g, size)
        assert g.memo.cliques.catalog is None
        assert cliquekit.cliques._stored_catalog(g, 0).by_size == ((),)

    def test_up_to_4_vertices_at_the_cap_is_within_the_budget_uncounted(self, monkeypatch):
        """K64 has 679 120 cliques of up to 4 vertices, the most of any graph
        within the cap, so at the real budget they are allowed by the
        binomial bound alone and nothing is counted: edges and triangles,
        in particular, are never refused."""
        g = complete_graph(MAX_VERTICES)
        assert sum(comb(MAX_VERTICES, j) for j in range(1, 5)) == 679120
        forbid_calls(monkeypatch, cliquekit.cliques, "clique_counts")
        cliquekit.cliques._require_listing_budget(g, 4)
        with pytest.raises(AssertionError, match="clique_counts called"):
            cliquekit.cliques._require_listing_budget(g, 5)

    def test_the_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cliquekit.cliques, "LISTING_BUDGET", 15)
        assert enumerate_cliques(complete_graph(4)).counts == (4, 6, 4, 1)
        monkeypatch.setattr(cliquekit.cliques, "LISTING_BUDGET", 14)
        with pytest.raises(CliqueBudgetExceeded, match="would list 15 cliques"):
            enumerate_cliques(complete_graph(4))

    def test_only_sizes_up_to_k_max_count(self, monkeypatch):
        monkeypatch.setattr(cliquekit.cliques, "LISTING_BUDGET", 10)
        assert enumerate_cliques(complete_graph(4), k_max=2).counts == (4, 6)

    def test_no_count_where_no_graph_of_that_order_exceeds_the_budget(self, monkeypatch):
        """A 20-vertex graph has at most 21 699 cliques of up to 5 vertices."""
        g = random_gnp(20, 0.7, RngSpec(3))
        expected = enumerate_cliques(g, k_max=5).counts

        forbid_calls(monkeypatch, cliquekit.cliques, "clique_counts")
        assert enumerate_cliques(g, k_max=5).counts == expected
        with pytest.raises(AssertionError, match="clique_counts called"):
            enumerate_cliques(g)


    def test_the_bound_on_complete_graphs(self, monkeypatch):
        """K_n has C(n, j) j-cliques, the most of any graph on n vertices, so
        it is refused exactly where their sum up to k_max is over the budget.
        A graph of at most 19 vertices has at most 2**19 - 1 cliques in all
        and is passed without a count."""
        require = cliquekit.cliques._require_listing_budget
        refused = []
        forbid_calls(monkeypatch, cliquekit.cliques, "clique_counts")
        for n in range(25):
            if n == 20:
                monkeypatch.undo()
            g = complete_graph(n)
            for k_max in range(n + 2):
                limit = min(k_max, n)
                listed = sum(comb(n, j) for j in range(1, limit + 1))
                if listed <= LISTING_BUDGET:
                    require(g, k_max)
                    continue
                with pytest.raises(CliqueBudgetExceeded) as info:
                    require(g, k_max)
                assert str(info.value) == (
                    f"listing the cliques of up to {limit} vertices would list {listed} "
                    f"cliques, over the budget of {LISTING_BUDGET}")
                refused.append((n, k_max))
        assert refused[0] == (20, 14) and {n for n, _ in refused} == set(range(20, 25))


class TestPolynomial:
    @pytest.mark.parametrize("n", [*range(9), 16, 17, 32, 63, 64])
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
