import dataclasses
import inspect
import itertools
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings

import cliquekit.cliques
import cliquekit.identities
from cliquekit import (
    ALL_THEOREMS,
    CHECKS,
    CliqueBudgetExceeded,
    Graph,
    RngSpec,
    bits,
    check_edge_deck_identity,
    check_edge_recurrence,
    check_first_derivative,
    check_handshake,
    check_kth_derivative_general,
    check_second_derivative,
    check_third_derivative_k5free,
    check_triangle_recurrence,
    check_vertex_deck_identity,
    check_vertex_recurrence,
    clique_count,
    clique_counts,
    clique_deletion_expansion,
    clique_polynomial,
    common_neighborhood_bits,
    complete_graph,
    cycle_graph,
    delete_edge,
    delete_edge_set,
    delete_vertex,
    disjoint_union,
    empty_graph,
    enumerate_cliques,
    induced_subgraph,
    parse_graph6,
    path_graph,
    poly_add,
    poly_divided_derivative,
    poly_equal,
    poly_normalize,
    random_gnp,
    star_graph,
    triangle_deletion_counts,
    triangle_identity,
    to_graph6,
    triangles,
)
from cliquekit.graphs import MAX_VERTICES
from cliquekit.identities import NotApplicable

from _helpers import (
    forbid_calls,
    graphs,
    mask_of,
    mixed_corpus,
    naive_cliques_of_size,
    networkx_counts,
    oracle_counts,
    record_calls,
    reference_deck,
    reference_deletion_rhs,
    relabelled,
    run_main,
    subset_masks,
)

DIAMOND = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class TestCatalogInstances:
    """The identity checks take their edges and triangles from the graph's
    catalog; Graph.edges and triangles, which list them on their own, are
    its independent references."""

    def test_edges_and_triangles_are_the_catalogs_references(self, monkeypatch):
        seeded = [random_gnp(n, p, RngSpec(seed)) for seed, (n, p)
                  in enumerate(itertools.product((4, 9, 16, 33, 64), (0.2, 0.5, 0.8)))]
        for g in mixed_corpus() + seeded:
            catalog = cliquekit.cliques._stored_catalog(g, 3)
            assert list(catalog.cliques(2)) == g.edges(), g.adj
            assert list(catalog.cliques(3)) == triangles(g), g.adj
        g = complete_graph(6)
        assert [r.params["e"] for r in CHECKS["edge_recurrence"].run(g, None)] \
            == list(map(list, g.edges()))
        assert [r.params["delta"] for r in CHECKS["triangle_identity"].run(g, None)] \
            == list(map(list, triangles(g)))
        assert len(CHECKS["edge_deck"].run(g, None)) == 5
        # each clique kind lists exactly its sizes of the stored catalog, in
        # order, as masks: a kind of one size the catalog's masks themselves,
        # the clique kind its sizes 2, 3 and 4 back to back
        for g in mixed_corpus() + seeded[:9]:
            catalog = cliquekit.cliques._stored_catalog(g, 4)
            assert CHECKS["edge_recurrence"].params(g, None) is catalog.masks(2)
            assert CHECKS["triangle_identity"].params(g, None) is catalog.masks(3)
            assert CHECKS["clique_deletion"].params(g, None) \
                == [*catalog.masks(2), *catalog.masks(3), *catalog.masks(4)], g.adj
        # the K5-free kinds list nothing on a graph with a 5-clique, and their
        # bodies, called directly, still refuse it
        k4, k5 = complete_graph(4), complete_graph(5)
        assert list(CHECKS["third_derivative_k5free"].params(k4, None)) == [None]
        assert CHECKS["triangle_deletion_counts"].params(k4, None) \
            is cliquekit.cliques._stored_catalog(k4, 3).masks(3)
        for name in ("third_derivative_k5free", "triangle_deletion_counts"):
            assert list(CHECKS[name].params(k5, None)) == [], name
        with pytest.raises(NotApplicable):
            check_third_derivative_k5free(k5)
        with pytest.raises(NotApplicable):
            triangle_deletion_counts(k5, (0, 1, 2))
        # every listing asks the one budget: at 0, each check that reads
        # cliques of any size, edges and triangles included, lists nothing,
        # and the others still report
        monkeypatch.setattr(cliquekit.cliques, "LISTING_BUDGET", 0)
        g = complete_graph(6)
        skipped, reports = set(), {}
        for name in ALL_THEOREMS:
            try:
                reports[name] = CHECKS[name].run(g, None)
            except CliqueBudgetExceeded:
                skipped.add(name)
        assert skipped == {"handshake", "edge_recurrence", "edge_deck", "second_derivative",
                           "triangle_identity", "clique_deletion"}
        assert g.memo.cliques.catalog is None
        assert all(r.holds for rs in reports.values() for r in rs)


class TestFirstFailure:
    """CheckDef.verdicts states the rule for what applies (the check raises
    NotApplicable, or its verdict holds None) once, and first_failure and
    reports read it; both must say of every instance what a plain loop over
    check, written out here, says."""

    def test_agrees_with_a_loop_over_verdict(self):
        seeded = [random_gnp(n, p, RngSpec(seed)) for seed, (n, p)
                  in enumerate(itertools.product(range(4, 17), (0.3, 0.6, 0.9)))]
        outcomes = Counter()
        for g in mixed_corpus() + seeded:
            for cd in CHECKS.values():
                if cd.param != "k":  # a k range leaves the other instance lists whole
                    assert list(cd.params(g, (3, 3))) == list(cd.params(g, None)), cd.name
                for k_range in (None, (3, 3)) if cd.param == "k" else (None,):
                    asked = Graph(g.n, g.adj)
                    verdicts = []
                    for p in cd.params(asked, k_range):
                        try:
                            verdict = cd.check(asked, p)
                        except NotApplicable:
                            continue
                        if verdict[0] is not None:
                            verdicts.append((p, verdict))
                    first = next(((p, v) for p, v in verdicts if v[0] is False), None)
                    expected = bool(verdicts), first
                    assert cd.first_failure(Graph(g.n, g.adj), k_range) == expected, \
                        (cd.name, k_range, g.adj)
                    assert cd.reports(Graph(g.n, g.adj), k_range) \
                        == [cd.render(asked, p, v) for p, v in verdicts], (cd.name, k_range, g.adj)
                    outcomes[expected[0], first is None] += 1
        # some check on some graph applies nowhere, fails, and holds throughout
        assert set(outcomes) == {(False, True), (True, False), (True, True)}

    def test_a_check_that_does_not_apply_is_skipped_alike(self):
        """An instance whose check raises NotApplicable, or whose verdict
        holds None, is passed over by both, before and after a failure."""
        def check(g, p):
            if p == 0:
                raise NotApplicable("no")
            return (None, None, None) if p == 1 else (p != 2, p, 2)

        cd = dataclasses.replace(CHECKS["vertex_recurrence"], check=check,
                                 params=lambda g, k_range: range(g.n))
        failure = True, (2, (False, 2, 2))
        for n, expected in [(0, (False, None)), (2, (False, None)), (3, failure), (5, failure)]:
            g = empty_graph(n)
            assert list(cd.verdicts(g, range(n))) == [(p, (p != 2, p, 2)) for p in range(2, n)]
            assert cd.first_failure(g, None) == expected
        cd = dataclasses.replace(cd, check=lambda g, p: check(g, p + 3 if p > 1 else p))
        assert cd.first_failure(empty_graph(4), None) == (True, None)


class TestHandshake:
    def test_k4_order_two(self):
        r = check_handshake(complete_graph(4), 2)
        assert r.lhs == 12 and r.rhs == 12 and r.holds

    def test_holds_for_all_orders_on_corpus(self, corpus):
        for g in corpus:
            for k in range(1, enumerate_cliques(g).omega + 2):
                assert check_handshake(g, k).holds


class TestVertexRecurrence:
    def test_triangle(self):
        r = check_vertex_recurrence(complete_graph(3), 0)
        assert r.lhs == [1, 3, 3, 1] and r.holds

    def test_isolated_vertex(self):
        g = disjoint_union(empty_graph(1), cycle_graph(5))
        r = check_vertex_recurrence(g, 0)
        assert r.holds

    def test_cycle_all_vertices(self):
        for v in range(5):
            assert check_vertex_recurrence(cycle_graph(5), v).holds

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_vertex_recurrence(complete_graph(3), 3)

    @given(graphs(min_n=1))
    @settings(max_examples=100)
    def test_always_holds(self, g):
        assert check_vertex_recurrence(g, g.n // 2).holds


class TestEdgeRecurrence:
    def test_triangle(self):
        for e in complete_graph(3).edges():
            assert check_edge_recurrence(complete_graph(3), e).holds

    def test_edge_with_empty_common_neighborhood(self):
        g = path_graph(3)
        r = check_edge_recurrence(g, (0, 1))
        # C(G) = C(G - e) + x^2 * 1 when the endpoints share no neighbor
        assert r.holds
        assert poly_equal(
            r.lhs,
            [a + b for a, b in itertools.zip_longest(
                clique_polynomial(delete_edge(g, (0, 1))), [0, 0, 1], fillvalue=0)],
        )

    def test_k4_all_edges(self):
        for e in complete_graph(4).edges():
            assert check_edge_recurrence(complete_graph(4), e).holds

    def test_absent_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            check_edge_recurrence(path_graph(3), (0, 2))


@pytest.mark.parametrize("check, raw, shown", [
    (check_edge_recurrence, (0, 1, 2), "(0, 1, 2)"),
    (check_edge_recurrence, (0,), "(0,)"),
    (triangle_identity, (0, 1), "(0, 1)"),
    (triangle_identity, [0, 1, 2, 3], "(0, 1, 2, 3)"),
    (check_triangle_recurrence, (0, 1), "(0, 1)"),
    (triangle_deletion_counts, (0, 1), "(0, 1)"),
    (check_edge_recurrence, (0, 9), "(0, 9)"),
    (check_edge_recurrence, (0, 0), "(0, 0)"),
    (check_edge_recurrence, (1, 0), "(1, 0)"),
    (triangle_identity, (0, 2, 9), "(0, 2, 9)"),
    (triangle_identity, (2, 3, 2), "(2, 3, 2)"),
    (triangle_identity, (2, 1, 0), "(2, 1, 0)"),
    (cliquekit.identities._clique_deletion, (0, 2, 3, 9), "(0, 2, 3, 9)"),
    (cliquekit.identities._clique_deletion, (0, 2, 0), "(0, 2, 0)"),
    (cliquekit.identities._clique_deletion, (0, 1, 2, 3), "(0, 1, 2, 3)"),
    (check_edge_recurrence, (9, 9), "(9, 9)"),
    (triangle_identity, (0, 9, 9), "(0, 9, 9)"),
    (cliquekit.identities._clique_deletion, (9, 0, 9), "(9, 0, 9)"),
])
def test_wrong_number_of_vertex_ids_is_rejected(check, raw, shown):
    """An invalid vertex set of an edge, a triangle or a clique is rejected
    by one rule, as a tuple given to the public function and as the text of
    its verify flag, which exits 2 before any check runs: first a wrong
    number of ids, then an id out of range, even where ids repeat, then
    ids that repeat a vertex or miss an edge (DIAMOND lacks 01), named as
    given."""
    name, param = check.entry.name, check.entry.param
    count, noun = {"e": (2, "an edge"), "delta": (3, "a triangle"),
                   "clique": (None, "a clique")}[param]
    text = "-".join(map(str, raw))
    if count is not None and len(raw) != count:
        message = f"expected {count} vertex ids in {shown}"
        flag_message = f"expected {count} vertex ids in {text!r}"
    elif max(raw) >= DIAMOND.n:
        message = flag_message = f"vertex {max(raw)} out of range"
    else:
        message = flag_message = f"{shown} is not {noun} of the graph"
    with pytest.raises(ValueError) as info:
        check(DIAMOND, raw)
    assert str(info.value) == message
    flag = run_main("verify", "-g", to_graph6(DIAMOND), "--identity", name, f"--{param}", text)
    assert (flag.returncode, flag.stdout, flag.stderr) == (2, "", f"error: {flag_message}\n")


class TestDeckIdentities:
    def test_vertex_deck_c5(self):
        r = check_vertex_deck_identity(cycle_graph(5), 2)
        assert r.lhs == 15 and r.rhs == 15 and r.holds

    def test_vertex_deck_spanning_clique(self):
        r = check_vertex_deck_identity(complete_graph(4), 4)
        assert r.lhs == 0 and r.rhs == 0 and r.holds

    def test_vertex_deck_k1_counts_vertices(self, corpus):
        for g in corpus:
            r = check_vertex_deck_identity(g, 1)
            assert r.lhs == (g.n - 1) * g.n and r.holds

    def test_edge_deck_k4(self):
        r3 = check_edge_deck_identity(complete_graph(4), 3)
        assert r3.lhs == 12 and r3.rhs == 12 and r3.holds
        r2 = check_edge_deck_identity(complete_graph(4), 2)
        assert r2.lhs == 30 and r2.rhs == 30 and r2.holds

    def test_edge_deck_triangle_free(self):
        r = check_edge_deck_identity(cycle_graph(6), 3)
        assert r.lhs == 0 and r.rhs == 0 and r.holds

    def test_both_hold_for_all_k_on_corpus(self, corpus):
        for g in corpus:
            omega = enumerate_cliques(g).omega
            for k in range(1, omega + 2):
                assert check_vertex_deck_identity(g, k).holds
                if k >= 2:
                    assert check_edge_deck_identity(g, k).holds


# the identity of the r-deck, whose members delete a vertex (r = 1), an
# edge (2) or a triangle's edges (3)
DECKS = {1: "vertex_deck", 2: "edge_deck", 3: "triangle_deck"}


def deck_check(r, g, k):
    """The r-deck identity's verdict for k, as the catalog evaluates it."""
    return CHECKS[DECKS[r]].check(g, k)


class TestDeckSums:
    """Each r-deck's row, r = 1..5, summed once per graph from its table,
    against the members rebuilt by deletion and counted independently."""

    def assert_decks_match(self, g):
        fresh = Graph(g.n, g.adj)
        for r in range(1, 6):
            expected = reference_deck(g, r)
            assert cliquekit.identities._deck(fresh, r) == expected, (g.adj, r)
            assert fresh.memo.identities.decks[r] == expected
            if r in DECKS:
                for k in range(r, len(expected) + 2):
                    _, _, rhs = deck_check(r, fresh, k)
                    assert rhs == (expected[k] if k < len(expected) else 0), (g.adj, r, k)

    def test_corpus_matches_rebuilt_members(self, corpus):
        for g in corpus:
            self.assert_decks_match(g)

    @pytest.mark.parametrize("n, p", [(11, 0.8), (12, 0.6), (13, 0.45), (15, 0.3)])
    def test_seeded_gnp_matches_rebuilt_members(self, n, p):
        self.assert_decks_match(random_gnp(n, p, RngSpec(n)))

    @pytest.mark.parametrize("n, p", [(24, 0.5), (40, 0.25)])
    def test_larger_graphs_match_networkx(self, n, p):
        self.assert_decks_match(random_gnp(n, p, RngSpec(n)))

    def test_a_deck_over_the_listing_budget_is_refused_and_not_stored(self):
        """The 5-deck of K64 lists the cliques of up to 5 vertices, 8 303 632
        of them: the stored catalog refuses before listing any, and the
        expansion context keeps no row under 5."""
        g = complete_graph(64)
        with pytest.raises(CliqueBudgetExceeded, match="would list 8303632 cliques"):
            cliquekit.identities._deck(g, 5)
        assert 5 not in g.memo.identities.decks
        assert g.memo.cliques.catalog is None

    def test_each_deck_is_summed_once_per_graph(self, monkeypatch):
        sums = record_calls(monkeypatch, cliquekit.identities, "_sum_deck", lambda g, r: r)
        g = random_gnp(12, 0.6, RngSpec(3))
        for r in DECKS:
            for k in range(r, 6):
                deck_check(r, g, k)
        CHECKS["conjecture2"].check(g, None)
        CHECKS["conjecture3"].check(g, None)
        for include_unit in (False, True):
            CHECKS["conjecture1_first"].check(g, include_unit)
            CHECKS["conjecture1_second"].check(g, include_unit)
        assert sums == list(DECKS) == list(g.memo.identities.decks)


class TestDerivativeTheorems:
    def test_first_on_k4(self):
        r = check_first_derivative(complete_graph(4))
        assert r.lhs == [4, 12, 12, 4] and r.holds  # 4(1+x)^3

    def test_first_on_empty(self):
        r = check_first_derivative(empty_graph(6))
        assert r.lhs == [6] and r.holds

    def test_first_on_c5(self):
        r = check_first_derivative(cycle_graph(5))
        assert r.lhs == [5, 10] and r.holds

    def test_second_on_k4(self):
        r = check_second_derivative(complete_graph(4))
        assert r.lhs == [6, 12, 6] and r.holds  # 6(1+x)^2

    def test_second_on_triangle_free(self):
        g = cycle_graph(6)
        r = check_second_derivative(g)
        assert r.lhs == [6] and r.rhs == [6] and r.holds

    def test_second_on_diamond(self):
        r = check_second_derivative(DIAMOND)
        assert r.lhs == [5, 6] and r.holds

    def test_hold_on_corpus(self, corpus):
        for g in corpus:
            assert check_first_derivative(g).holds
            assert check_second_derivative(g).holds

    def test_consistency_with_deck_identities(self, corpus):
        # derivative coefficient k*c_k equals sum over v of c_k(G) - c_k(G - v),
        # and C(k,2)*c_k equals the edge-deck difference sum
        for g in corpus[:20]:
            counts = clique_counts(g)
            for k in range(1, len(counts) + 1):
                diff_v = sum(
                    counts[k - 1] - clique_count(delete_vertex(g, v), k)
                    for v in range(g.n)
                )
                assert diff_v == k * counts[k - 1]
                diff_e = sum(
                    counts[k - 1] - clique_count(delete_edge(g, e), k)
                    for e in g.edges()
                )
                assert diff_e == k * (k - 1) // 2 * counts[k - 1]


class TestThirdDerivative:
    def test_k4(self):
        r = check_third_derivative_k5free(complete_graph(4))
        assert r.lhs == [4, 4] and r.rhs == [4, 4] and r.holds

    def test_c5_vacuous(self):
        r = check_third_derivative_k5free(cycle_graph(5))
        assert r.lhs == [] and r.rhs == [] and r.holds

    def test_diamond(self):
        r = check_third_derivative_k5free(DIAMOND)
        assert r.lhs == [2] and r.rhs == [2] and r.holds

    def test_records_connectivity(self):
        r = check_third_derivative_k5free(disjoint_union(complete_graph(4), complete_graph(3)))
        assert r.params["connected"] is False
        assert r.holds

    def test_rejects_k5(self):
        with pytest.raises(ValueError, match="5-clique"):
            check_third_derivative_k5free(complete_graph(5))

    def test_holds_on_k5free_corpus(self, corpus):
        for g in corpus:
            if enumerate_cliques(g).omega <= 4:
                assert check_third_derivative_k5free(g).holds


class TestKthDerivative:
    def test_coincides_with_first(self, corpus):
        for g in corpus[:15]:
            a = check_kth_derivative_general(g, 1)
            b = check_first_derivative(g)
            assert a.lhs == b.lhs and a.rhs == b.rhs

    def test_coincides_with_second_on_k4(self):
        a = check_kth_derivative_general(complete_graph(4), 2)
        b = check_second_derivative(complete_graph(4))
        assert a.lhs == b.lhs and a.rhs == b.rhs

    def test_k3_on_k5_computed_exactly(self):
        r = check_kth_derivative_general(complete_graph(5), 3)
        assert r.lhs == [10, 20, 10]  # 10 (1+x)^2
        assert r.rhs == [10, 20, 10]
        assert r.holds is (r.lhs == r.rhs)


class TestCliqueDeletionExpansion:
    def test_single_edge_reduces_to_edge_recurrence(self, corpus):
        for g in corpus[:20]:
            for e in g.edges()[:3]:
                a = clique_deletion_expansion(g, [e])
                b = check_edge_recurrence(g, e)
                assert a.rhs == b.rhs and a.holds

    def test_triangle_matches_both_interpretations(self):
        g = complete_graph(4)
        m = [(0, 1), (0, 2), (1, 2)]
        a = clique_deletion_expansion(g, m, "cliques")
        b = clique_deletion_expansion(g, m, "edge-subsets")
        assert a.holds and b.holds and a.rhs == b.rhs

    def test_k4_full_edge_set_separates_interpretations(self):
        g = complete_graph(4)
        m = list(itertools.combinations(range(4), 2))
        strict = clique_deletion_expansion(g, m, "cliques")
        loose = clique_deletion_expansion(g, m, "edge-subsets")
        assert strict.holds
        assert loose.holds is False
        assert loose.rhs == [1, 4, 6, -28, 1]

    def test_cliques_of_at_most_three_vertices_share_one_verdict(self, monkeypatch):
        """On a graph above the subset table's gate whose cliques of 2 to 4
        vertices clique_deletion has decided, the edge-subsets reading of
        each clique of at most three vertices is the verdict already kept,
        the same object, with no row built (_expansion_verdict) and nothing
        counted (_poly_of); each 4-clique alone reaches the row."""
        g = random_gnp(16, 0.7, RngSpec(4))
        cliques = CHECKS["clique_deletion"].params(g, None)
        decided = {q: CHECKS["clique_deletion"].check(g, q) for q in cliques}
        assert {q.bit_count() for q in cliques} == {2, 3, 4}
        edge_subsets = CHECKS["clique_deletion_edge_subsets"].check
        with monkeypatch.context() as patched:
            forbid_calls(patched, cliquekit.identities, "_expansion_verdict")
            forbid_calls(patched, cliquekit.cliques, "_poly_of")
            for q in cliques:
                if q.bit_count() <= 3:
                    assert edge_subsets(g, q) is decided[q], q
        rows = record_calls(monkeypatch, cliquekit.identities, "_expansion_verdict",
                            lambda g, q, family: q)
        for q in cliques:
            if q.bit_count() == 4:
                edge_subsets(g, q)
        assert rows == [q for q in cliques if q.bit_count() == 4]

    def test_rejects_non_clique_edge_set(self):
        with pytest.raises(ValueError, match="complete"):
            clique_deletion_expansion(path_graph(3), [(0, 1), (1, 2)])

    def test_rejects_missing_edge(self):
        with pytest.raises(ValueError, match="not an edge"):
            clique_deletion_expansion(path_graph(3), [(0, 1), (1, 2), (0, 2)])

    def test_rejects_out_of_range_vertices(self):
        with pytest.raises(ValueError, match="out of range"):
            clique_deletion_expansion(complete_graph(3), [(9, 10)])

    def test_rejects_unknown_interpretation(self):
        with pytest.raises(ValueError, match="interpretation"):
            clique_deletion_expansion(complete_graph(3), [(0, 1)], "mystery")

    @given(graphs(min_n=3, max_n=7))
    @settings(max_examples=80)
    def test_strict_reading_always_holds(self, g):
        cat = enumerate_cliques(g, k_max=4)
        for size in (2, 3, 4):
            for q in cat.cliques(size)[:3]:
                m = list(itertools.combinations(q, 2))
                assert clique_deletion_expansion(g, m, "cliques").holds


def catalog_report(name, g, q):
    """The report the catalog renders for the instance of check name on g
    whose vertex ids are q, parsed into its mask as a verify flag is."""
    cd = CHECKS[name]
    q = cd.parse(g, q)
    return cd.render(g, q, cd.check(g, q))


def greedy_clique(g, size):
    """A clique of size vertices grown one vertex at a time, each the
    candidate with the most neighbours among the candidates (ties to the
    highest), sorted; None where the growth runs out of candidates first."""
    q, cand = [], (1 << g.n) - 1
    while len(q) < size:
        if not cand:
            return None
        v = max(bits(cand), key=lambda w: ((g.adj[w] & cand).bit_count(), w))
        q.append(v)
        cand &= g.adj[v]
    return tuple(sorted(q))


def verdict_multisets(g):
    """For each catalog check, the multiset of the verdicts of the instances
    it lists on g (None where one does not apply), each side as a tuple."""
    def multiset(cd):
        instances = list(cd.params(g, None))
        verdicts = [tuple(tuple(side) if isinstance(side, list) else side for side in verdict)
                    for _, verdict in cd.verdicts(g, instances)]
        return Counter(verdicts + [None] * (len(instances) - len(verdicts)))

    return {name: multiset(cd) for name, cd in CHECKS.items()}


def sweep_relabelled_verdicts(count: int) -> None:
    """Check that every catalog check gives the same multiset of verdicts
    on count seeded G(n, p), n drawn from 4..16 and p from 0.2..0.9, as on
    one seeded relabelling of each.  The subset table leaves out the top
    vertex, a split keeps the highest vertex of its clique and the one
    pass over a graph's small cliques builds each from its prefix, so a
    relabelled copy reads other masks.  Relabelling is no independent
    reference: it catches faults that depend on vertex order.  Sixty graphs
    take about 1 s and run with the tests; CI runs 300 as

        PYTHONPATH=src:tests python -c "import test_identities as t; t.sweep_relabelled_verdicts(300)"
    """
    for seed in range(1, count + 1):
        draw = random.Random(seed)
        n = draw.randint(4, 16)
        g = random_gnp(n, round(draw.uniform(0.2, 0.9), 3), RngSpec(seed))
        h = relabelled(g, draw.sample(range(n), n))
        assert verdict_multisets(g) == verdict_multisets(h), to_graph6(g)


def test_relabelled_graphs_give_the_same_verdicts():
    sweep_relabelled_verdicts(60)


class TestSharedDeletionRhs:
    """edge_recurrence, triangle_identity and clique_deletion read one right
    side per clique, kept in the graph's expansion context."""

    def test_matches_an_independent_reference(self, corpus):
        cases = [(2, "edge_recurrence"), (2, "clique_deletion"), (3, "triangle_identity"),
                 (3, "clique_deletion"), (4, "clique_deletion")]
        for g in corpus:
            warm = Graph(g.n, g.adj)
            for cd in CHECKS.values():
                cd.run(warm, None)
            for size, name in cases:
                for q in naive_cliques_of_size(g, size):
                    report = catalog_report(name, Graph(g.n, g.adj), q)
                    assert report.rhs == reference_deletion_rhs(g, q) and report.holds
                    assert catalog_report(name, warm, q) == report

    @pytest.mark.parametrize("n, p, seed", [(21, 0.6, 1), (24, 0.5, 2), (27, 0.4, 3),
                                            (30, 0.35, 4), (24, 0.8, 5)])
    def test_matches_networkx_above_the_exhaustive_cap(self, n, p, seed):
        """Sampled cliques of 2 to 4 vertices of G(21..30, p), and the greedy
        cliques of 5 to 8 vertices where greedy growth reaches them (all
        four on G(24, 0.8), whose clique number is 9), each decided on a
        fresh Graph and on one where every theorem check has run first, in
        campaign order, so the verdict reads counts that other checks made.
        A clique of 5 to 8 vertices is past the clique kind's sizes, so its
        right side is built in a row."""
        g = random_gnp(n, p, RngSpec(seed))
        warm = Graph(g.n, g.adj)
        for name in ALL_THEOREMS:
            CHECKS[name].first_failure(warm, None)
        sample = random.Random(seed)
        asked = []
        for size in (2, 3, 4):
            cliques = naive_cliques_of_size(g, size)
            assert cliques
            asked += sample.sample(cliques, min(3, len(cliques)))
        large = [q for size in range(5, 9) if (q := greedy_clique(g, size))]
        assert len(large) == 4 or p < 0.8
        for q in asked + large:
            report = catalog_report("clique_deletion", Graph(g.n, g.adj), q)
            assert report.rhs == reference_deletion_rhs(g, q, networkx_counts)
            assert report.holds
            assert catalog_report("clique_deletion", warm, q) == report

    def test_a_clique_of_fewer_than_two_vertices_deletes_nothing(self):
        g = complete_graph(5)
        assert clique_deletion_expansion(g, []).holds
        assert catalog_report("clique_deletion", g, (3,)).holds
        counting = g.memo.cliques
        full = counting.read((1 << g.n) - 1)
        assert counting.splits[0] == counting.splits[1 << 3] == full

    def test_public_functions_report_as_the_catalog(self, corpus):
        for g in corpus:
            for q in naive_cliques_of_size(g, 3):
                assert triangle_identity(g, q)[0] == catalog_report("triangle_identity", g, q)
            for size in (2, 3, 4):
                for q in naive_cliques_of_size(g, size):
                    edges = list(itertools.combinations(q, 2))
                    for interpretation, name in (("cliques", "clique_deletion"),
                                                 ("edge-subsets", "clique_deletion_edge_subsets")):
                        assert clique_deletion_expansion(g, edges, interpretation) \
                            == catalog_report(name, Graph(g.n, g.adj), q)


def every_verdict(g):
    """{(check, instance): verdict} over every catalog check and every
    instance it lists on g that applies."""
    return {(name, p): verdict for name, cd in CHECKS.items()
            for p, verdict in cd.verdicts(g, cd.params(g, None))}


def with_counts_of(g, h):
    """A fresh copy of g whose counting state reads every mask of g's rows
    as h's reader does: from h's subset table inside the gate, or with
    the kernel over h's rows above it."""
    wrong = Graph(g.n, g.adj)
    cliquekit.cliques._counting(wrong).read = cliquekit.cliques._Counting(h).read
    return wrong


def dense_twelve_vertex_graphs():
    n = cliquekit.cliques._SUBSET_TABLE_MAX_N
    matching = Graph.from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                    if not (u % 2 == 0 and v == u + 1)])
    seeded = [random_gnp(n, p, RngSpec(seed)) for seed, p in enumerate((0.8, 0.85, 0.9, 0.95))]
    return [complete_graph(n), matching, *seeded]


def assert_packed_matches_the_row(g, cliques):
    """Ask g for the clique-deletion verdict of each of cliques, masks, in
    order, and check each against the one _expansion_verdict builds in a row
    on g; returns the verdicts, some of which must fail."""
    cd = CHECKS["clique_deletion"]
    verdicts = [cd.check(g, q) for q in cliques]
    assert not all(holds for holds, _, _ in verdicts)
    row = cliquekit.identities._expansion_verdict
    assert [row(g, q, subset_masks(q)) for q in cliques] == verdicts
    return verdicts


class TestPackedVerdicts:
    """Every graph decides its verdicts from packed counts.  Inside the
    subset table's gate they are read from the table; with the gate at 0
    every count comes from the kernel through the graph's reader, an
    independent path to the same verdicts."""

    def test_every_verdict_matches_the_kernel_path(self, corpus, monkeypatch):
        graphs = [g for g in corpus if g.n <= cliquekit.cliques._SUBSET_TABLE_MAX_N]
        graphs += dense_twelve_vertex_graphs()
        packed = [every_verdict(Graph(g.n, g.adj)) for g in graphs]
        monkeypatch.setattr(cliquekit.cliques, "_SUBSET_TABLE_MAX_N", 0)
        for g, verdicts in zip(graphs, packed):
            fresh = Graph(g.n, g.adj)
            assert every_verdict(fresh) == verdicts, g.adj
            assert fresh.n == 0 or fresh.memo.cliques.subset is None

    def test_cliques_past_the_weight_bound_match_the_kernel_path(self, monkeypatch):
        """Cliques of 5 to 12 vertices of K12; those past the clique kind's
        sizes, 2 to 4 vertices, build their right side in a row, so every
        one of them reaches _expansion_verdict, on the table path and on
        the kernel path."""
        n = cliquekit.cliques._SUBSET_TABLE_MAX_N
        cliques = [tuple(range(size)) for size in range(5, n + 1)]
        sizes = record_calls(monkeypatch, cliquekit.identities, "_expansion_verdict",
                             lambda g, q, family: q.bit_count())

        def reports():
            g = complete_graph(n)
            return [clique_deletion_expansion(g, list(itertools.combinations(q, 2)))
                    for q in cliques]

        packed = reports()
        assert all(report.holds for report in packed)
        assert packed[-1].lhs == [comb(n, k) for k in range(n + 1)]
        assert sizes == list(range(5, n + 1))
        monkeypatch.setattr(cliquekit.cliques, "_SUBSET_TABLE_MAX_N", 0)
        sizes.clear()
        assert reports() == packed
        assert sizes == list(range(5, n + 1))

    def test_a_wrong_table_fails_alike_on_both_paths(self, monkeypatch):
        """With the counts of G - e in place of G's, read from G - e's
        subset table or, with the gate at 0, by the kernel over G - e's
        rows, the expansion fails on some cliques, and each verdict,
        decided from packed sums, equals the one whose right side
        _expansion_verdict builds in a row from the same counts: a packed
        sum that says "holds" where the sides differ shows here."""
        g = random_gnp(9, 0.7, RngSpec(9))
        h = delete_edge(g, g.edges()[0])
        cd = CHECKS["clique_deletion"]
        for gate in (cliquekit.cliques._SUBSET_TABLE_MAX_N, 0):
            monkeypatch.setattr(cliquekit.cliques, "_SUBSET_TABLE_MAX_N", gate)
            assert_packed_matches_the_row(with_counts_of(g, h), cd.params(g, None))

    def test_wrong_counts_fail_cliques_of_5_and_6_vertices_alike_on_both_paths(self, monkeypatch):
        """With every count of G read as G - e's, from G - e's subset table
        or, with the gate at 0, by the kernel over G - e's rows, the
        expansion holds on some cliques of 5 and of 6 vertices and fails on
        others.  Asked in campaign order, smallest first, the cliques of 2
        to 4 vertices are decided packed and those of 5 and 6 in a row;
        every verdict equals the one whose right side _expansion_verdict
        builds in a row from the same counts, on both paths alike."""
        g = random_gnp(10, 0.8, RngSpec(2))
        h = delete_edge(g, g.edges()[0])
        cliques = [q for size in range(2, 7) for q in naive_cliques_of_size(g, size)]
        for gate in (cliquekit.cliques._SUBSET_TABLE_MAX_N, 0):
            monkeypatch.setattr(cliquekit.cliques, "_SUBSET_TABLE_MAX_N", gate)
            wrong = with_counts_of(g, h)
            verdicts = assert_packed_matches_the_row(wrong, list(map(mask_of, cliques)))
            assert {(len(q), verdict[0]) for q, verdict in zip(cliques, verdicts) if len(q) > 4} \
                == {(5, True), (5, False), (6, True), (6, False)}
            assert (wrong.memo.cliques.subset is None) == (gate == 0)

    @staticmethod
    def row_built(g, name, p):
        """The verdict of instance p of the vertex recurrence or a derivative
        formula on g with its right side built in a row, as the report
        shows it: the counts of masks listed here (a derivative's r-cliques
        by naive listing) summed by _Counting.add, one mask set at a time,
        the row trimmed and kept as a tuple."""
        counting = cliquekit.cliques._counting(g)
        read, add = counting.read, counting.add
        lhs = clique_polynomial(g)
        if name == "vertex_recurrence":
            rhs = add([read(g.adj[p])], 1, 1, add([read(((1 << g.n) - 1) ^ 1 << p)]))
        else:
            r = {"first_derivative": 1, "second_derivative": 2,
                 "third_derivative_k5free": 3}.get(name, p)
            lhs = poly_divided_derivative(lhs, r)
            rhs = add(read(common_neighborhood_bits(g, q)) for q in naive_cliques_of_size(g, r))
        rhs = poly_normalize(rhs)
        return lhs == rhs, lhs, tuple(rhs)

    def test_a_wrong_table_fails_the_vertex_recurrence_and_the_derivatives(self):
        """With the subset table of G - e in place of G's, C(G) reads as
        C(G - e) while N(u) and N(v) keep e's other endpoint, so the vertex
        recurrence fails at e's two endpoints and nowhere else, and every
        derivative formula fails.  Each verdict, decided by comparing packed
        integers, equals the one whose right side is built in a row from the
        same table, and every vertex that holds returns the graph's one held
        verdict."""
        g = random_gnp(10, 0.5, RngSpec(5))
        e = g.edges()[0]
        wrong = with_counts_of(g, delete_edge(g, e))
        failing = {}
        held = set()
        for name in ("vertex_recurrence", "first_derivative", "second_derivative",
                     "third_derivative_k5free", "kth_derivative"):
            cd = CHECKS[name]
            for p in cd.params(wrong, None):
                verdict = cd.check(wrong, p)
                assert verdict == self.row_built(wrong, name, p), (name, p)
                if not verdict[0]:
                    failing.setdefault(name, []).append(p)
                elif name == "vertex_recurrence":
                    held.add(id(verdict))
        assert failing == {"vertex_recurrence": list(e), "first_derivative": [None],
                           "second_derivative": [None], "third_derivative_k5free": [None],
                           "kth_derivative": [1, 2, 3, 4]}
        assert held == {id(wrong.memo.identities.held)}

    def test_the_carry_guard_builds_the_row(self, monkeypatch):
        """K13's second derivative sums the neighbourhoods of its 78 edges,
        more than _PACKED_UNITS (70) counts, so its right side is built in a
        row; the report equals the one decided packed with the bound raised
        to 78 (K13's sum stays under its 17-bit lane).  A left side with a
        coefficient past the lane would carry when packed: C(G) planted with
        c_1 raised by 2 << lane and c_2 lowered by 1 packs its first
        derivative to the right side's integer, so only the guard keeps the
        verdict from holding, and it equals the row-built one."""
        rows = record_calls(monkeypatch, cliquekit.cliques._Counting, "add",
                            lambda counting, *args: len(counting.adj), caller=True)
        report = check_second_derivative(complete_graph(13))
        assert rows == [("_derivative_verdict", 13)] and report.holds
        assert report.lhs == report.rhs == [comb(13, 2) * comb(11, j) for j in range(12)]
        with monkeypatch.context() as raised:
            raised.setattr(cliquekit.identities, "_PACKED_UNITS", comb(13, 2))
            assert check_second_derivative(complete_graph(13)) == report
        assert rows == [("_derivative_verdict", 13)]

        g = random_gnp(10, 0.5, RngSpec(5))
        c1, c2, *rest = clique_counts(g)
        planted = Graph(g.n, g.adj)
        counting = cliquekit.cliques._counting(planted)
        lane = counting.lane
        counting.counts = (c1 + (2 << lane), c2 - 1, *rest)
        lhs = poly_divided_derivative(clique_polynomial(planted), 1)
        assert sum(c << lane * j for j, c in enumerate(lhs)) == sum(map(counting.read, g.adj))
        verdict = CHECKS["first_derivative"].check(planted, None)
        assert rows[1:] == [("_derivative_verdict", 10)]
        assert verdict[0] is False and verdict[1] == lhs
        assert verdict == self.row_built(planted, "first_derivative", None)

    def test_the_weight_bounds_cannot_carry(self):
        """A sum of _PACKED_UNITS packed counts of a graph on n vertices
        stays under 2**_lane(n) in every coefficient, for every n up to 64,
        and _lane(n) is the bit length of that widest sum: the subset table
        of a graph inside the gate packs at it too.  The one
        encoder, _pack, and the one decoder, _Counting.unpack, carry such a
        sum, _PACKED_UNITS (1 + x)**n at its widest, there and back, and a
        coefficient of 2**lane packs to None."""
        units = cliquekit.cliques._PACKED_UNITS
        lane = cliquekit.cliques._lane
        pack = cliquekit.cliques._pack
        for n in range(MAX_VERTICES + 1):
            assert lane(n) == (units * comb(n, n // 2)).bit_length(), n
            row = [units * comb(n, k) for k in range(n + 1)]
            counting = cliquekit.cliques._counting(empty_graph(n))
            assert counting.unpack(pack(row, lane(n))) == tuple(row[1:]), n
            assert pack([1 << lane(n), *row[1:]], lane(n)) is None
            assert pack([*row, 1 << lane(n)], lane(n)) is None
        assert (units, lane(0), lane(1), lane(12), lane(13), lane(MAX_VERTICES)) \
            == (70, 7, 7, 16, 17, 67)

    def test_the_clique_kinds_sizes_sum_within_the_carry_bound(self):
        """_deletion_verdict decides packed exactly the clique kind's sizes,
        whose expansion sums, each count taken |coefficient| times,
        1 + sum over odd r of (r - 1) C(s, r) counts on the left and
        1 + sum over even r >= 2 of (r - 1) C(s, r) on the right: 9 and 10
        at the largest, s = 4, within _PACKED_UNITS, so neither packed sum
        carries."""
        sizes = cliquekit.identities._CLIQUE_SIZES
        s = max(sizes)
        sides = tuple(1 + sum((r - 1) * comb(s, r) for r in range(2, s + 1) if r % 2 == parity)
                      for parity in (1, 0))
        assert (sizes, sides) == ((2, 3, 4), (9, 10))
        assert max(sides) <= cliquekit.cliques._PACKED_UNITS

    @pytest.mark.parametrize("n", [13, 20, MAX_VERTICES])
    def test_complete_graphs_above_the_gate_match_closed_forms(self, n):
        """On K_n, with q = |Q| and s = |S|, C(K_n) = (1 + x)**n,
        C(K_n - E(Q)) = (1 + x)**(n - q) (1 + qx) and
        C(K_n[N(S)]) = (1 + x)**(n - s).  The packed reads of every term of
        the expansion of a clique of 2 to 6 vertices, and its verdict as
        the catalog decides it and as _expansion_verdict builds it in a
        row, match these.  K64's
        coefficients reach C(64, 32) > 2**60, so a lane too narrow for them
        garbles every unpacked side."""
        cd = CHECKS["clique_deletion"]

        def binomial(m):
            return [comb(m, k) for k in range(m + 1)]

        g = complete_graph(n)
        counting = cliquekit.cliques._counting(g)
        read, unpack = counting.read, counting.unpack
        for q in range(2, 7):
            clique = tuple(range(n - q, n))
            without = sum(1 << v for v in clique)
            deleted = counting.split(without)
            expected = [1, *(comb(n - q, k) + q * comb(n - q, k - 1) for k in range(1, n - q + 2))]
            assert [1, *unpack(deleted)] == expected
            rhs = list(expected)
            for r in range(2, q + 1):
                for subset in itertools.combinations(clique, r):
                    common = sum(1 << v for v in range(n) if v not in subset)
                    assert [1, *unpack(read(common))] == binomial(n - r)
                rhs = poly_add(rhs, [0] * r + [(-1) ** r * (r - 1) * comb(q, r) * c
                                               for c in binomial(n - r)])
            assert rhs == binomial(n)
            assert cd.check(Graph(n, g.adj), without) == (True, rhs, tuple(rhs))
            assert cliquekit.identities._expansion_verdict(
                Graph(n, g.adj), without, subset_masks(without)) == (True, rhs, tuple(rhs))


class TestTriangleIdentity:
    def test_k4_reproduces_binomial(self):
        report, parts = triangle_identity(complete_graph(4), (0, 1, 2))
        assert report.lhs == [1, 4, 6, 4, 1]
        assert report.holds
        assert parts.edge_neighborhood_sum == [3, 6, 3]
        assert parts.triangle_neighborhood == [1, 1]

    def test_isolated_triangle(self):
        report, parts = triangle_identity(complete_graph(3), (0, 1, 2))
        assert report.holds
        assert parts.edge_neighborhood_sum == [3, 3]
        assert parts.triangle_neighborhood == [1]

    def test_diamond_both_triangles(self):
        for d in triangles(DIAMOND):
            report, _ = triangle_identity(DIAMOND, d)
            assert report.holds

    def test_rejects_non_triangle(self):
        with pytest.raises(ValueError, match="triangle"):
            triangle_identity(cycle_graph(5), (0, 1, 2))

    def test_holds_for_every_triangle_on_corpus(self, corpus):
        for g in corpus:
            for d in triangles(g):
                assert triangle_identity(g, d)[0].holds


class TestTriangleRecurrence:
    def test_isolated_triangle_fails(self):
        r = check_triangle_recurrence(complete_graph(3), (0, 1, 2))
        assert r.lhs == [1, 3, 3, 1]
        assert r.rhs == [1, 3, 0, 1]
        assert r.holds is False

    def test_k4_report(self):
        r = check_triangle_recurrence(complete_graph(4), (0, 1, 2))
        assert r.lhs == [1, 4, 6, 4, 1]
        assert r.rhs == [1, 4, 3, 1, 1]
        assert r.holds is False

    def test_equivalent_condition_is_recorded_verbatim(self):
        r = check_triangle_recurrence(complete_graph(4), (0, 1, 2))
        assert r.params["edge_neighborhood_sum"] == [3, 6, 3]
        assert r.params["triangle_neighborhood_times_3x"] == [0, 3, 3]
        # constant terms can never match; recorded, not repaired
        assert r.params["equivalent_condition_holds"] is False


class TestTriangleDeletionCounts:
    def test_k4(self):
        r = triangle_deletion_counts(complete_graph(4), (0, 1, 2))
        assert r.formula == (4, 3, 0, 0)
        assert r.direct == (4, 3, 0, 0)
        assert r.matches

    def test_isolated_triangle(self):
        r = triangle_deletion_counts(complete_graph(3), (0, 1, 2))
        assert r.formula == (3, 0, 0, 0) and r.matches

    def test_diamond_shared_edge(self):
        r = triangle_deletion_counts(DIAMOND, (0, 2, 3))
        assert r.formula == (4, 2, 0, 0) and r.matches

    def test_rejects_k5(self):
        with pytest.raises(ValueError, match="5-clique"):
            triangle_deletion_counts(complete_graph(5), (0, 1, 2))

    def test_rejects_non_triangle(self):
        with pytest.raises(ValueError, match="triangle"):
            triangle_deletion_counts(star_graph(4), (0, 1, 2))

    @staticmethod
    def reference(g, d):
        """(formula, direct), the formula evaluated term by term: every count
        of G by clique_count, every neighbourhood by common_neighborhood_bits,
        c_2 of G[N(e)] by listing its edges, and the direct side by an oracle
        on the rebuilt graph."""
        pairs = list(itertools.combinations(d, 2))
        val_edges = [common_neighborhood_bits(g, pair).bit_count() for pair in pairs]
        c2_edge_nbhd = [
            len(naive_cliques_of_size(
                induced_subgraph(g, bits(common_neighborhood_bits(g, pair))), 2))
            for pair in pairs
        ]
        val_delta = common_neighborhood_bits(g, d).bit_count()
        formula = (
            clique_count(g, 1),
            clique_count(g, 2) - 3,
            clique_count(g, 3) - sum(val_edges) + 2,
            clique_count(g, 4) - sum(c2_edge_nbhd) + 2 * val_delta,
        )
        direct = (*oracle_counts(delete_edge_set(g, pairs)), 0, 0, 0, 0)[:4]
        return formula, direct

    def assert_matches_reference(self, g):
        if len(clique_counts(g)) >= 5:
            return 0
        for d in triangles(g):
            r = triangle_deletion_counts(Graph(g.n, g.adj), d)
            assert (r.formula, r.direct) == self.reference(g, d), (g.adj, d)
        return len(triangles(g))

    def test_corpus_matches_the_reference_formula(self, corpus):
        assert sum(self.assert_matches_reference(g) for g in corpus) > 0

    @pytest.mark.parametrize("n, p", [(12, 0.5), (14, 0.4), (17, 0.2)])
    def test_seeded_gnp_matches_the_reference_formula(self, n, p):
        assert self.assert_matches_reference(random_gnp(n, p, RngSpec(n)))

    @pytest.mark.parametrize("n, p", [(12, 0.5), (17, 0.2)])
    def test_a_wrong_formula_unpacks_the_split(self, n, p, monkeypatch):
        """The formula is compared with C(G - E(d)) packed, and the split is
        unpacked only where they differ.  Counts of G planted wrong make each
        formula wrong: c_3 raised by 1, c_2 lowered to 2 (a negative
        coefficient, which packs to None), and c_1 raised by 2**lane with c_2
        lowered by 1, which without the guard of _pack would pack to the
        split's own integer.  Each verdict fails with the true direct side."""
        g = random_gnp(n, p, RngSpec(n))
        d = triangles(g)[0]
        counts = (*clique_counts(g), 0, 0)[:4]
        right = triangle_deletion_counts(g, d)
        assert right.matches
        lane = cliquekit.cliques._counting(g).lane
        unpacked = record_calls(monkeypatch, cliquekit.cliques._Counting, "unpack")
        c1, c2, c3, c4 = counts
        for planted in [(c1, c2, c3 + 1, c4), (c1, 2, c3, c4), (c1 + (1 << lane), c2 - 1, c3, c4)]:
            wrong = Graph(g.n, g.adj)
            cliquekit.cliques._counting(wrong).counts = planted
            r = triangle_deletion_counts(wrong, d)
            assert not r.matches and r.direct == right.direct
            assert r.formula == tuple(f + a - b for f, a, b in zip(right.formula, planted, counts))
        assert len(unpacked) == 3

    def test_matches_direct_enumeration_on_corpus(self, corpus):
        for g in corpus:
            if enumerate_cliques(g).omega > 4:
                continue
            for d in triangles(g):
                assert triangle_deletion_counts(g, d).matches


class TestReportShape:
    def test_json_dict_schema(self):
        r = check_vertex_recurrence(complete_graph(3), 1)
        d = r.to_json_dict()
        assert set(d) == {"identity", "graph6", "params", "lhs", "rhs", "holds"}
        assert d["graph6"] == "Bw"
        assert d["params"] == {"v": 1}
        assert parse_graph6(d["graph6"]) == complete_graph(3)

    def test_holds_reflects_exact_equality(self, corpus):
        for g in corpus[:20]:
            for d in triangles(g):
                r = check_triangle_recurrence(g, d)
                assert r.holds == poly_equal(r.lhs, r.rhs)


# the public function of each instance kind; the clique kind's is the
# expansion, given the clique's edge set
KIND_PUBLIC = {
    "k": check_handshake,
    "v": check_vertex_recurrence,
    "e": check_edge_recurrence,
    "delta": triangle_identity,
    "clique": lambda g, q: clique_deletion_expansion(g, itertools.combinations(q, 2)),
}


@pytest.mark.parametrize("param, raw", [
    ("k", 2.0), ("k", True),
    ("v", 1.0), ("v", True),
    ("e", (0, 1.0)), ("e", (True, 2)),
    ("delta", (0, 1, 2.0)), ("delta", (True, 2, 3)),
    ("clique", (0, 1.0)), ("clique", (True, 2)),
])
def test_every_kind_rejects_ids_that_are_not_ints(param, raw):
    """A float or a bool id (or k) is refused where it enters, by the kind's
    parser, with a ValueError: by the public function and by the parser of
    every catalog check of the kind, which verify uses."""
    g = complete_graph(5)
    with pytest.raises(ValueError, match="must be an integer"):
        KIND_PUBLIC[param](g, raw)
    entries = [cd for cd in CHECKS.values() if cd.param == param]
    assert entries
    for cd in entries:
        with pytest.raises(ValueError, match="must be an integer"):
            cd.parse(g, raw)


# every public function the catalog declares: the ones with a CheckDef as .entry
PUBLIC_IDENTITIES = [fn for name, fn in vars(cliquekit.identities).items()
                     if not name.startswith("_") and hasattr(fn, "entry")]


@pytest.mark.parametrize("fn", PUBLIC_IDENTITIES, ids=lambda fn: fn.__name__)
def test_public_identities_report_their_own_signature(fn):
    """inspect.signature describes the function as it is called: the graph
    and the instance, if any, positional-only, and no Verdict returned."""
    sig = inspect.signature(fn)
    assert [p.name for p in sig.parameters.values()][:1] == ["g"]
    assert len(sig.parameters) == (1 if fn.entry.param is None else 2)
    assert all(p.kind is p.POSITIONAL_ONLY for p in sig.parameters.values())
    assert sig.return_annotation is sig.empty
    assert not hasattr(fn, "__wrapped__")
    assert fn.__doc__ and fn.__module__ == "cliquekit.identities"
    instance = {} if fn.entry.param is None else {"k": 1}
    with pytest.raises(TypeError):
        fn(g=complete_graph(3), **instance)


def test_every_catalog_entry_with_a_public_name_is_tested():
    assert len(PUBLIC_IDENTITIES) == 15
    assert {fn.entry.name for fn in PUBLIC_IDENTITIES} <= set(CHECKS)
