"""Every labeled graph on a few vertices, checked exhaustively.

Random campaigns cannot say that a theorem holds on every small graph, or
which graph is the smallest on which a conjecture fails; a sweep over all
of them can.  Graphs this small never reach the counting
kernel in a campaign (they are counted from their subset table), so this
is also where the subset table, the kernel and the brute-force oracle meet
on every vertex mask.

The theorem sweep, the clique-deletion verdict sweep (every clique asked
largest first, then smallest first on a fresh graph, under the 'cliques'
reading, and once more on a third fresh graph under the 'edge-subsets'
reading, against its own brute-force evaluation) and the deck sweep (every
r-deck, r = 1..n) over at most 6 vertices (33 867 graphs) are too slow for
the default test run; CI runs them as

    PYTHONPATH=src:tests python -c "import test_exhaustive as t; t.sweep_theorems(n_max=6)"
    PYTHONPATH=src:tests python -c "import test_exhaustive as t; t.sweep_deletion_verdicts(n_max=6)"
    PYTHONPATH=src:tests python -c "import test_exhaustive as t; t.sweep_decks(n_max=6)"
"""

import itertools
import json
from math import comb

import pytest

import cliquekit.cliques
import cliquekit.identities
from cliquekit import (
    ALL_THEOREMS,
    CHECKS,
    Graph,
    RngSpec,
    bits,
    brute_force_counts,
    clique_counts_in,
    induced_subgraph,
    parse_graph6,
    random_gnp,
    to_graph6,
)
from cliquekit.cli import main

from _helpers import (
    all_labelled_graphs, mask_of, naive_cliques_of_size, naive_common_neighbors,
    reference_deck, reference_deletion_rhs,
)

# The first labeled graph of at most 5 vertices, in sweep order, on which
# each conjecture that fails there fails.
SMALLEST_COUNTEREXAMPLES = {
    "conjecture1_second": "A?",
    "triangle_recurrence": "Bw",
    "conjecture3": "Bw",
    "triangle_deck": "C}",
    "clique_deletion_edge_subsets": "C~",
}


def sweep_theorems(n_max: int) -> int:
    """Check every theorem on every labeled graph of 1..n_max vertices and
    return how many graphs were checked.  Every check runs on the graph
    first, so each theorem's second run reads one memo that all checks
    filled; an AssertionError names the first failing graph and theorem."""
    checked = 0
    for n in range(1, n_max + 1):
        for g in all_labelled_graphs(n):
            for cd in CHECKS.values():
                cd.first_failure(g, None)
            for name in ALL_THEOREMS:
                _, failure = CHECKS[name].first_failure(g, None)
                assert failure is None, (to_graph6(g), name, failure)
            checked += 1
    return checked


def sweep_decks(n_max: int) -> int:
    """Check the r-deck of every labeled graph of 1..n_max vertices, for each
    r from 1 to n, against its members rebuilt by deletion and counted by
    brute force (reference_deck), and return how many (graph, r) pairs were
    checked."""
    checked = 0
    for n in range(1, n_max + 1):
        for g in all_labelled_graphs(n):
            for r in range(1, n + 1):
                assert cliquekit.identities._deck(g, r) == reference_deck(g, r), (to_graph6(g), r)
                checked += 1
    return checked


def small_cliques(g: Graph) -> list[tuple[int, ...]]:
    """The cliques of 2 to 4 vertices of g, found by testing vertex sets."""
    return [q for size in (2, 3, 4) for q in naive_cliques_of_size(g, size)]


def assert_deletion_verdicts_match_the_oracle(g: Graph) -> int:
    """Ask g for the clique-deletion verdict of every clique of 2 to 4
    vertices, largest first, so that a clique's subsets have their terms
    read on demand (_Terms.__missing__), then ask a fresh copy of g
    smallest first, in campaign order, so that every subset's term is the
    own term an earlier verdict stored.  Check that each verdict equals the
    expansion evaluated from brute_force_counts of delete_edge_set(g, E(Q))
    and of each induced G[N(S)], that each expansion context keeps exactly
    the verdicts asked, and that the ascending one stored the cliques'
    terms in the order asked, none on demand.  Then ask a third fresh copy
    for the 'edge-subsets' reading's verdict of every such clique and check
    it against that reading evaluated the same way, over the vertex sets
    that Q's C(r, 2)-edge subsets span: on a clique of at most three
    vertices that verdict is the 'cliques' reading's, so this keeps it
    checked against a reference of its own.  Returns how many verdicts
    were checked, three per clique."""
    cliques = small_cliques(g)
    lhs = [1, *brute_force_counts(g)]
    expected, subsets_expected = {}, {}
    for q in cliques:
        rhs = reference_deletion_rhs(g, q)
        expected[q] = (lhs == rhs, lhs, tuple(rhs))
        rhs = reference_deletion_rhs(g, q, edge_subsets=True)
        subsets_expected[q] = (lhs == rhs, lhs, tuple(rhs))
    check = CHECKS["clique_deletion"].check
    ascending = Graph(g.n, g.adj)
    for h, order in ((g, reversed(cliques)), (ascending, cliques)):
        for q in order:
            assert check(h, mask_of(q)) == expected[q], (to_graph6(g), q, h is ascending)
        kept = h.memo.identities.deletions if cliques else {}
        assert sorted(kept) == sorted(map(mask_of, cliques)), to_graph6(g)
    if cliques:
        assert list(ascending.memo.identities) == list(map(mask_of, cliques)), to_graph6(g)
    check = CHECKS["clique_deletion_edge_subsets"].check
    fresh = Graph(g.n, g.adj)
    for q in cliques:
        assert check(fresh, mask_of(q)) == subsets_expected[q], (to_graph6(g), q)
    return 3 * len(cliques)


def sweep_deletion_verdicts(n_max: int) -> int:
    """Check the clique-deletion verdicts of every labeled graph of 1..n_max
    vertices against the oracle, largest clique first and then smallest
    first, and then the 'edge-subsets' reading's, and return how many
    verdicts were checked."""
    return sum(assert_deletion_verdicts_match_the_oracle(g)
               for n in range(1, n_max + 1) for g in all_labelled_graphs(n))


def test_every_theorem_holds_on_every_graph_of_at_most_5_vertices():
    assert sweep_theorems(n_max=5) == 1 + 2 + 8 + 64 + 1024


def test_every_deck_matches_the_oracle_on_every_graph_of_at_most_5_vertices():
    assert sweep_decks(n_max=5) == 1 + 2 * 2 + 8 * 3 + 64 * 4 + 1024 * 5


def test_smallest_counterexample_of_each_conjecture_is_pinned():
    """The first labeled graph of at most 5 vertices, in sweep order, on which
    each conjecture fails; the others hold on all 1 099 graphs.  A packed
    comparison that wrongly says "holds" moves a counterexample or hides it."""
    conjectures = [name for name, cd in CHECKS.items() if cd.kind == "conjecture"]
    first = {}
    for n in range(1, 6):
        for g in all_labelled_graphs(n):
            for name in conjectures:
                if name not in first and CHECKS[name].first_failure(g, None)[1] is not None:
                    first[name] = to_graph6(g)
    assert first == SMALLEST_COUNTEREXAMPLES
    assert set(conjectures) - set(first) == {"kth_derivative", "conjecture1_first", "conjecture2"}


CONJECTURES = ",".join(name for name, cd in CHECKS.items() if cd.kind == "conjecture")

# the conjecture campaigns with --shrink whose stdout is pinned: CI's, then
# the two of test_cli.py
PINNED_SHRINK_RUNS = [
    ("--n", "12..16", "--p", "0.3..0.7", "--count", "5", "--seed", "1", "--check", CONJECTURES),
    ("--check", "conjecture3,triangle_deck", "--n", "3..8", "--count", "200", "--seed", "7"),
    ("--n", "4..10", "--p", "0.3..0.8", "--count", "60", "--seed", "5", "--check", CONJECTURES),
]


def test_no_shrunk_counterexample_is_smaller_than_the_smallest(capsys):
    """Each pinned conjecture campaign with --shrink shrinks each
    counterexample to a graph with at least as many vertices as the
    smallest counterexample of its conjecture: a smaller one would be a
    graph on which the conjecture holds but was reported failing.  Today
    each shrinks to exactly that many."""
    smallest = {name: parse_graph6(g6).n for name, g6 in SMALLEST_COUNTEREXAMPLES.items()}
    for argv in PINNED_SHRINK_RUNS:
        assert main(["fuzz", *argv, "--shrink", "--json"]) == 0
        tallies = json.loads(capsys.readouterr().out)["checks"]
        shrunk = {}
        for name, tally in tallies.items():
            for ce in tally["counterexamples"]:
                n = parse_graph6(ce["shrunk"]["graph6"]).n
                assert n >= smallest[name], (argv, name, ce["graph6"], ce["shrunk"]["graph6"])
                shrunk.setdefault(name, set()).add(n)
        assert shrunk == {name: {n} for name, n in smallest.items() if name in tallies}, argv


def test_both_counting_paths_match_the_oracle_on_every_mask():
    """On every labeled graph of 1..5 vertices, each vertex mask's counts
    read from a fresh graph's subset table equal the kernel's and those of
    the induced subgraph counted by brute force."""
    masks = 0
    for n in range(1, 6):
        for g in all_labelled_graphs(n):
            counting = cliquekit.cliques._counting(g)
            for mask in range(1 << n):
                counts = counting.unpack(counting.read(mask))
                assert counts == clique_counts_in(g.adj, mask) \
                    == brute_force_counts(induced_subgraph(g, bits(mask))), (g.adj, mask)
                masks += 1
    assert masks == 2 * 1 + 4 * 2 + 8 * 8 + 16 * 64 + 32 * 1024


def test_one_pass_deletion_verdicts_match_the_oracle_on_every_graph_of_at_most_5_vertices():
    """On each of the 1 099 labeled graphs of at most 5 vertices, one pass
    asks the clique-deletion verdict of every clique of 2 to 4 vertices,
    largest first, one pass on a fresh graph asks them smallest first, as a
    campaign does, and one pass on a third asks the 'edge-subsets'
    reading's; each verdict equals its reading's expansion of brute-force
    counts of built subgraphs.  A k-set of vertices is a clique of
    2 ** (C(n, 2) - C(k, 2)) of the graphs on n, and is asked three times."""
    assert sweep_deletion_verdicts(n_max=5) == 3 * sum(
        comb(n, k) << comb(n, 2) - comb(k, 2) for n in range(1, 6) for k in (2, 3, 4) if k <= n)


@pytest.mark.parametrize("n", range(6, 13))
@pytest.mark.parametrize("p, seed", [(0.3, 1), (0.55, 2), (0.75, 3)])
def test_one_pass_deletion_verdicts_match_the_oracle_on_seeded_gnp(n, p, seed):
    assert assert_deletion_verdicts_match_the_oracle(random_gnp(n, p, RngSpec(seed))) > 0


@pytest.mark.parametrize("n, p, seed", [(8, 0.6, 1), (10, 0.75, 2), (12, 0.8, 3)])
def test_a_corrupted_subset_table_entry_fails_every_clique_it_reaches(n, p, seed):
    """Add 1 << lane, one clique of one vertex, to the subset-table entry of
    the common neighbourhood of g's first edge before any verdict.  Every
    clique whose expansion, evaluated term by term from the corrupted reads
    each unpacked on its own, no longer holds is affected.  Each clique is
    asked on its own, the first edge first: every affected clique is
    decided failing, and its report has that evaluation as its right side;
    every other clique holds."""
    g = random_gnp(n, p, RngSpec(seed))
    counting = cliquekit.cliques._counting(g)
    read = counting.read
    table = counting.subset
    top = len(table)
    u, v = g.edges()[0]
    entry = g.adj[u] & g.adj[v] & (top - 1)
    # C(G) reads neither entry, so the left side stays right
    assert entry not in (top - 1, g.adj[-1] & (top - 1))
    table[entry] += 1 << counting.lane
    full = (1 << g.n) - 1

    def unpacked(packed):
        return [1, *counting.unpack(packed)]

    lhs = unpacked(read(full))
    assert lhs == [1, *brute_force_counts(g)]
    expected = {}
    for q in small_cliques(g):
        rhs = unpacked(counting.split(mask_of(q)))
        rhs += [0] * (g.n + 1 - len(rhs))
        for r in range(2, len(q) + 1):
            for s in itertools.combinations(q, r):
                for j, c in enumerate(unpacked(read(mask_of(naive_common_neighbors(g, s)))), r):
                    rhs[j] += (-1) ** r * (r - 1) * c
        while not rhs[-1]:
            rhs.pop()
        expected[q] = rhs
    affected = {q for q, rhs in expected.items() if rhs != lhs}
    assert (u, v) in affected

    deletion = CHECKS["clique_deletion"]
    assert deletion.check(g, mask_of((u, v)))[0] is False
    for q, rhs in expected.items():
        verdict = deletion.check(g, mask_of(q))
        if q in affected:
            assert verdict[0] is False, q
            [report] = deletion.reports(g, None, [mask_of(q)])
            assert (report.holds, report.lhs, report.rhs) == (False, lhs, rhs), q
        else:
            assert verdict == (True, lhs, tuple(lhs)), q
