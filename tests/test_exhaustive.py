"""Every labeled graph on a few vertices, checked exhaustively.

Random campaigns cannot say that a theorem holds on every small graph, or
which graph is the smallest on which a conjecture fails; a sweep over all
of them can.  Graphs this small never reach the counting
kernel in a campaign (they are counted from their subset table), so this
is also where the subset table, the kernel and the brute-force oracle meet
on every vertex mask.

The theorem sweep over at most 6 vertices (33 867 graphs) is too slow for
the default test run; CI runs it as

    PYTHONPATH=src:tests python -c "import test_exhaustive as t; t.sweep_theorems(n_max=6)"
"""

import itertools
import json

import cliquekit.cliques
from cliquekit import (
    ALL_THEOREMS,
    CHECKS,
    Graph,
    bits,
    brute_force_counts,
    clique_counts_in,
    induced_subgraph,
    parse_graph6,
    to_graph6,
)
from cliquekit.cli import main

# The first labeled graph of at most 5 vertices, in sweep order, on which
# each conjecture that fails there fails.
SMALLEST_COUNTEREXAMPLES = {
    "conjecture1_second": "A?",
    "triangle_recurrence": "Bw",
    "conjecture3": "Bw",
    "triangle_deck": "C}",
    "clique_deletion_edge_subsets": "C~",
}


def labeled_graphs(n: int):
    """Every labeled graph on n vertices, one per set of vertex pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    for chosen in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pair for i, pair in enumerate(pairs) if chosen >> i & 1])


def sweep_theorems(n_max: int) -> int:
    """Check every theorem on every labeled graph of 1..n_max vertices and
    return how many graphs were checked.  Every check runs on the graph
    first, so each theorem's second run reads one memo that all checks
    filled; an AssertionError names the first failing graph and theorem."""
    checked = 0
    for n in range(1, n_max + 1):
        for g in labeled_graphs(n):
            for cd in CHECKS.values():
                cd.first_failure(g, None)
            for name in ALL_THEOREMS:
                _, failure = CHECKS[name].first_failure(g, None)
                assert failure is None, (to_graph6(g), name, failure)
            checked += 1
    return checked


def test_every_theorem_holds_on_every_graph_of_at_most_5_vertices():
    assert sweep_theorems(n_max=5) == 1 + 2 + 8 + 64 + 1024


def test_smallest_counterexample_of_each_conjecture_is_pinned():
    """The first labeled graph of at most 5 vertices, in sweep order, on which
    each conjecture fails; the others hold on all 1 099 graphs.  A packed
    comparison that wrongly says "holds" moves a counterexample or hides it."""
    conjectures = [name for name, cd in CHECKS.items() if cd.kind == "conjecture"]
    first = {}
    for n in range(1, 6):
        for g in labeled_graphs(n):
            for name in conjectures:
                if name not in first and CHECKS[name].first_failure(g, None)[1] is not None:
                    first[name] = to_graph6(g)
    assert first == SMALLEST_COUNTEREXAMPLES
    assert set(conjectures) - set(first) == {"kth_derivative", "conjecture1_first", "conjecture2"}


def test_no_shrunk_counterexample_is_smaller_than_the_smallest(capsys):
    """CI's conjecture campaign with --shrink (n = 12..16, every conjecture)
    shrinks each counterexample to a graph with at least as many vertices
    as the smallest counterexample of its conjecture: a smaller one would be
    a graph on which the conjecture holds but was reported failing.  Today
    each shrinks to exactly that many."""
    conjectures = [name for name, cd in CHECKS.items() if cd.kind == "conjecture"]
    argv = ["fuzz", "--n", "12..16", "--p", "0.3..0.7", "--count", "5", "--seed", "1",
            "--check", ",".join(conjectures), "--shrink", "--json"]
    assert main(argv) == 0
    tallies = json.loads(capsys.readouterr().out)["checks"]
    smallest = {name: parse_graph6(g6).n for name, g6 in SMALLEST_COUNTEREXAMPLES.items()}
    shrunk = {}
    for name, tally in tallies.items():
        for ce in tally["counterexamples"]:
            n = parse_graph6(ce["shrunk"]["graph6"]).n
            assert n >= smallest[name], (name, ce["graph6"], ce["shrunk"]["graph6"])
            shrunk.setdefault(name, set()).add(n)
    assert shrunk == {name: {n} for name, n in smallest.items()}


def test_both_counting_paths_match_the_oracle_on_every_mask():
    """On every labeled graph of 1..5 vertices, each vertex mask's counts
    read from a fresh graph's subset table equal the kernel's and those of
    the induced subgraph counted by brute force."""
    masks = 0
    for n in range(1, 6):
        for g in labeled_graphs(n):
            read = cliquekit.cliques._reader(g)
            for mask in range(1 << n):
                counts = cliquekit.cliques._unpack(read(mask), cliquekit.cliques._lane(g.n))
                assert counts == clique_counts_in(g.adj, mask) \
                    == brute_force_counts(induced_subgraph(g, bits(mask))), (g.adj, mask)
                masks += 1
    assert masks == 2 * 1 + 4 * 2 + 8 * 8 + 16 * 64 + 32 * 1024
