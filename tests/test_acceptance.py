"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (run with -s or -rP to see them all).
Criteria 1-6 share a fixed corpus: every labeled graph on up to 5 vertices
plus 300 seeded G(n, p) samples with n in [6, 12] and p in {0.2, 0.5, 0.8}.
"""

import itertools
import json
import subprocess
import sys
import time
from math import comb

import pytest

from cliquekit import (
    Graph,
    RngSpec,
    brute_force_counts,
    check_conjecture3,
    check_first_derivative,
    check_second_derivative,
    check_third_derivative_k5free,
    check_triangle_deck_identity,
    clique_counts,
    clique_polynomial,
    clique_value,
    complete_graph,
    delete_edge,
    delete_edge_set,
    delete_vertex,
    edge_deck_matrix,
    enumerate_cliques,
    parse_graph6,
    poly_divided_derivative,
    poly_sum,
    random_gnp,
    to_graph6,
    triangle_deletion_counts,
    triangle_graph,
    triangle_identity,
    triangles,
    vertex_deck_matrix,
)

from _helpers import subprocess_env


def _verdict(num: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def _exhaustive_small(max_n: int = 5):
    out = []
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            out.append(
                Graph.from_edges(
                    n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                )
            )
    return out


def _gnp_corpus(count: int = 300):
    ps = (0.2, 0.5, 0.8)
    return [
        random_gnp(6 + i % 7, ps[i % 3], RngSpec(31337 + i))
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def small_graphs():
    return _exhaustive_small()


@pytest.fixture(scope="module")
def gnp_graphs():
    return _gnp_corpus()


@pytest.fixture(scope="module")
def full_corpus(small_graphs, gnp_graphs):
    return small_graphs + gnp_graphs


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cliquekit", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=subprocess_env(),
    )


def test_criterion_1_oracle_equivalence(small_graphs, gnp_graphs):
    start = time.perf_counter()
    for g in small_graphs + gnp_graphs:
        assert clique_counts(g) == brute_force_counts(g), to_graph6(g)
    elapsed = time.perf_counter() - start
    ok = len(small_graphs) == 1 + 1 + 2 + 8 + 64 + 1024 and elapsed < 60
    _verdict(
        1, ok,
        f"enumerator equals subset oracle on {len(small_graphs)} exhaustive + "
        f"{len(gnp_graphs)} random graphs in {elapsed:.1f}s",
    )


def test_criterion_2_handshake(full_corpus):
    checked = 0
    for g in full_corpus:
        catalog = enumerate_cliques(g)
        for k in range(1, catalog.omega + 2):
            lhs = sum(clique_value(g, q) for q in catalog.cliques(k))
            assert lhs == (k + 1) * len(catalog.cliques(k + 1)), (to_graph6(g), k)
            checked += 1
    _verdict(2, checked > 0, f"clique-value handshake exact on {checked} (graph, k) pairs")


def test_criterion_3_deck_identities(full_corpus):
    pairs = 0
    for g in full_corpus:
        counts = clique_counts(g)
        omega = len(counts)
        vertex_decks = [clique_counts(delete_vertex(g, v)) for v in range(g.n)]
        edge_decks = [clique_counts(delete_edge(g, e)) for e in g.edges()]

        def deck_count(deck, k):
            return deck[k - 1] if k <= len(deck) else 0

        for k in range(1, omega + 1):
            assert (g.n - k) * counts[k - 1] == sum(
                deck_count(d, k) for d in vertex_decks
            )
            vm = vertex_deck_matrix(g, k)
            assert vm.total_by_rows() == vm.total_by_cols() == (g.n - k) * counts[k - 1]
            if k >= 2:
                assert (g.m - comb(k, 2)) * counts[k - 1] == sum(
                    deck_count(d, k) for d in edge_decks
                )
                em = edge_deck_matrix(g, k)
                assert em.total_by_rows() == em.total_by_cols() \
                    == (g.m - comb(k, 2)) * counts[k - 1]
            pairs += 1
    _verdict(
        3, pairs > 0,
        f"vertex/edge deck identities exact, arithmetically and as matrix "
        f"grand totals, on {pairs} (graph, k) pairs",
    )


def test_criterion_4_derivative_theorems(full_corpus):
    for g in full_corpus:
        assert check_first_derivative(g).holds, to_graph6(g)
        assert check_second_derivative(g).holds, to_graph6(g)
    k4_first = check_first_derivative(complete_graph(4))
    k4_second = check_second_derivative(complete_graph(4))
    spot = k4_first.lhs == [4, 12, 12, 4] and k4_second.lhs == [6, 12, 6]
    _verdict(
        4, spot,
        f"first/second derivative identities exact on {len(full_corpus)} graphs; "
        f"4-clique spot values 4(1+x)^3 and 6(1+x)^2 reproduced",
    )


def test_criterion_5_triangle_identity(full_corpus):
    checked = 0
    for g in full_corpus:
        for d in triangles(g):
            report, _ = triangle_identity(g, d)
            assert report.holds, (to_graph6(g), d)
            checked += 1
    k4_report, _ = triangle_identity(complete_graph(4), (0, 1, 2))
    ok = checked > 0 and k4_report.lhs == [1, 4, 6, 4, 1] and k4_report.holds
    _verdict(
        5, ok,
        f"triangle-deletion identity exact for {checked} (graph, triangle) pairs; "
        f"4-clique worked example gives (1+x)^4",
    )


def test_criterion_6_third_derivative_and_counts(full_corpus):
    graphs_checked = 0
    count_checks = 0
    for g in full_corpus:
        if enumerate_cliques(g, k_max=5).omega > 4:
            continue
        assert check_third_derivative_k5free(g).holds, to_graph6(g)
        graphs_checked += 1
        for d in triangles(g):
            assert triangle_deletion_counts(g, d).matches, (to_graph6(g), d)
            count_checks += 1
    _verdict(
        6, graphs_checked > 0 and count_checks > 0,
        f"third-derivative identity exact on {graphs_checked} 5-clique-free "
        f"graphs; deletion-count formulas match enumeration in {count_checks} cases",
    )


def test_criterion_7_conjecture3_campaign():
    start = time.perf_counter()
    result = run_cli(
        "fuzz", "--check", "conjecture3", "--n", "3..8", "--count", "200",
        "--seed", "7", "--shrink", "--json",
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0
    data = json.loads(result.stdout)
    ces = data["checks"]["conjecture3"]["counterexamples"]
    assert len(ces) >= 1
    shrunk_sizes = [parse_graph6(ce["shrunk"]["graph6"]).n for ce in ces]
    assert min(shrunk_sizes) <= 4

    # brute-force both sides on the 4-clique, independently of the checker
    k4 = complete_graph(4)
    lhs = poly_divided_derivative([1, *brute_force_counts(k4)], 3)
    rhs = poly_sum(
        [1, *brute_force_counts(delete_edge_set(k4, itertools.combinations(d, 2)))]
        for d in triangles(k4)
    )
    report = check_conjecture3(k4)
    ok = (
        elapsed < 10
        and lhs == [4, 4]
        and rhs == [4, 16, 12]
        and report.lhs == lhs
        and report.rhs == rhs
        and report.holds is False
    )
    _verdict(
        7, ok,
        f"campaign found {len(ces)} counterexamples in {elapsed:.1f}s, shrunk to "
        f"{min(shrunk_sizes)} vertices; 4-clique sides 4+4x vs 4+16x+12x^2",
    )


def test_criterion_8_conjecture2_class():
    sample = [random_gnp(4 + i % 7, 0.25, RngSpec(777 + i)) for i in range(200)]
    applicable = 0
    with_triangles = 0
    for g in sample:
        if len(triangles(g)) > 64 or triangle_graph(g).m != 0:
            continue
        applicable += 1
        if triangles(g):
            with_triangles += 1
        omega = enumerate_cliques(g).omega
        for k in range(3, omega + 1):
            assert check_triangle_deck_identity(g, k).holds, to_graph6(g)
    k4_report = check_triangle_deck_identity(complete_graph(4), 3)
    ok = (
        applicable > 0
        and with_triangles > 0
        and k4_report.lhs == 12
        and k4_report.rhs == 0
        and k4_report.holds is False
    )
    _verdict(
        8, ok,
        f"triangle-deck identity holds on all {applicable} edgeless-triangle-graph "
        f"samples ({with_triangles} with triangles); 4-clique fails 12 vs 0",
    )


def test_criterion_9_campaign_determinism():
    args = (
        "fuzz", "--n", "4..9", "--p", "0.1..0.9", "--count", "120", "--seed", "99",
        "--check", "conjecture3,triangle_deck,conjecture2", "--shrink", "--json",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    ok = first.returncode == 0 and first.stdout == second.stdout and first.stdout
    _verdict(9, bool(ok), "equal seeds produce byte-identical JSON campaign reports")


def test_criterion_10_performance():
    g25 = random_gnp(25, 0.5, RngSpec(2025))
    start = time.perf_counter()
    poly = clique_polynomial(g25)
    poly_elapsed = time.perf_counter() - start
    assert poly[0] == 1 and poly[1] == 25

    sizes = list(range(4, 21))
    graphs = [
        random_gnp(sizes[i % len(sizes)], (0.2, 0.5, 0.8)[i % 3], RngSpec(i))
        for i in range(10_000)
    ]
    start = time.perf_counter()
    for g in graphs:
        assert parse_graph6(to_graph6(g)) == g
    roundtrip_elapsed = time.perf_counter() - start
    ok = poly_elapsed < 5 and roundtrip_elapsed < 2
    _verdict(
        10, ok,
        f"G(25, 0.5) polynomial in {poly_elapsed * 1000:.1f}ms; 10,000 graph6 "
        f"round-trips in {roundtrip_elapsed:.2f}s",
    )
