"""Shared strategies, brute-force oracles, and fixed corpora for the test suite.

The brute-force helpers here are deliberately naive (itertools over explicit
vertex subsets) so they share no algorithmic path with the library code they
check.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import strategies as st

import cliquekit.cliques
from cliquekit import (
    Graph,
    RngSpec,
    brute_force_counts,
    complete_graph,
    cycle_graph,
    delete_edge_set,
    delete_vertex,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    path_graph,
    random_gnp,
    star_graph,
)
from cliquekit.cli import main


SRC = Path(__file__).resolve().parents[1] / "src"


def subprocess_env() -> dict[str, str]:
    """Environment for a child Python process: ours, with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(*args, stdin=None, timeout=120) -> subprocess.CompletedProcess:
    """Run `python -m cliquekit *args` in a child process, with stdin as its input."""
    return subprocess.run([sys.executable, "-m", "cliquekit", *args], capture_output=True,
                          text=True, input=stdin, timeout=timeout, env=subprocess_env())


def run_main(*args, stdin=None) -> subprocess.CompletedProcess:
    """What run_cli returns, from cliquekit.cli.main(args) in this process:
    stdout and stderr captured, sys.stdin reading stdin (nothing if None)
    until the call returns, and argparse's SystemExit as the return code."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = saved
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def record_calls(monkeypatch, owner, name: str, what: Callable = lambda *args: args,
                 caller: bool = False) -> list:
    """Wrap owner.name, through monkeypatch, so that each call appends
    what(*args) to the list returned, as (name of the calling function,
    what(*args)) when caller is set, and then runs the original.  A name
    that owner lacks fails at once, as monkeypatch.setattr does."""
    original = getattr(owner, name)
    calls = []

    def recorded(*args, **kwargs):
        seen = what(*args)
        calls.append((sys._getframe(1).f_code.co_name, seen) if caller else seen)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def forbid_calls(monkeypatch, owner, name: str) -> None:
    """Make every call of owner.name fail with "<name> called"; a name that
    owner lacks fails at once."""
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(owner, name, forbidden)


def record_listings(monkeypatch) -> list:
    """Record the k_max (None for every size) of each call of
    cliquekit.cliques' one lister, enumerate_cliques, which the identity
    checks' catalog calls too."""
    return record_calls(monkeypatch, cliquekit.cliques, "enumerate_cliques",
                        lambda g, k_max=None: k_max)


def record_campaign_graphs(monkeypatch) -> list[Graph]:
    """Keep every graph whose counting state is made, in order: in a campaign
    that does not shrink, each graph that run_campaign draws, at its first
    count, since no check counts a graph of its own.  They stay alive, so
    the id of each graph and of its rows stays its own."""
    return record_calls(monkeypatch, cliquekit.cliques._Counting, "__init__", lambda counting, g: g)


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        chosen = []
    return Graph.from_edges(n, chosen)


def all_labelled_graphs(n: int):
    """Every graph on the vertices 0..n-1, one per subset of the vertex pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    for chosen in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for i, p in enumerate(pairs) if chosen >> i & 1])


def named_graphs() -> dict[str, Graph]:
    diamond = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    petersen = Graph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    return {
        "K1": complete_graph(1),
        "K2": complete_graph(2),
        "K3": complete_graph(3),
        "K4": complete_graph(4),
        "K5": complete_graph(5),
        "K6": complete_graph(6),
        "P3": path_graph(3),
        "P4": path_graph(4),
        "P5": path_graph(5),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "C6": cycle_graph(6),
        "star6": star_graph(6),
        "diamond": diamond,
        "paw": paw,
        "two_triangles": disjoint_union(complete_graph(3), complete_graph(3)),
        "empty4": empty_graph(4),
        "empty0": empty_graph(0),
        "petersen": petersen,
    }


def seeded_corpus(count: int = 60, max_n: int = 8, seed0: int = 1000) -> list[Graph]:
    """Deterministic G(n, p) sample reused across test modules."""
    ps = [0.15, 0.3, 0.5, 0.7, 0.9]
    out = []
    for i in range(count):
        n = 1 + i % max_n
        p = ps[i % len(ps)]
        out.append(random_gnp(n, p, RngSpec(seed0 + i)))
    return out


def mixed_corpus() -> list[Graph]:
    return list(named_graphs().values()) + seeded_corpus()


# -- naive oracles -------------------------------------------------------------

def naive_edge_set(g: Graph) -> set[tuple[int, int]]:
    return {
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.adj[u] >> v & 1
    }


def relabelled(g: Graph, perm) -> Graph:
    """g with each vertex v renamed perm[v], built from the naive edge set:
    the same graph up to isomorphism, so every count must agree."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in naive_edge_set(g)])


def naive_is_clique(g: Graph, vertices) -> bool:
    es = naive_edge_set(g)
    return all(
        (min(a, b), max(a, b)) in es
        for a, b in itertools.combinations(sorted(vertices), 2)
    )


def naive_cliques_of_size(g: Graph, k: int) -> list[tuple[int, ...]]:
    """The k-cliques of g, found by testing every k-set of vertices against
    the edge set, built once."""
    es = naive_edge_set(g)
    return [
        q
        for q in itertools.combinations(range(g.n), k)
        if all(pair in es for pair in itertools.combinations(q, 2))
    ]


def reference_deletion_rhs(g, q, counts=brute_force_counts):
    """C(G - Q, x) + sum over r >= 2 of (-1)**r (r-1) x**r * sum over the
    r-subsets S of q of C(G[N(S)], x), from built subgraphs and the counts
    of an independent oracle (exhaustive by default): no counts table and no
    code shared with the identity checks."""
    row = [0] * (g.n + 1)

    def add(h, shift, coeff):
        for j, c in enumerate([1, *counts(h)], shift):
            row[j] += coeff * c

    add(delete_edge_set(g, itertools.combinations(q, 2)), 0, 1)
    for r in range(2, len(q) + 1):
        for s in itertools.combinations(q, r):
            add(induced_subgraph(g, naive_common_neighbors(g, s)), r, (-1) ** r * (r - 1))
    while row and not row[-1]:
        row.pop()
    return row


def oracle_counts(h: Graph) -> tuple[int, ...]:
    """The clique counts of h by brute force, or by networkx above 20 vertices."""
    return brute_force_counts(h) if h.n <= 20 else networkx_counts(h)


def reference_deck(g: Graph, r: int) -> tuple[int, ...]:
    """The r-deck's row summed over its members rebuilt as graphs, G - v for
    r = 1 and G - E(Q) over the r-cliques Q for r >= 2, each counted by an
    oracle: the member count at x**0, the sum of their c_k at x**k."""
    if r == 1:
        members = [delete_vertex(g, v) for v in range(g.n)]
    else:
        members = [delete_edge_set(g, itertools.combinations(q, 2))
                   for q in naive_cliques_of_size(g, r)]
    row = [len(members)] + [0] * g.n
    for h in members:
        for k, c in enumerate(oracle_counts(h), 1):
            row[k] += c
    while row and not row[-1]:
        row.pop()
    return tuple(row)


def co_component_counts(g: Graph) -> tuple[int, ...]:
    """(c_1, ..., c_omega) of g by the co-component oracle (co_component_reader)."""
    return co_component_reader(g)((1 << g.n) - 1)


def co_component_reader(g: Graph) -> Callable[[int], tuple[int, ...]]:
    """The function that maps a vertex mask of g to (c_1, ..., c_omega) of
    the subgraph it induces, computed as the independence polynomial of
    that subgraph's complement (Levit & Mandrescu, "The independence
    polynomial of a graph - a survey", 2005): an independent oracle that
    reaches the dense band near 64 vertices, where no listing does.

    A vertex set S first splits into the connected components A_i of the
    complement of G[S]; G[S] is the join of the G[A_i], so C(G[S]) is the
    product of the C(G[A_i]).  A component of one vertex is 1 + x, and a
    larger one branches on its vertex v with the fewest neighbours,
    C(G[A]) = C(G[A - v]) + x C(G[A & N(v)]).  Every set is memoised for as
    long as the function lives, across the masks it is asked.  Neighbours
    come from the naive edge set, and nothing is shared with
    cliquekit.cliques: no pivot, no subset table, no packing.
    """
    nbrs = [0] * g.n
    for u, v in naive_edge_set(g):
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    vertex = {1 << v: v for v in range(g.n)}
    memo: dict[int, list[int]] = {0: [1]}

    def members(s):
        while s:
            low = s & -s
            s ^= low
            yield vertex[low]

    def poly(s):
        known = memo.get(s)
        if known is not None:
            return known
        out = [1]
        rest = s
        while rest:
            component = frontier = rest & -rest
            while frontier:
                v = vertex[frontier & -frontier]
                frontier &= frontier - 1
                grown = rest & ~nbrs[v] & ~component
                component |= grown
                frontier |= grown
            rest &= ~component
            if component == s:
                out = branch(s)
            else:
                out = poly_product(out, poly(component))
        memo[s] = out
        return out

    def branch(a):
        if a & (a - 1) == 0:
            return [1, 1]
        v = min(members(a), key=lambda w: (nbrs[w] & a).bit_count())
        out = list(poly(a & ~(1 << v)))
        for j, c in enumerate(poly(a & nbrs[v]), 1):
            if j == len(out):
                out.append(0)
            out[j] += c
        return out

    return lambda mask: tuple(poly(mask)[1:])


def poly_product(a: list[int], b: list[int]) -> list[int]:
    """The product of two coefficient lists, by the schoolbook rule."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def networkx_cliques(g: Graph):
    """Every clique of g, as networkx lists it, an independent oracle."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.enumerate_all_cliques(h)


def networkx_counts(g: Graph) -> tuple[int, ...]:
    """(c_1, ..., c_omega) from networkx's clique listing."""
    sizes = Counter(len(q) for q in networkx_cliques(g))
    return tuple(sizes[k] for k in range(1, max(sizes, default=0) + 1))


def naive_common_neighbors(g: Graph, vertices) -> set[int]:
    sets = [set(g.neighbors(v)) for v in vertices]
    out = sets[0]
    for s in sets[1:]:
        out = out & s
    return out


def csv_oracle(row_labels, col_labels, cells: list[list[int]]) -> str:
    """A labelled 0/1 matrix in the CSV layout of `IncidenceMatrix.to_csv`.

    Written cell by cell through csv.writer over lists of ints, with the sums
    taken from the cells, so it shares no rendering path with the library.
    """
    def text(label):
        return "-".join(str(v) for v in label)

    col_sums = [sum(row[j] for row in cells) for j in range(len(col_labels))]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + [text(c) for c in col_labels] + ["row_sum"])
    for label, row in zip(row_labels, cells):
        writer.writerow([text(label)] + row + [sum(row)])
    writer.writerow(["col_sum"] + col_sums + [sum(col_sums)])
    return buf.getvalue()
