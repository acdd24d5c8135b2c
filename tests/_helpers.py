"""Shared strategies, brute-force oracles, and fixed corpora for the test suite.

The brute-force helpers here are deliberately naive (itertools over explicit
vertex subsets) so they share no algorithmic path with the library code they
check.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path

from hypothesis import strategies as st

from cliquekit import (
    Graph,
    RngSpec,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    random_gnp,
    star_graph,
)


SRC = Path(__file__).resolve().parents[1] / "src"


def subprocess_env() -> dict[str, str]:
    """Environment for a child Python process: ours, with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


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


def naive_is_clique(g: Graph, vertices) -> bool:
    es = naive_edge_set(g)
    return all(
        (min(a, b), max(a, b)) in es
        for a, b in itertools.combinations(sorted(vertices), 2)
    )


def naive_cliques_of_size(g: Graph, k: int) -> list[tuple[int, ...]]:
    return [
        q
        for q in itertools.combinations(range(g.n), k)
        if naive_is_clique(g, q)
    ]


def naive_common_neighbors(g: Graph, vertices) -> set[int]:
    sets = [set(g.neighbors(v)) for v in vertices]
    out = sets[0]
    for s in sets[1:]:
        out = out & s
    return out
