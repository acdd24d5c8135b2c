"""Exact checks for the clique-counting recurrences, deck identities, and
derivative formulas.

Every check returns a structured IdentityReport instead of asserting, so the
same machinery serves regression tests (which assert holds=True for proved
identities) and conjecture exploration (which only records outcomes).  All
comparisons are exact integer polynomial or count equality; divisions are
avoided by using binomial-scaled derivatives and cross-multiplied forms.

Every polynomial of a neighbourhood or a vertex deletion is counted as a
vertex bitmask over the graph's own adjacency rows, and every edge deletion
as an edited copy of the rows, so no check builds a subgraph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Optional, Union

from .cliques import (
    Polynomial,
    clique_count,
    clique_counts,
    clique_counts_in,
    clique_polynomial,
    clique_value,
    enumerate_cliques,
    is_clique,
    poly_add,
    poly_divided_derivative,
    poly_derivative,
    poly_equal,
    poly_normalize,
    poly_scale,
    poly_shift,
    poly_sub,
    poly_sum,
)
from .graphs import (
    Graph,
    common_neighborhood_bits,
    edge,
    edge_deleted_adj,
    is_connected,
    triangles,
)

Side = Union[int, list, None]


class NotApplicable(ValueError):
    """The graph lies outside the class a check is stated for."""


@dataclass(frozen=True)
class IdentityReport:
    """One verdict: identity id, graph, parameters, both sides, and whether they agree.

    holds is None only for checks that do not apply to the graph at all.
    """

    identity: str
    graph6: str
    params: dict = field(default_factory=dict)
    lhs: Side = None
    rhs: Side = None
    holds: Optional[bool] = None

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "graph6": self.graph6,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
        }


def _poly_report(identity: str, g: Graph, params: dict,
                 lhs: Polynomial, rhs: Polynomial) -> IdentityReport:
    lhs, rhs = poly_normalize(lhs), poly_normalize(rhs)
    return IdentityReport(identity, g.graph6, params, lhs, rhs, lhs == rhs)


def _count_report(identity: str, g: Graph, params: dict,
                  lhs: int, rhs: int) -> IdentityReport:
    return IdentityReport(identity, g.graph6, params, lhs, rhs, lhs == rhs)


def _poly(adj: tuple[int, ...], mask: int | None = None) -> Polynomial:
    """C(x) of the subgraph that mask induces over the rows adj (all of them by default)."""
    if mask is None:
        mask = (1 << len(adj)) - 1
    return [1, *clique_counts_in(adj, mask)]


def _count(adj: tuple[int, ...], k: int, mask: int | None = None) -> int:
    """c_k (k >= 1) of the subgraph that mask induces over the rows adj."""
    poly = _poly(adj, mask)
    return poly[k] if k < len(poly) else 0


def _nbhd_poly(g: Graph, vertices) -> Polynomial:
    """C(G[N(S)], x) for the common neighbourhood N(S) of the vertex set S."""
    return _poly(g.adj, common_neighborhood_bits(g, vertices))


def _without_vertex(g: Graph, v: int) -> int:
    """The vertex set of G - v, as a mask over the rows of g."""
    return ((1 << g.n) - 1) & ~(1 << v)


def _require_triangle(g: Graph, delta) -> tuple[int, int, int]:
    d = tuple(sorted(delta))
    if len(d) != 3 or not is_clique(g, d):
        raise ValueError(f"{tuple(delta)} is not a triangle of the graph")
    return d


# -- handshake ----------------------------------------------------------------

def check_handshake(g: Graph, k: int) -> IdentityReport:
    """Sum of clique-values over the k-cliques against (k+1) * c_{k+1}.

    Each (k+1)-clique contains k+1 k-cliques, and a k-clique extends to a
    (k+1)-clique once per common neighbor, so both sides count the entries of
    the containment matrix of order k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lhs = sum(clique_value(g, q) for q in enumerate_cliques(g, k_max=k).cliques(k))
    rhs = (k + 1) * clique_count(g, k + 1)
    return _count_report("handshake", g, {"k": k}, lhs, rhs)


# -- recurrences ----------------------------------------------------------------

def check_vertex_recurrence(g: Graph, v: int) -> IdentityReport:
    """C(G, x) == C(G - v, x) + x * C(G[N(v)], x)."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    lhs = clique_polynomial(g)
    rhs = poly_add(
        _poly(g.adj, _without_vertex(g, v)), poly_shift(_poly(g.adj, g.adj[v]), 1)
    )
    return _poly_report("vertex_recurrence", g, {"v": v}, lhs, rhs)


def check_edge_recurrence(g: Graph, e) -> IdentityReport:
    """C(G, x) == C(G - e, x) + x**2 * C(G[N(e)], x)."""
    u, v = edge(*e)
    without = edge_deleted_adj(g, [(u, v)])
    lhs = clique_polynomial(g)
    rhs = poly_add(_poly(without), poly_shift(_nbhd_poly(g, (u, v)), 2))
    return _poly_report("edge_recurrence", g, {"e": [u, v]}, lhs, rhs)


# -- deck identities -------------------------------------------------------------

def check_vertex_deck_identity(g: Graph, k: int) -> IdentityReport:
    """(n - k) * c_k(G) == sum over v of c_k(G - v)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lhs = (g.n - k) * clique_count(g, k)
    rhs = sum(_count(g.adj, k, _without_vertex(g, v)) for v in range(g.n))
    return _count_report("vertex_deck", g, {"k": k}, lhs, rhs)


def check_edge_deck_identity(g: Graph, k: int) -> IdentityReport:
    """(m - C(k, 2)) * c_k(G) == sum over e of c_k(G - e)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    lhs = (g.m - comb(k, 2)) * clique_count(g, k)
    rhs = sum(_count(edge_deleted_adj(g, [e]), k) for e in g.edges())
    return _count_report("edge_deck", g, {"k": k}, lhs, rhs)


# -- derivative identities --------------------------------------------------------

def check_first_derivative(g: Graph) -> IdentityReport:
    """d/dx C(G, x) == sum over v of C(G[N(v)], x)."""
    lhs = poly_derivative(clique_polynomial(g), 1)
    rhs = poly_sum(_poly(g.adj, row) for row in g.adj)
    return _poly_report("first_derivative", g, {}, lhs, rhs)


def check_second_derivative(g: Graph) -> IdentityReport:
    """(1/2!) d^2/dx^2 C(G, x) == sum over e of C(G[N(e)], x).

    The halved derivative is computed with binomial coefficients, so the
    comparison stays in exact integers.
    """
    lhs = poly_divided_derivative(clique_polynomial(g), 2)
    rhs = poly_sum(_poly(g.adj, g.adj[u] & g.adj[v]) for u, v in g.edges())
    return _poly_report("second_derivative", g, {}, lhs, rhs)


def check_third_derivative_k5free(g: Graph) -> IdentityReport:
    """(1/3!) d^3/dx^3 C(G, x) == sum over triangles d of C(G[N(d)], x).

    Stated for connected graphs with no 5-clique; connectivity is recorded in
    the report rather than required, so campaigns can probe whether it
    matters.
    """
    omega = len(clique_counts(g))
    if omega >= 5:
        raise NotApplicable("graph contains a 5-clique")
    lhs = poly_divided_derivative(clique_polynomial(g), 3)
    rhs = poly_sum(_nbhd_poly(g, d) for d in triangles(g))
    params = {"connected": is_connected(g), "omega": omega}
    return _poly_report("third_derivative_k5free", g, params, lhs, rhs)


def check_kth_derivative_general(g: Graph, k: int) -> IdentityReport:
    """(1/k!) d^k/dx^k C(G, x) against the sum of C(G[N(Q)], x) over k-cliques Q.

    The natural generalization of the first/second/third derivative formulas;
    evaluated empirically, never asserted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lhs = poly_divided_derivative(clique_polynomial(g), k)
    rhs = poly_sum(_nbhd_poly(g, q) for q in enumerate_cliques(g, k_max=k).cliques(k))
    return _poly_report("kth_derivative", g, {"k": k}, lhs, rhs)


# -- clique-deletion expansion ------------------------------------------------------

INTERPRETATION_CLIQUES = "cliques"
INTERPRETATION_EDGE_SUBSETS = "edge-subsets"


def clique_deletion_expansion(g: Graph, edge_set, interpretation: str = INTERPRETATION_CLIQUES) -> IdentityReport:
    """Expansion of C(G, x) after deleting the edge set M of a complete subgraph:

        C(G, x) == C(G - M, x)
                   + sum over r >= 2 of (-1)**r (r-1) x**r * (inner sum of C(G[N(S)], x))

    The inner sum is ambiguous for 4-cliques and larger, so both readings are
    implemented: 'cliques' sums over the r-subsets of the clique's vertices
    (equivalently, edge subsets forming an r-clique), while 'edge-subsets'
    sums over every edge subset S of M with |S| = C(r, 2), cliques or not.
    The readings coincide when M has at most three edges.
    """
    normalized = {edge(*e) for e in edge_set}
    support = sorted({v for e in normalized for v in e})
    q = len(support)
    for v in support:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    expected = {edge(u, v) for u, v in itertools.combinations(support, 2)}
    if normalized != expected:
        raise ValueError("edge set does not induce a complete subgraph")
    for u, v in normalized:
        if not g.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
    if interpretation not in (INTERPRETATION_CLIQUES, INTERPRETATION_EDGE_SUBSETS):
        raise ValueError(f"unknown interpretation {interpretation!r}")

    rhs = _poly(edge_deleted_adj(g, normalized))
    if interpretation == INTERPRETATION_CLIQUES:
        for r in range(2, q + 1):
            inner = poly_sum(
                _nbhd_poly(g, t) for t in itertools.combinations(support, r)
            )
            rhs = poly_add(rhs, poly_scale(poly_shift(inner, r), (-1) ** r * (r - 1)))
    else:
        edges_sorted = sorted(normalized)
        r = 2
        while comb(r, 2) <= len(edges_sorted):
            inner = poly_sum(
                _nbhd_poly(g, {v for e in s for v in e})
                for s in itertools.combinations(edges_sorted, comb(r, 2))
            )
            rhs = poly_add(rhs, poly_scale(poly_shift(inner, r), (-1) ** r * (r - 1)))
            r += 1

    lhs = clique_polynomial(g)
    params = {
        "m": [[u, v] for u, v in sorted(normalized)],
        "interpretation": interpretation,
    }
    return _poly_report("clique_deletion", g, params, lhs, rhs)


# -- triangle deletion -----------------------------------------------------------

@dataclass(frozen=True)
class TriangleIdentityParts:
    """The two polynomial ingredients of the triangle-deletion identity.

    edge_neighborhood_sum is the sum of C(G[N(e)], x) over the triangle's
    three edges; triangle_neighborhood is C(G[N(d)], x) for the triangle's
    common neighborhood.
    """

    delta: tuple[int, int, int]
    edge_neighborhood_sum: Polynomial
    triangle_neighborhood: Polynomial


def _triangle_parts(g: Graph, d: tuple[int, int, int]) -> TriangleIdentityParts:
    a, b, c = d
    edge_sum = poly_sum(_nbhd_poly(g, pair) for pair in ((a, b), (a, c), (b, c)))
    tri = _nbhd_poly(g, d)
    return TriangleIdentityParts(d, edge_sum, tri)


def triangle_identity(g: Graph, delta) -> tuple[IdentityReport, TriangleIdentityParts]:
    """C(G, x) == C(G - d, x) + x**2 * (edge sum) - 2 x**3 * (triangle neighborhood),

    where G - d deletes the three edges of the triangle d.  Holds for every
    graph and every triangle.
    """
    d = _require_triangle(g, delta)
    parts = _triangle_parts(g, d)
    a, b, c = d
    without = edge_deleted_adj(g, [(a, b), (a, c), (b, c)])
    rhs = poly_add(
        _poly(without),
        poly_sub(
            poly_shift(parts.edge_neighborhood_sum, 2),
            poly_scale(poly_shift(parts.triangle_neighborhood, 3), 2),
        ),
    )
    lhs = clique_polynomial(g)
    report = _poly_report("triangle_identity", g, {"delta": list(d)}, lhs, rhs)
    return report, parts


def check_triangle_recurrence(g: Graph, delta) -> IdentityReport:
    """Does C(G, x) == C(G - d, x) + x**3 * C(G[N(d)], x) for this triangle?

    No truth is asserted; the question is for which graphs this holds.  The
    stated equivalent condition, edge sum == 3x * C(G[N(d)], x), is evaluated
    verbatim and recorded in the params (its constant terms can never match,
    which is reported rather than repaired).
    """
    d = _require_triangle(g, delta)
    parts = _triangle_parts(g, d)
    a, b, c = d
    without = edge_deleted_adj(g, [(a, b), (a, c), (b, c)])
    lhs = clique_polynomial(g)
    rhs = poly_add(_poly(without), poly_shift(parts.triangle_neighborhood, 3))
    shifted = poly_scale(poly_shift(parts.triangle_neighborhood, 1), 3)
    params = {
        "delta": list(d),
        "edge_neighborhood_sum": poly_normalize(parts.edge_neighborhood_sum),
        "triangle_neighborhood_times_3x": shifted,
        "equivalent_condition_holds": poly_equal(parts.edge_neighborhood_sum, shifted),
    }
    return _poly_report("triangle_recurrence", g, params, lhs, rhs)


@dataclass(frozen=True)
class TriangleDeletionCounts:
    """Formula-predicted clique counts of G - d against direct enumeration.

    formula and direct list (c_1, c_2, c_3, c_4) of the graph left after
    deleting the triangle's edges.  A mismatch is reported via matches, never
    silently accepted.
    """

    delta: tuple[int, int, int]
    formula: tuple[int, int, int, int]
    direct: tuple[int, int, int, int]

    @property
    def matches(self) -> bool:
        return self.formula == self.direct


def triangle_deletion_counts(g: Graph, delta) -> TriangleDeletionCounts:
    """Predict c_1..c_4 of G - d from counts of G, for graphs with no 5-clique:

        c_1(G - d) = c_1(G)
        c_2(G - d) = c_2(G) - 3
        c_3(G - d) = c_3(G) - sum val(e_i) + 2
        c_4(G - d) = c_4(G) - sum c_2(G[N(e_i)]) + 2 val(d)

    where e_1..e_3 are the triangle's edges and val is the clique-value.
    """
    d = _require_triangle(g, delta)
    if len(clique_counts(g)) >= 5:
        raise NotApplicable("graph contains a 5-clique")
    a, b, c = d
    pairs = ((a, b), (a, c), (b, c))
    val_edges = [common_neighborhood_bits(g, pair).bit_count() for pair in pairs]
    c2_edge_nbhd = [
        _count(g.adj, 2, common_neighborhood_bits(g, pair)) for pair in pairs
    ]
    val_delta = common_neighborhood_bits(g, d).bit_count()
    formula = (
        clique_count(g, 1),
        clique_count(g, 2) - 3,
        clique_count(g, 3) - sum(val_edges) + 2,
        clique_count(g, 4) - sum(c2_edge_nbhd) + 2 * val_delta,
    )
    remaining = edge_deleted_adj(g, pairs)
    direct = tuple(_count(remaining, k) for k in range(1, 5))
    return TriangleDeletionCounts(d, formula, direct)
