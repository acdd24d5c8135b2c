"""Clique counting and listing, clique polynomials, and polynomial calculus.

Counting has one kernel, clique_counts_in(adj, mask): the clique counts of the
subgraph that a vertex bitmask induces over bit-row adjacency.  It lists
nothing, and it is memoised in a bounded LRU cache, because the identity
checks count the neighbourhoods and deletions of one graph many times over.
Neighbourhoods and vertex deletions are masks over the original rows; edge
deletions are edited copies of the rows.  clique_counts, clique_count and
clique_polynomial are thin wrappers over it.  enumerate_cliques lists cliques
and serves only where the cliques themselves are needed; it and
brute_force_counts are the kernel's independent references.

Polynomials are plain lists of Python ints, coefficient of x**k at index k.
All arithmetic is exact; Python integers never overflow, so counts and
identity arithmetic cannot wrap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .graphs import Graph, common_neighborhood_bits

Clique = tuple[int, ...]
Polynomial = list[int]


@dataclass(frozen=True)
class CliqueCatalog:
    """All cliques of a graph grouped by size, each size lexicographically sorted.

    by_size[k] holds the k-cliques; by_size[0] is an empty placeholder.
    """

    n: int
    by_size: tuple[tuple[Clique, ...], ...]

    def cliques(self, k: int) -> tuple[Clique, ...]:
        if 1 <= k < len(self.by_size):
            return self.by_size[k]
        return ()

    @property
    def omega(self) -> int:
        for k in range(len(self.by_size) - 1, 0, -1):
            if self.by_size[k]:
                return k
        return 0

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(self.by_size[k]) for k in range(1, self.omega + 1))


def enumerate_cliques(g: Graph, k_max: int | None = None) -> CliqueCatalog:
    """Materialize every clique of every size up to k_max (default: all sizes).

    Depth-first extension over bit rows: a clique is only ever extended by
    common neighbors above its largest vertex, so each clique appears exactly
    once and each per-size list comes out in lexicographic order.
    """
    limit = g.n if k_max is None else max(0, min(k_max, g.n))
    per: list[list[Clique]] = [[] for _ in range(limit + 1)]
    if limit >= 1:
        adj = g.adj

        def grow(vs: list[int], cand: int) -> None:
            per[len(vs)].append(tuple(vs))
            if len(vs) == limit:
                return
            c = cand
            while c:
                low = c & -c
                w = low.bit_length() - 1
                c ^= low
                grow(vs + [w], (cand & adj[w]) >> (w + 1) << (w + 1))

        for v in range(g.n):
            grow([v], adj[v] >> (v + 1) << (v + 1))
    return CliqueCatalog(g.n, tuple(tuple(lst) for lst in per))


@lru_cache(maxsize=1024)
def clique_counts_in(adj: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """(c_1, ..., c_omega) of the subgraph that the vertex bitmask mask induces.

    adj holds symmetric bit rows (Graph.adj, or an edited copy of it); it must
    be a tuple, since (adj, mask) is the cache key.  Depth-first over candidate
    bitmasks: a clique is extended only by common neighbours above its largest
    vertex, so each clique is counted exactly once.  A node adds the size of
    its candidate set to the next clique size and recurses only into
    candidates that leave at least two common neighbours, so nothing is
    listed and memory stays at one count per size.
    """
    if mask < 0 or mask >> len(adj):
        raise ValueError(f"mask has bits outside 0..{len(adj) - 1}")
    counts = [0] * (mask.bit_count() + 1)

    def grow(size: int, cand: int) -> None:
        counts[size] += cand.bit_count()
        size += 1
        c = cand
        while c:
            low = c & -c
            c ^= low
            nxt = c & adj[low.bit_length() - 1]
            if nxt & (nxt - 1):
                grow(size, nxt)
            elif nxt:
                counts[size] += 1

    if mask:
        grow(1, mask)
    while len(counts) > 1 and not counts[-1]:
        counts.pop()
    return tuple(counts[1:])


def clique_counts(g: Graph) -> tuple[int, ...]:
    """(c_1, ..., c_omega): the number of k-cliques for each size."""
    return clique_counts_in(g.adj, (1 << g.n) - 1)


def clique_count(g: Graph, k: int) -> int:
    if k < 0:
        raise ValueError("clique size must be nonnegative")
    if k == 0:
        return 1
    counts = clique_counts(g)
    return counts[k - 1] if k <= len(counts) else 0


def clique_polynomial(g: Graph) -> Polynomial:
    """Coefficient k is the number of k-cliques; the constant term is fixed at 1."""
    return [1, *clique_counts(g)]


def is_clique(g: Graph, vertices) -> bool:
    vs = tuple(vertices)
    if not vs or len(set(vs)) != len(vs):
        return False
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    return all(g.adj[u] >> v & 1 for u, v in itertools.combinations(vs, 2))


def clique_value(g: Graph, q) -> int:
    """Number of vertices adjacent to every vertex of the clique q.

    Generalizes vertex degree: for a single vertex it equals deg(v).
    """
    q = tuple(q)
    if not is_clique(g, q):
        raise ValueError(f"{q} is not a clique of the graph")
    return common_neighborhood_bits(g, q).bit_count()


def brute_force_counts(g: Graph) -> tuple[int, ...]:
    """Clique counts by testing every vertex subset for completeness.

    Independent oracle: shares no code path with clique_counts_in or
    enumerate_cliques (no bit recursion, no catalogs), only the adjacency
    data itself.  Exponential, so it is capped at 20 vertices.
    """
    if g.n > 20:
        raise ValueError(f"{g.n} vertices is too large for the exhaustive oracle")
    present = {
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.adj[u] >> v & 1
    }
    counts = []
    for k in range(1, g.n + 1):
        c = 0
        for subset in itertools.combinations(range(g.n), k):
            if all(pair in present for pair in itertools.combinations(subset, 2)):
                c += 1
        counts.append(c)
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


# -- polynomial calculus -------------------------------------------------------

def poly_normalize(p: Polynomial) -> Polynomial:
    """Copy of p without trailing zero coefficients (zero polynomial -> [])."""
    end = len(p)
    while end and p[end - 1] == 0:
        end -= 1
    return list(p[:end])


def poly_equal(a: Polynomial, b: Polynomial) -> bool:
    """Exact coefficient equality after trailing-zero normalization."""
    return poly_normalize(a) == poly_normalize(b)


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_normalize(out)


def poly_sub(a: Polynomial, b: Polynomial) -> Polynomial:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return poly_normalize(out)


def poly_scale(p: Polynomial, c: int) -> Polynomial:
    return poly_normalize([c * x for x in p])


def poly_shift(p: Polynomial, k: int) -> Polynomial:
    """Multiply by x**k."""
    return poly_normalize([0] * k + list(p))


def poly_sum(ps) -> Polynomial:
    out: Polynomial = []
    for p in ps:
        out = poly_add(out, p)
    return out


def poly_derivative(p: Polynomial, order: int = 1) -> Polynomial:
    """Formal derivative taken `order` times."""
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    cur = list(p)
    for _ in range(order):
        cur = [i * c for i, c in enumerate(cur)][1:]
    return poly_normalize(cur)


def poly_divided_derivative(p: Polynomial, order: int) -> Polynomial:
    """The order-th formal derivative divided by order!, computed without division.

    Coefficient j of the result is C(j + order, order) * p[j + order], which is
    an integer for any integer polynomial.
    """
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    return poly_normalize(
        [comb(j + order, order) * p[j + order] for j in range(len(p) - order)]
    )


def poly_reverse(p: Polynomial, n: int, include_unit: bool = False) -> Polynomial:
    """Reverse the coefficients at exponent base n: sum of p[k] * x**(n-k).

    With include_unit set, an extra constant 1 is added on top of the
    reversal (the variant whose leading unit is kept as a literal term).
    """
    norm = poly_normalize(p)
    degree = len(norm) - 1
    if degree > n:
        raise ValueError(f"base {n} is smaller than the polynomial degree {degree}")
    out = [0] * (n + 1)
    for k, c in enumerate(norm):
        out[n - k] += c
    if include_unit:
        out[0] += 1
    return poly_normalize(out)
