"""Clique counting and listing, clique polynomials, and polynomial calculus.

Every count is of a mask over a graph's own rows: neighbourhoods and vertex
deletions are masks, and a graph with the edges of a clique deleted is split
into masks by the vertex recurrence (see _Counting.split).  Each graph has
one counting state, _counting(g), kept in g.memo.cliques: its packed reader,
read(mask), is C(G[mask], x) at x = 2**lane, with lane = _lane(n) bits a
coefficient, wide enough that packed counts add as polynomials without a
carry (see _PACKED_UNITS).  split reads one count with a clique's edges
deleted, add sums many, and the identity checks compare such sums.
The format has one encoder, _pack, which the kernel and _Counting.pack
call, and one decoder, _coefficients, which _Counting.add, _Counting.unpack
and clique_counts_in call; term scales a count by coeff x**r, so it also
reads a clique's own term of the clique-deletion expansion,
(r - 1) x**r C(G[N(Q)]), and coefficient reads one coefficient of a sum,
so no other module shifts by a lane.  A graph of more than
_SUBSET_TABLE_MAX_N vertices counts each mask once with one kernel,
_poly_of(adj, mask, memo, lane): the clique polynomial of the subgraph
that a vertex bitmask induces over bit-row adjacency, packed at the
graph's lane, which the reader keeps as it comes.
It lists nothing; clique_counts_in(adj, mask) decodes its count into
clique counts.  A smaller graph does not call the kernel: it fills one
table of the clique polynomials of its induced subgraphs by the vertex
recurrence C(S + v) = C(S) + x C(S & N(v)), packed at the graph's lane,
and the reader reads every count from it (see _subset_table).
clique_counts, clique_count and clique_polynomial are thin wrappers over
both.

The kernel is one recurrence on the candidate set S, split on a pivot u
(Jain & Seshadhri, "The Power of Pivoting for Exact Clique Counting", WSDM
2020) chosen by the rule of Tomita, Tanaka & Takahashi (TCS 2006), the
candidate with the most neighbours in S, ties going to the highest vertex:

    C(S) = (1 + x) C(S & N(u)) + sum over non-neighbours w of u of x C(S_w & N(w)),

where S_w drops u and the non-neighbours above w.  Every loop of the kernel
takes the highest candidate first, v = c.bit_length() - 1, and clears it by
one lookup in _BIT.  Candidate sets smaller than _PIVOT_MIN_SIZE are counted
by the plain depth-first extension, which is faster on them.  Its leaves
are counted in closed form: a candidate set of t <= 3 vertices adds t
cliques of one more vertex, one per edge among them of two more, and for a
triangle one of three more, so the extension makes no call for it.  Sets of
2 and 3 candidates are most of the nodes of the extension, so this takes
out about two thirds of its calls.

A mask under the cutoff, most of the masks the identity checks ask for, is
grown straight into its row and packed, with no memo.  A pivot node sums its
terms as packed integers, which cannot carry (see _poly_of), so the kernel
has one count format, the reader's.  A graph above the gate keeps one store
of packed counts, its reader's dict, keyed by vertex mask.  A mask read and
a pivot node's candidate set are keys of one kind, so the store is also the
kernel's node memo, and a node counted for one read answers every later
read of the graph that reaches it.  Within a read, a set reached along
several branches is counted once: K64 and complete multipartite graphs take
one entry per level, and the complement of a 64-vertex path 52 entries.
Two rules bound what a graph keeps.  Its first read passes the kernel a
throwaway memo, so a graph asked one count, as by clique_polynomial alone,
keeps that count only.  Once the store holds _STORE_MAX entries, a read
passes a throwaway memo again and adds only its own mask.  No state is kept
at module level: each graph's counting state keeps what was counted and
listed over it, the store, C(G)'s counts (unpacked once), the splits and
the catalog, and lives exactly as long as the graph.

enumerate_cliques lists cliques and serves only where the cliques themselves
are needed; it counts them first and refuses, with CliqueBudgetExceeded, to
list more than LISTING_BUDGET, except on a graph of at most 19 vertices,
which has fewer cliques than that in all.  It and brute_force_counts are
the independent references of the kernel and the subset table: it extends
each clique upward from its lowest vertex, where the kernel works down from
the highest, and its per-size lists keep that lexicographic order.  Beside
each clique Q it keeps N(Q), the common neighbourhood that it extends Q
within, as a bitmask at 8 bytes a clique (CliqueCatalog.common_neighborhoods),
so a check that reads N(Q) of every listed clique ANDs no rows.  The
identity checks read each size of cliques, edges and triangles included,
as one tuple of the largest catalog listed for a graph (_stored_catalog,
kept in the counting state), with no prefix catalog made per size read.
That catalog is listed by enumerate_cliques too, so every listing asks the
one budget, edges and triangles included.

Polynomials are plain lists of Python ints, coefficient of x**k at index k.
All arithmetic is exact; Python integers never overflow, so counts and
identity arithmetic cannot wrap.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Iterator, Sequence

from .graphs import MAX_VERTICES, Graph, common_neighborhood_bits

Clique = tuple[int, ...]
Polynomial = list[int]

# Candidate sets of at least this many vertices are split on a pivot; smaller
# ones are counted by the plain DFS (with sets of up to three candidates in
# closed form).  Kernel time per graph, in milliseconds, on the full mask of
# the first 10 graphs of each dense_poly reference template, with the cutoff
# at 8, 10, 12 and 14: medians of 30 alternating in-process rounds, Python
# 3.11, 2-core x86-64 host:
#
#   template          8     10     12     14
#   G(64, 0.5)     2.54   2.13   1.92   1.85
#   G(60, 0.55)    3.02   2.55   2.43   2.35
#   G(56, 0.6)     3.70   3.19   3.00   3.01
#   G(52, 0.65)    4.54   3.85   3.75   3.78
#   G(48, 0.7)     5.18   4.60   4.47   4.70
#   G(44, 0.75)    5.21   4.68   4.81   5.05
#   G(40, 0.8)     4.55   4.20   4.40   5.07
#   G(38, 0.825)   3.85   3.78   4.01   4.79
#   G(36, 0.85)    2.62   2.67   2.94   3.59
#
# Paired by round, the 90 graphs took 1.11x as long at 8 (quartiles
# 1.07-1.14), 1.00x at 10 (0.98-1.02) and 1.09x at 14 (1.06-1.12) as at 12.
# A lower cutoff pays only at the dense end, 0.89x at 8 on G(36, 0.85), and
# so do single counts of G(64, 0.9) and G(64, 0.95), but it costs the sparse
# end up to 1.32x; so 12 stays.  The table was measured with a node memo per
# count.  With the per-graph store (_STORE_MAX), which keeps pivot nodes
# across the reads of a graph, cutoff 8 against 12 over three alternating
# rounds of the theorem campaigns (see README) took 0.14-0.26 s against
# 0.22-0.36 s on --n 13..16, 1.49-1.61 s against 1.68-1.71 s on the mid-size
# one and 0.51-0.69 s against 0.58-0.59 s on the large sparse one: mixed,
# and single counts still pay the sparse end's cost above, so 12 stays.
_PIVOT_MIN_SIZE = 12

# A graph above the subset table's gate keeps one store of packed counts, its
# reader's dict, which every read after the first passes to the kernel as its
# pivot memo (see _Counting).  A read that finds this many entries or more in
# the store passes a throwaway memo and adds only its own mask, so a store
# passes the bound by at most the nodes of one read, plus one mask per later
# read.  `cliquekit verify --identity clique_deletion --clique 0-1-2-4` on
# `cliquekit gen 64 0.9 1` reads 16 masks, and its second read keeps 66 540
# pivot nodes, so at this bound the store stops sharing after it.  That
# verify peaks at 40 MB RSS with this bound and with no sharing at all, at
# 53 MB with the bound at 2**17 and at 68 MB with no bound (Python 3.11,
# x86-64).  The largest store of the mid-size and large sparse theorem
# campaigns (see README) holds 20 608 entries, under the bound.
_STORE_MAX = 1 << 16

# Graphs of at most this many vertices fill a subset table when their
# counting state is made and answer every count from it, never calling the
# kernel (see _subset_table).  A table of 2**(n - 1) entries takes about
# 0.2 ms at n = 12, the time of 2 to 30 full kernel counts of the graph, so
# it pays on a graph asked many counts and costs time on one asked few.
# In-process time of `cliquekit fuzz` runs, in seconds, medians of 6 to 30
# interleaved runs per cell, Python 3.11, 2-core x86-64 host (kernel: every
# count by the kernel):
#
#   run                                           kernel  gate 12  14     16
#   --n 4..12 --p 0.2..0.8 --count 200 theorems   0.156   0.111  0.113  0.116
#   --n 10..12 --p 0.7..0.95 --count 40 theorems  0.386   0.164  0.157  0.158
#   --n 13..16 --p 0.2..0.9 --count 20 theorems   0.255   0.261  0.214  0.125
#   --n 12..16 conjecture checks --shrink (CI)    0.064   0.062  0.068  0.076
#
# Every graph of the first two runs is on the table's side from 12 on.  Above
# 12, shrinking slows: most of its candidate graphs are asked a few counts
# each.  So the gate is 12.
_SUBSET_TABLE_MAX_N = 12

# A packed count is C(x) at x = 2**lane (Kronecker substitution), lane bits
# a coefficient, so packed counts add as polynomials as long as no
# coefficient of the sum reaches 2**lane and carries into the next.  The
# identity checks sum up to _PACKED_UNITS packed counts of one graph, each
# taken as often as its |coefficient| says: a derivative formula sums one
# count per r-clique, so the second derivative of K12 sums 66, one per edge,
# and every graph inside the subset table's gate decides it packed (one side
# of a 4-clique's expansion sums at most 10).  A graph on n vertices
# has at most C(n, n // 2) cliques of one size, so no such sum carries at
# the lane _lane(n) (a tuple lookup), the bit length of 70 * C(n, n // 2):
# two such sums are equal exactly when their polynomials are.  The lane is
# 7 bits up to n = 1, 16 at n = 12, 17 at n = 13 and 67 at n = 64.  A longer
# sum is unpacked every _PACKED_UNITS counts (see _Counting.add).
_PACKED_UNITS = 70
_lane = tuple((_PACKED_UNITS * comb(n, n // 2)).bit_length()
              for n in range(MAX_VERTICES + 1)).__getitem__

# _BIT[v] is the bit of vertex v: the kernel clears the candidate it takes
# by one tuple lookup.
_BIT = tuple(1 << v for v in range(MAX_VERTICES))

# Most cliques enumerate_cliques lists before it refuses (CliqueBudgetExceeded).
LISTING_BUDGET = 1_000_000


class CliqueBudgetExceeded(ValueError):
    """Listing the requested cliques would exceed LISTING_BUDGET."""


@dataclass(frozen=True)
class CliqueCatalog:
    """All cliques of a graph grouped by size, each size lexicographically sorted.

    by_size[k] holds the k-cliques; by_size[0] is an empty placeholder.
    commons[k] holds their common neighbourhoods N(Q), the AND of the rows
    of Q's members, as vertex bitmasks in the same order, read-only: one
    unsigned 64-bit word a clique (an array("Q") seen through a read-only
    memoryview), against 40 + 8k bytes for the tuple of a k-clique.  They
    follow from the graph and by_size, so they take no part in the
    catalog's equality, hash or repr.
    """

    n: int
    by_size: tuple[tuple[Clique, ...], ...]
    commons: tuple[Sequence[int], ...] = field(default=(), compare=False, repr=False)

    def cliques(self, k: int) -> tuple[Clique, ...]:
        if 1 <= k < len(self.by_size):
            return self.by_size[k]
        return ()

    def common_neighborhoods(self, k: int) -> Sequence[int]:
        """N(Q) of each k-clique Q as a bitmask, in the order of cliques(k);
        empty where cliques(k) is."""
        if 1 <= k < len(self.commons):
            return self.commons[k]
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
    """Materialize every clique of every size up to k_max (default: all sizes),
    each with its common neighbourhood (CliqueCatalog.common_neighborhoods).

    More than LISTING_BUDGET cliques raise CliqueBudgetExceeded before any is
    listed.  They are counted first, unless no graph on g.n vertices has that
    many: none has more than 2**n - 1 cliques, which is within the budget up
    to n = 19, and none more than C(n, j) j-cliques.  The one lister of the
    package: the identity checks' catalog (_stored_catalog) lists through
    it too.

    The cliques are grown by _extend, a module-level recursion, so a
    listing leaves no reference cycle and its lists are freed as soon as
    the catalog is dropped.
    """
    limit = g.n if k_max is None else max(0, min(k_max, g.n))
    _require_listing_budget(g, limit)
    per: list[list[Clique]] = [[] for _ in range(limit + 1)]
    masks = [array("Q") for _ in range(limit + 1)]
    if limit >= 1:
        full = (1 << g.n) - 1
        _extend(g.adj, per, masks, limit, (), full, full)
    return CliqueCatalog(g.n, tuple(map(tuple, per)),
                         tuple(memoryview(m).toreadonly() for m in masks))


def _extend(adj: tuple[int, ...], per: list[list[Clique]], masks: list[array], limit: int,
            q: Clique, common: int, cand: int) -> None:
    """Append q extended by each candidate w, lowest first, to per and its
    common neighbourhood common & adj[w] to masks, and extend each such
    clique by the candidates above w in that neighbourhood; a clique of
    limit vertices, or one with no candidate left, makes no call.  So each
    clique appears exactly once and each per-size list comes out in
    lexicographic order.  A mask costs one AND and 8 bytes a clique."""
    size = len(q) + 1
    out, out_common = per[size], masks[size]
    while cand:
        low = cand & -cand
        w = low.bit_length() - 1
        cand ^= low
        clique = (*q, w)
        nw = common & adj[w]
        out.append(clique)
        out_common.append(nw)
        if size < limit and cand & nw:
            _extend(adj, per, masks, limit, clique, nw, cand & nw)


def _require_listing_budget(g: Graph, k_max: int) -> None:
    """Raise CliqueBudgetExceeded if g has more than LISTING_BUDGET cliques of
    up to k_max vertices; lists nothing.  A graph of at most 19 vertices has
    at most 2**n - 1 cliques, within the budget, and is passed at once."""
    if (1 << g.n) - 1 <= LISTING_BUDGET:
        return
    limit = max(0, min(k_max, g.n))
    if sum(comb(g.n, j) for j in range(1, limit + 1)) > LISTING_BUDGET:
        listed = sum(clique_counts(g)[:limit])
        if listed > LISTING_BUDGET:
            raise CliqueBudgetExceeded(
                f"listing the cliques of up to {limit} vertices would list {listed} "
                f"cliques, over the budget of {LISTING_BUDGET}"
            )


def _stored_catalog(g: Graph, k_max: int) -> CliqueCatalog:
    """The largest catalog listed for g, kept in its counting state, holding
    every clique of up to k_max vertices and maybe larger ones: the identity
    checks read the k-cliques, k <= k_max, as its cliques(k).

    Its size limit is len(catalog.by_size) - 1.  It answers any k_max up to
    that limit, and any k_max at all once that limit reaches the clique
    number; a larger k_max lists again through enumerate_cliques, under its
    budget, and replaces it.
    """
    counting = _counting(g)
    catalog = counting.catalog
    if catalog is not None:
        have = len(catalog.by_size) - 1
        if k_max <= have or have >= len(clique_counts(g)):
            return catalog
    catalog = counting.catalog = enumerate_cliques(g, k_max)
    return catalog


def clique_counts_in(adj: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """(c_1, ..., c_omega) of the subgraph that the vertex bitmask mask induces.

    adj holds symmetric bit rows, such as Graph.adj.  Nothing is listed,
    counts stay exact Python ints, and nothing is kept after the call.

    A mask of fewer than _PIVOT_MIN_SIZE vertices, most of the masks that
    the identity checks ask for, is grown straight into its row by the
    depth-first count, with no memo entry and no pivot: a clique is extended
    only by common neighbours below its smallest vertex, so each is counted
    once, and a node adds the size of its candidate set to the next clique
    size.  Candidate sets of at most three vertices are counted in closed
    form, without a node of their own (see _grow).

    A larger candidate set S is split on a pivot u, the candidate with the
    most neighbours in S, and of those the highest vertex.  A clique of S
    either avoids every non-neighbour of u, and then it is a clique of
    S & N(u) with or without u; or its highest non-neighbour w of u is in
    it, and then the rest is a clique of S_w & N(w), where S_w is S without
    u and without the non-neighbours above w.  So

        C(S) = (1 + x) C(S & N(u)) + sum over w of x C(S_w & N(w)),

    each term counted by the same rule, and memoised on its candidate set in
    a dict made for this call alone, not in a graph's store (see _Counting),
    since no graph is given.  A universal vertex is a pivot with no
    non-neighbours, and on a complete multipartite graph every S_w & N(w)
    equals S & N(u), so both take one memo entry per level.  A node sums its
    terms packed, at the lane of as many vertices as adj has rows (_poly_of);
    the terms below the cutoff are grown into one row by the depth-first
    count and packed once.  The count is decoded once, by _coefficients.
    """
    limit = min(len(adj), MAX_VERTICES)
    if mask < 0 or mask >> limit:
        raise ValueError(f"mask has bits outside 0..{limit - 1}")
    lane = _lane(limit)
    return tuple(_coefficients(_poly_of(adj, mask, {}, lane), lane))[1:]


def _grow(adj: tuple[int, ...], row: list[int], size: int, cand: int) -> None:
    """Add the cliques that extend a (size - 1)-clique by candidates to row.

    Each candidate w, highest first, starts the cliques whose next vertex
    is w, and the candidates below w adjacent to it extend those.  Up to three
    such candidates are counted in place: t of them give t cliques of one
    vertex more, e edges among them e cliques of two more, and three edges
    one clique of three more.  Only four or more candidates recurse.
    """
    row[size] += cand.bit_count()
    size += 1
    c = cand
    while c:
        w = c.bit_length() - 1
        c ^= _BIT[w]
        nxt = c & adj[w]
        if not nxt:
            continue
        t = nxt.bit_count()
        if t == 1:
            row[size] += 1
        elif t == 2:
            row[size] += 2
            if adj[nxt.bit_length() - 1] & nxt:
                row[size + 1] += 1
        elif t == 3:
            row[size] += 3
            a = nxt.bit_length() - 1
            rest = nxt ^ _BIT[a]
            e = (adj[a] & rest).bit_count()
            if adj[rest.bit_length() - 1] & rest:
                e += 1
            if e:
                row[size + 1] += e
                if e == 3:
                    row[size + 2] += 1
        else:
            _grow(adj, row, size, nxt)


def _poly_of(adj: tuple[int, ...], cand: int, memo: dict[int, int], lane: int) -> int:
    """C(G[cand], x) packed at lane bits a coefficient (_pack); the count of
    each pivot node is memoised in memo, keyed by its candidate set.  memo
    is a dict of the call's own or a graph's store, whose entries are the
    same packed counts keyed by mask (see _Counting), so a node found there
    was counted by an earlier read of the graph.

    A set below the cutoff grows its row and packs it.  A pivot node writes
    the recurrence as sums of packed counts: inner + (inner << lane) is
    (1 + x) C(S & N(u)) for inner = C(S & N(u)), a non-neighbour's set at or
    above the cutoff adds its count shifted by one lane, and those below it
    grow one row, packed once.  No partial sum can carry: every term is a
    polynomial with non-negative coefficients, and the terms add up to
    C(G[cand]), whose coefficients are at most C(n, n // 2) < 2**lane for a
    graph on n vertices at its lane _lane(n).
    """
    size = cand.bit_count()
    if size < _PIVOT_MIN_SIZE:
        row = [0] * (size + 1)
        row[0] = 1
        if cand:
            _grow(adj, row, 1, cand)
        return _pack(row, lane)
    known = memo.get(cand)
    if known is not None:
        return known
    # The pivot has the most neighbours in cand, ties going to the highest
    # vertex, the first met.  Over the 360 dense_poly reference graphs, one
    # count each with a memo of its own, that takes 738 149 _grow calls and
    # 87 758 pivot nodes; ties going to the lowest vertex take 763 937 and
    # 88 444, and global degree as a second key, then the highest vertex,
    # 745 394 calls with the higher degree first and 748 785 with the lower.
    # The labelling-free key does not do better, so the highest vertex stays.
    best = -1
    c = cand
    while c:
        w = c.bit_length() - 1
        c ^= _BIT[w]
        d = (cand & adj[w]).bit_count()
        if d > best:
            best, u = d, w
            if d == size - 1:
                break
    nb = adj[u]
    inner = _poly_of(adj, cand & nb, memo, lane)
    packed = inner + (inner << lane)
    row = [0] * (size + 1)
    left = cand ^ _BIT[u]
    rest = left & ~nb
    while rest:
        w = rest.bit_length() - 1
        bit = _BIT[w]
        rest ^= bit
        sub = left & adj[w]
        if sub.bit_count() >= _PIVOT_MIN_SIZE:
            packed += _poly_of(adj, sub, memo, lane) << lane
        else:
            row[1] += 1
            if sub:
                _grow(adj, row, 2, sub)
        left ^= bit
    packed = memo[cand] = packed + _pack(row, lane)
    return packed


def _subset_table(adj: tuple[int, ...], lane: int) -> list[int]:
    """C(G[S], x) for every mask S of the vertices below the top one of the
    rows adj, packed at lane bits a coefficient, the graph's lane.

    Vertex v's step extends the table of the vertices below v to the masks
    that hold v by the vertex recurrence, C(G[S + v]) = C(G[S]) + x C(G[S & N(v)]),
    where S & N(v) lies below v and is already in the table; shifting a
    packed polynomial by one lane multiplies it by x.  The top vertex's step
    is left to each read (see _Counting): it would double the table, and a
    graph is asked far fewer counts than that.
    """
    table = [1]
    for row in adj[:-1]:
        table += [p + (table[s & row] << lane) for s, p in enumerate(table)]
    return table


class _Counting:
    """One graph's counting state, kept in g.memo.cliques (see _counting):
    adj, the graph's rows; lane, _lane(n); read, its packed reader; subset,
    its subset table or None; store, the reader's dict of packed counts
    keyed by mask, or None where there is a table; counts, C(G)'s counts
    (c_1, ..., c_omega), None until clique_counts unpacks them once;
    catalog, the largest catalog listed for the identity checks
    (_stored_catalog) or None; and splits, C(G - E(Q)) packed, keyed by the
    clique Q's mask (split, the one writer).

    read(mask) is C(G[mask], x) packed at lane bits a coefficient, in one
    Python call.  A graph of at most _SUBSET_TABLE_MAX_N vertices, the gate
    as it is when the state is made, reads its subset table, packed at the
    same lane: a mask that holds the top vertex t, which the table leaves
    out, is C(G[S]) + x C(G[S & N(t)]) for S = mask - t, two entries of the
    table.
    A larger graph has no table: the reader reads a mask from the store,
    or counts it with the kernel, _poly_of, and keeps the packed count as
    it comes, so each mask is counted once per graph.  The store is also
    the kernel's pivot memo, under two rules.  The first read passes a
    throwaway memo, so a graph asked one count keeps one entry.  Every
    later read passes the store while it holds fewer than _STORE_MAX
    entries, so the kernel keeps its pivot nodes there and finds those of
    earlier reads; a read past the bound passes a throwaway memo again and
    adds only its own mask.  The reader closes over the table or the store
    and the rows, and the state holds no Graph, so it keeps nothing alive
    that the memo does not.
    """

    __slots__ = ("adj", "lane", "read", "subset", "store", "counts", "catalog", "splits")

    def __init__(self, g: Graph) -> None:
        adj = self.adj = g.adj
        lane = self.lane = _lane(g.n)
        self.store = self.counts = self.catalog = None
        self.splits: dict[int, int] = {}
        if g.n <= _SUBSET_TABLE_MAX_N:
            table = self.subset = _subset_table(adj, lane)
            top = len(table)  # the bit of the top vertex
            last = adj[-1] if adj else 0

            def read(mask: int) -> int:
                if mask < top:
                    return table[mask]
                mask ^= top
                return table[mask] + (table[mask & last] << lane)
        else:
            self.subset = None
            known = self.store = {}
            get = known.get

            def read(mask: int) -> int:
                packed = get(mask)
                if packed is None:
                    memo = known if 0 < len(known) < _STORE_MAX else {}
                    packed = known[mask] = _poly_of(adj, mask, memo, lane)
                return packed
        self.read = read

    def split(self, without: int) -> int:
        """C(G - E(Q), x) packed, for the clique Q = without (0 for none),
        split once per graph and kept in splits, which every reader of it
        shares.

        Keep Q's highest vertex and eliminate the others, Q': a clique of
        G - E(Q) holds at most one vertex of Q, so by the vertex recurrence
        at each vertex of Q'

            C(G - E(Q)) = C(G - Q') + x sum over q in Q' of C(G[N(q) - Q]),

        and no term has a deleted edge.  Each term is read as a plain mask
        over the graph's own rows, and the terms are summed packed: every
        coefficient of the sum is a count of a subgraph, so it cannot carry.
        """
        packed = self.splits.get(without)
        if packed is None:
            read, adj = self.read, self.adj
            # Q's highest vertex stays (an empty Q has none) and the rest go
            eliminated = without ^ (1 << without.bit_length() >> 1)
            first = read(((1 << len(adj)) - 1) ^ eliminated)
            packed = 0
            while eliminated:
                low = eliminated & -eliminated
                eliminated ^= low
                packed += read(adj[low.bit_length() - 1] & ~without)
            packed = self.splits[without] = first + (packed << self.lane)
        return packed

    def add(self, counts: Iterable[int], shift: int = 0, coeff: int = 1,
            row: Polynomial | None = None) -> Polynomial:
        """row (by default n + 1 zeros) plus coeff * x**shift times the sum
        of the packed counts, in place, and returned.  They are summed
        packed, _PACKED_UNITS at a time so that no sum carries, and each sum
        is unpacked into the row once."""
        if row is None:
            row = [0] * (len(self.adj) + 1)
        counts = iter(counts)
        lane = self.lane
        # every packed count has the constant term 1, so only an empty batch sums to 0
        while packed := sum(itertools.islice(counts, _PACKED_UNITS)):
            for j, c in enumerate(_coefficients(packed, lane), shift):
                row[j] += coeff * c
        return row

    def term(self, mask: int, r: int, coeff: int = 1) -> int:
        """coeff * x**r * C(G[mask], x) packed."""
        return coeff * self.read(mask) << self.lane * r

    def coefficient(self, packed: int, k: int) -> int:
        """Coefficient k of a packed sum that does not carry."""
        return packed >> k * self.lane & (1 << self.lane) - 1

    def pack(self, row: Polynomial) -> int | None:
        """row packed at this graph's lane (_pack)."""
        return _pack(row, self.lane)

    def unpack(self, packed: int) -> tuple[int, ...]:
        """(c_1, ..., c_omega) of a packed count, whose constant term is 1."""
        return tuple(_coefficients(packed, self.lane))[1:]


def _pack(row: Sequence[int], lane: int) -> int | None:
    """row, coefficient of x**k at index k, packed at lane bits a
    coefficient: its value at x = 2**lane, or None if a coefficient is
    negative or does not fit in lane bits and would carry into the next.
    The one encoder of packed counts."""
    packed = 0
    for c in reversed(row):
        if c >> lane:
            return None
        packed = packed << lane | c
    return packed


def _coefficients(packed: int, lane: int) -> Iterator[int]:
    """The coefficients of a packed sum that does not carry, lowest first,
    up to its highest nonzero one: the one decoder of packed counts."""
    field = (1 << lane) - 1
    while packed:
        yield packed & field
        packed >>= lane


def _counting(g: Graph) -> _Counting:
    """g's counting state, made on first use and kept in g.memo.cliques."""
    memo = g.memo
    counting = memo.cliques
    if counting is None:
        counting = memo.cliques = _Counting(g)
    return counting


def clique_counts(g: Graph) -> tuple[int, ...]:
    """(c_1, ..., c_omega): the number of k-cliques for each size, read
    packed once per graph and kept in its counting state."""
    counting = _counting(g)
    counts = counting.counts
    if counts is None:
        counts = counting.counts = counting.unpack(counting.read((1 << g.n) - 1))
    return counts


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
    """Whether the distinct vertices form a nonempty clique: the set's mask
    lies in the closed neighbourhood of each of its vertices.  Every id is
    range-checked first, so an id out of range raises even where ids repeat."""
    vs = tuple(vertices)
    mask = 0
    common = -1  # the vertices in every closed neighbourhood N[v] seen so far
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        bit = 1 << v
        mask |= bit
        common &= g.adj[v] | bit
    return 0 < mask.bit_count() == len(vs) and common & mask == mask


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
