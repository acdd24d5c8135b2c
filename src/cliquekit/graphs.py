"""Bit-row graphs: parsing, serialization, deletions, neighborhoods, random generation.

Vertices are 0..n-1 with n <= 64, so every adjacency row fits in one machine
word and vertex-set operations are single-int bit operations.  Graph values
are immutable; every operation is a pure function returning a new Graph.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

MAX_VERTICES = 64

_MASK64 = (1 << 64) - 1
_GRAPH6_HEADER = ">>graph6<<"


class GraphFormatError(ValueError):
    """Malformed graph6 or edge-list input."""


def bits(x: int) -> Iterator[int]:
    """Positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class EdgeRef(NamedTuple):
    """An undirected edge with u < v (build via edge() to normalize)."""

    u: int
    v: int


def _integer(value, what: str) -> int:
    """value, if it is an int and not a bool; otherwise a ValueError naming what."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _vertex(n: int, v) -> int:
    """v, if it is a vertex id of a graph on n vertices: an int, not a bool, in
    0..n-1.  The one check of an id that enters from outside the package."""
    if not 0 <= _integer(v, "vertex id") < n:
        raise ValueError(f"vertex {v} out of range")
    return v


def _vertex_count(n) -> int:
    """n, if it is a vertex count: an int, not a bool, in 0..MAX_VERTICES.
    The one check of a count that enters from outside the package."""
    if not 0 <= _integer(n, "vertex count") <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    return n


def _probability(p) -> float:
    """p, if it is an edge probability: an int or a float, not a bool, in
    [0, 1] (NaN is refused).  The one check of a probability."""
    if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0 <= p <= 1:
        raise ValueError(f"edge probability must be a number in [0, 1], got {p!r}")
    return p


def _seed(seed) -> int:
    """seed, if it is a splitmix64 seed: an int, not a bool, in 0..2**64-1
    (a seed outside would alias one inside).  The one check of a seed."""
    if not 0 <= _integer(seed, "seed") <= _MASK64:
        raise ValueError(f"seed {seed} outside 0..2**64-1")
    return seed


def edge(u: int, v: int) -> EdgeRef:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return EdgeRef(u, v) if u < v else EdgeRef(v, u)


def _transpose_rounds() -> tuple[tuple[int, int], ...]:
    """(mask, shift) of each swap round of _transpose.

    Round k exchanges bit k of the column index with bit k of the row index:
    the mask selects the positions 64 * i + j whose column j has bit k set
    and whose row i has it clear, and the shift, 63 * 2**k, carries each of
    them to the position whose row and column differ from it in bit k.
    """
    rounds = []
    for k in range(6):
        span = 1 << k
        cols = int(("1" * span + "0" * span) * (32 >> k), 2)
        block = cols.to_bytes(8, "little") * span + bytes(8 * span)
        rounds.append((int.from_bytes(block * (32 >> k), "little"), 63 * span))
    return tuple(rounds)


_TRANSPOSE_ROUNDS = _transpose_rounds()


def _transpose(rows: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """The transpose of a square bit matrix of at most 64 rows, each in 0..2**n-1.

    Warren's block-swap transpose (Hacker's Delight, section 7-3): the rows
    are packed into one int at a stride of 64 bits, so bit j of row i sits
    at position 64 * i + j, and six masked delta swaps move it to 64 * j + i.
    """
    n = len(rows)
    x = int.from_bytes(struct.pack(f"<{n}Q", *rows), "little")
    for mask, shift in _TRANSPOSE_ROUNDS:
        t = (x >> shift ^ x) & mask
        x ^= t | t << shift
    return struct.unpack(f"<{n}Q", x.to_bytes(8 * n, "little"))


def _raise_first_fault(adj: tuple[int, ...]) -> None:
    """Raise the error for the first fault of rows that are not a Graph's,
    scanning them row by row and each row's neighbors in ascending order."""
    n = len(adj)
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            raise ValueError(f"row {v} has bits outside 0..{n - 1}")
        if row >> v & 1:
            raise ValueError(f"self-loop at vertex {v}")
        for w in bits(row):
            if not adj[w] >> v & 1:
                raise ValueError(f"asymmetric adjacency between {v} and {w}")


class _Memo:
    """What cliquekit counted and listed over one Graph (Graph.memo), one
    slot per layer, each None until that layer fills it with its own
    per-graph object:

    cliques: cliquekit.cliques' counting state (cliques._Counting).
    identities: cliquekit.identities' expansion context (identities._Terms).

    Everything lives exactly as long as the Graph; cliquekit keeps nothing
    at module level.
    """

    __slots__ = ("cliques", "identities")

    def __init__(self) -> None:
        self.cliques = self.identities = None


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; adj[v] is the neighbor bitmask of vertex v.

    Construction validates the rows: each row is checked for bits outside
    0..n-1 and for a self-loop, and symmetry is checked at once by comparing
    the rows with their transpose.  Rows that fail are scanned again row by
    row, edge by edge, so the error names the first fault in that order.
    """

    n: int
    adj: tuple[int, ...]
    m: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _vertex_count(self.n)
        if not isinstance(self.adj, tuple):
            object.__setattr__(self, "adj", tuple(self.adj))
        adj = self.adj
        if len(adj) != self.n:
            raise ValueError("adjacency row count differs from vertex count")
        outside = ~((1 << self.n) - 1)
        if (any(row & outside or row >> v & 1 for v, row in enumerate(adj))
                or _transpose(adj) != adj):
            _raise_first_fault(adj)
        object.__setattr__(self, "m", sum(map(int.bit_count, adj)) // 2)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * _vertex_count(n)
        for u, v in edges:
            u, v = edge(_vertex(n, u), _vertex(n, v))
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @cached_property
    def graph6(self) -> str:
        """to_graph6(self), encoded once per Graph object."""
        return to_graph6(self)

    @cached_property
    def memo(self) -> _Memo:
        """What was counted and listed over this graph (see _Memo)."""
        return _Memo()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[_vertex(self.n, u)] >> _vertex(self.n, v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[_vertex(self.n, v)].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.adj[_vertex(self.n, v)]))

    def edges(self) -> list[EdgeRef]:
        """The edges in lexicographic order, listed anew on every call."""
        out = []
        for u in range(self.n):
            above = self.adj[u] >> (u + 1) << (u + 1)
            out.extend(EdgeRef(u, v) for v in bits(above))
        return out


# -- named small graphs -----------------------------------------------------

def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * _vertex_count(n))


def complete_graph(n: int) -> Graph:
    full = (1 << _vertex_count(n)) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(_vertex_count(n) - 1)])


def cycle_graph(n: int) -> Graph:
    if _vertex_count(n) < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    return Graph.from_edges(n, [(0, i) for i in range(1, _vertex_count(n))])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


# -- graph6 codec -----------------------------------------------------------
#
# One printable character per 6 bits, offset by 63.  The vertex count comes
# first (one character for n <= 62, '~' + three characters up to 258 047 and
# '~~' + six above; the decoder reads each form and holds n to the cap), then
# the upper triangle of the adjacency matrix column by column:
# x(0,1), x(0,2), x(1,2), x(0,3), ..., MSB first, zero-padded to a multiple
# of six bits.  Column col is the low part of row col read from bit 0 up, so
# both directions move whole columns as bit strings: the decoder reads the
# low parts and takes the high parts from their transpose.

_GRAPH6_BITS = {63 + c: format(c, "06b") for c in range(64)}  # char -> its six bits


def parse_graph6(text: str) -> Graph:
    """Decode a single graph6 line; an optional '>>graph6<<' header is allowed."""
    s = text.strip()
    if s.startswith(_GRAPH6_HEADER):
        s = s[len(_GRAPH6_HEADER):].strip()
    if not s:
        raise GraphFormatError("empty graph6 input")
    if min(s) < "?" or max(s) > "~":
        bad = next(ch for ch in s if not "?" <= ch <= "~")
        raise GraphFormatError(f"invalid graph6 character {bad!r}")
    if s[0] != "~":
        n, pos = ord(s[0]) - 63, 1
    else:
        # n in 18 bits after one '~', or in 36 bits after two
        start, pos = (2, 8) if s[1:2] == "~" else (1, 4)
        if len(s) < pos:
            raise GraphFormatError("truncated graph6 vertex-count field")
        n = int(s[start:pos].translate(_GRAPH6_BITS), 2)
    try:  # before the adjacency field is sized
        _vertex_count(n)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - pos != need:
        raise GraphFormatError(
            f"expected {need} adjacency characters, got {len(s) - pos}"
        )
    # the stream reversed: x(r, col) is bit col * (col - 1) / 2 + r, padding above nbits
    stream = int(s[pos:].translate(_GRAPH6_BITS)[::-1] or "0", 2)
    if stream >> nbits:
        raise GraphFormatError("nonzero padding bits")
    low = [stream >> (col * (col - 1) // 2) & ((1 << col) - 1) for col in range(n)]
    return Graph(n, tuple(a | b for a, b in zip(low, _transpose(low))))


def to_graph6(g: Graph) -> str:
    """Encode a graph as one canonical graph6 line (round-trips bit-for-bit)."""
    if g.n <= 62:
        out = [g.n]
    else:
        out = [63, g.n >> 12 & 63, g.n >> 6 & 63, g.n & 63]
    columns = "".join(
        format(g.adj[col] & ((1 << col) - 1), f"0{col}b")[::-1] for col in range(1, g.n)
    )
    nbits = len(columns)
    need = (nbits + 5) // 6
    stream = int(columns or "0", 2) << (6 * need - nbits)
    out.extend(stream >> 6 * (need - 1 - i) & 63 for i in range(need))
    return "".join(chr(c + 63) for c in out)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: first line is n, then one 'u v' per line.

    The explicit first-line count makes isolated vertices representable;
    duplicate edge lines are idempotent.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GraphFormatError("missing vertex-count line")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphFormatError(f"vertex count is not an integer: {lines[0]!r}") from None
    try:
        rows = [0] * _vertex_count(n)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer token in {line!r}") from None
        try:
            u, v = edge(_vertex(n, u), _vertex(n, v))
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# -- deletions and neighborhoods ---------------------------------------------

def delete_vertex(g: Graph, v: int) -> Graph:
    """Induced subgraph on V - {v}; vertices above v shift down by one."""
    low = (1 << _vertex(g.n, v)) - 1
    rows = []
    for u in range(g.n):
        if u == v:
            continue
        r = g.adj[u]
        rows.append((r & low) | (r >> (v + 1)) << v)
    return Graph(g.n - 1, tuple(rows))


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    return delete_edge_set(g, [e])


def delete_edge_set(g: Graph, edge_set: Iterable[tuple[int, int]]) -> Graph:
    """Delete exactly the given edges, keeping every vertex.

    Every id is checked (_vertex) before any edge is read, so an id out of
    range is refused first; then a self-loop, then a pair that is not an edge
    of g, raises ValueError.
    """
    rows = list(g.adj)
    for u, v in {edge(_vertex(g.n, u), _vertex(g.n, v)) for u, v in edge_set}:
        if not g.adj[u] >> v & 1:
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on the given vertex set, re-indexed in sorted order."""
    vs = sorted({_vertex(g.n, v) for v in vertices})
    rows = []
    for a in vs:
        r = 0
        for j, b in enumerate(vs):
            if g.adj[a] >> b & 1:
                r |= 1 << j
        rows.append(r)
    return Graph(len(vs), tuple(rows))


def common_neighborhood_bits(g: Graph, vertices: Iterable[int]) -> int:
    """Bitmask of the vertices adjacent to every member of the (nonempty) set."""
    acc = None
    for v in vertices:
        row = g.adj[_vertex(g.n, v)]
        acc = row if acc is None else acc & row
    if acc is None:
        raise ValueError("common neighborhood of the empty set is rejected")
    return acc


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = 1
    while True:
        grown = seen
        for v in bits(seen):
            grown |= g.adj[v]
        if grown == seen:
            break
        seen = grown
    return seen == (1 << g.n) - 1


# -- triangles ---------------------------------------------------------------

def triangles(g: Graph) -> list[tuple[int, int, int]]:
    """All triangles as sorted vertex triples, in lexicographic order, listed
    anew on every call."""
    out = []
    for u in range(g.n):
        for v in bits(g.adj[u] >> (u + 1) << (u + 1)):
            common = g.adj[u] & g.adj[v]
            out.extend((u, v, w) for w in bits(common >> (v + 1) << (v + 1)))
    return out


def triangle_graph(g: Graph) -> Graph:
    """One vertex per triangle of g; two are adjacent iff the triangles share an edge."""
    tris = triangles(g)
    if len(tris) > MAX_VERTICES:
        raise ValueError(
            f"triangle count {len(tris)} exceeds the representation bound {MAX_VERTICES}"
        )
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in tris]
    pairs = [
        (i, j)
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
        if (masks[i] & masks[j]).bit_count() == 2
    ]
    return Graph.from_edges(len(tris), pairs)


# -- seeded random graphs ----------------------------------------------------

RNG_ALGORITHM = "splitmix64"


@dataclass(frozen=True)
class RngSpec:
    """The seed of a splitmix64 stream (RNG_ALGORITHM, the only generator);
    equal specs give identical streams everywhere."""

    seed: int


class Splitmix64:
    """The splitmix64 generator: 64-bit state, platform-independent output.

    The seed must lie in 0..2**64-1 (_seed).
    """

    def __init__(self, seed: int) -> None:
        self._state = _seed(seed)

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def random_gnp(n: int, p: float, rng: RngSpec) -> Graph:
    """G(n, p): each pair {u, v} with u < v, visited in lexicographic order,
    costs exactly one draw of the splitmix64 stream seeded by rng.seed and is
    included iff draw < p * 2**64.

    The threshold is exact for any float p (multiplying a double by 2**64
    only shifts its exponent), so p = 0 and p = 1 behave exactly.
    """
    threshold = int(_probability(p) * 2.0**64)
    rows = [0] * _vertex_count(n)
    stream = Splitmix64(rng.seed)
    for u in range(n - 1):
        for v in range(u + 1, n):
            if stream.next_u64() < threshold:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))
