"""Bit-row graphs: parsing, serialization, deletions, neighborhoods, random generation.

Vertices are 0..n-1 with n <= 64, so every adjacency row fits in one machine
word and vertex-set operations are single-int bit operations.  Graph values
are immutable; every operation is a pure function returning a new Graph.
"""

from __future__ import annotations

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


def edge(u: int, v: int) -> EdgeRef:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return EdgeRef(u, v) if u < v else EdgeRef(v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; adj[v] is the neighbor bitmask of vertex v."""

    n: int
    adj: tuple[int, ...]
    m: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if not isinstance(self.adj, tuple):
            object.__setattr__(self, "adj", tuple(self.adj))
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count differs from vertex count")
        full = (1 << self.n) - 1
        total = 0
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{self.n - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            total += row.bit_count()
            c = row
            while c:
                low = c & -c
                w = low.bit_length() - 1
                c ^= low
                if not self.adj[w] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {w}")
        object.__setattr__(self, "m", total // 2)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @cached_property
    def graph6(self) -> str:
        """to_graph6(self), encoded once per Graph object."""
        return to_graph6(self)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.adj[v]))

    def edges(self) -> list[EdgeRef]:
        out = []
        for u in range(self.n):
            above = self.adj[u] >> (u + 1) << (u + 1)
            out.extend(EdgeRef(u, v) for v in bits(above))
        return out


# -- named small graphs -----------------------------------------------------

def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    if g.n + h.n > MAX_VERTICES:
        raise ValueError("union exceeds the vertex cap")
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


# -- graph6 codec -----------------------------------------------------------
#
# One printable character per 6 bits, offset by 63.  The vertex count comes
# first (one character for n <= 62, '~' + three characters otherwise), then
# the upper triangle of the adjacency matrix column by column:
# x(0,1), x(0,2), x(1,2), x(0,3), ..., MSB first, zero-padded to a multiple
# of six bits.

def parse_graph6(text: str) -> Graph:
    """Decode a single graph6 line; an optional '>>graph6<<' header is allowed."""
    s = text.strip()
    if s.startswith(_GRAPH6_HEADER):
        s = s[len(_GRAPH6_HEADER):].strip()
    if not s:
        raise GraphFormatError("empty graph6 input")
    data = []
    for ch in s:
        c = ord(ch) - 63
        if not 0 <= c <= 63:
            raise GraphFormatError(f"invalid graph6 character {ch!r}")
        data.append(c)
    if data[0] < 63:
        n, pos = data[0], 1
    else:
        if len(data) < 4:
            raise GraphFormatError("truncated graph6 vertex-count field")
        if data[1] == 63:
            raise GraphFormatError(f"vertex count exceeds {MAX_VERTICES}")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        pos = 4
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - pos != need:
        raise GraphFormatError(
            f"expected {need} adjacency characters, got {len(data) - pos}"
        )
    stream = 0
    for c in data[pos:]:
        stream = stream << 6 | c
    total = 6 * need
    if stream & ((1 << (total - nbits)) - 1):
        raise GraphFormatError("nonzero padding bits")
    rows = [0] * n
    start = 0
    for col in range(1, n):
        # bits for pairs (0, col)..(col-1, col) sit at stream offsets
        # start..start+col-1, row 0 first
        chunk = stream >> (total - start - col) & ((1 << col) - 1)
        while chunk:
            low = chunk & -chunk
            b = low.bit_length() - 1
            chunk ^= low
            row = col - 1 - b
            rows[row] |= 1 << col
            rows[col] |= 1 << row
        start += col
    return Graph(n, tuple(rows))


def to_graph6(g: Graph) -> str:
    """Encode a graph as one canonical graph6 line (round-trips bit-for-bit)."""
    if g.n <= 62:
        out = [g.n]
    else:
        out = [63, g.n >> 12 & 63, g.n >> 6 & 63, g.n & 63]
    stream = 0
    for col in range(1, g.n):
        # column col of the upper triangle, row 0 as the most significant
        # bit, is the bit-reversal of the low part of the (symmetric) row
        rev = 0
        c = g.adj[col] & ((1 << col) - 1)
        while c:
            low = c & -c
            rev |= 1 << (col - 1 - (low.bit_length() - 1))
            c ^= low
        stream = stream << col | rev
    nbits = g.n * (g.n - 1) // 2
    need = (nbits + 5) // 6
    stream <<= 6 * need - nbits
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
    if not 0 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    rows = [0] * n
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
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: vertex id outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# -- deletions and neighborhoods ---------------------------------------------

def delete_vertex(g: Graph, v: int) -> Graph:
    """Induced subgraph on V - {v}; vertices above v shift down by one."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    low = (1 << v) - 1
    rows = []
    for u in range(g.n):
        if u == v:
            continue
        r = g.adj[u]
        rows.append((r & low) | (r >> (v + 1)) << v)
    return Graph(g.n - 1, tuple(rows))


def edge_deleted_adj(g: Graph, edge_set: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Adjacency rows of g with exactly the given edges deleted, every vertex kept.

    The rows of delete_edge_set(g, edge_set), without building (and so
    without re-validating) a Graph: the counting kernel takes them as they are.
    """
    rows = list(g.adj)
    for u, v in {edge(*e) for e in edge_set}:
        if not (0 <= u and v < g.n and g.adj[u] >> v & 1):
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return tuple(rows)


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    return Graph(g.n, edge_deleted_adj(g, [e]))


def delete_edge_set(g: Graph, edge_set: Iterable[tuple[int, int]]) -> Graph:
    """Delete exactly the given edges, keeping every vertex."""
    return Graph(g.n, edge_deleted_adj(g, edge_set))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on the given vertex set, re-indexed in sorted order."""
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise ValueError("vertex id out of range")
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
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        acc = g.adj[v] if acc is None else acc & g.adj[v]
    if acc is None:
        raise ValueError("common neighborhood of the empty set is rejected")
    return acc


def common_neighborhood(g: Graph, vertices: Iterable[int]) -> set[int]:
    return set(bits(common_neighborhood_bits(g, vertices)))


def neighborhood_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """The subgraph induced by the common neighborhood of the given set."""
    return induced_subgraph(g, bits(common_neighborhood_bits(g, vertices)))


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
    """All triangles as sorted vertex triples, in lexicographic order."""
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
    """PRNG seed plus algorithm tag; equal specs give identical streams everywhere."""

    seed: int
    algorithm: str = RNG_ALGORITHM


class Splitmix64:
    """The splitmix64 generator: 64-bit state, platform-independent output."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def random_gnp(n: int, p: float, rng: RngSpec) -> Graph:
    """G(n, p): each pair {u, v} with u < v, visited in lexicographic order,
    costs exactly one PRNG draw and is included iff draw < p * 2**64.

    The threshold is exact for any float p (multiplying a double by 2**64
    only shifts its exponent), so p = 0 and p = 1 behave exactly.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    if rng.algorithm != RNG_ALGORITHM:
        raise ValueError(f"unknown PRNG algorithm {rng.algorithm!r}")
    threshold = int(p * 2.0**64)
    stream = Splitmix64(rng.seed)
    rows = [0] * n
    for u in range(n - 1):
        for v in range(u + 1, n):
            if stream.next_u64() < threshold:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))
