"""Exact checks for the clique-counting recurrences, deck identities,
derivative formulas and open conjectures, and the check catalog they make.

Each identity is declared once, beside its body, by _identity: its id, its
class ('theorem' or 'conjecture'), its instance kind and, only where the
kind's default does not fit, its renderer.  The body evaluates one instance
to a verdict: the tuple (holds, lhs, rhs), whether the sides agree (None
where the identity does not apply to the graph) and the sides as computed.
A verdict holds no params dict, no copy or trimmed form of a side and no
Graph, so it costs little more than deciding holds.  It becomes an
IdentityReport only when rendered: the identity's public function returns
the rendered report instead of asserting, so the same machinery serves
regression tests and conjecture exploration, and its CheckDef (CATALOG
holds them in catalog order) renders only where a report is read.  All
comparisons are exact integer polynomial or count equality; divisions are
avoided by using binomial-scaled derivatives and cross-multiplied forms.

The left side is clique_polynomial(g).  Each count is of a vertex mask over
g's rows, with or without the edges of a clique (a mask too, whose count
cliquekit.cliques sums from masks over the same rows), so no check builds a
subgraph or edits a row.  Every count is read packed through g's one
counting state (cliquekit.cliques._counting), C(x) at x = 2**lane with
lane bits a coefficient, whatever the size of g, on both sides of the
subset table's gate.  That state owns the format: a term
coeff x**r C(G[mask]) is read through _Counting.term, a clique's own term
of the expansion included, a clique's split through _Counting.split, a
coefficient of a packed sum through _Counting.coefficient, and a row is
packed by _Counting.pack, so this module does no lane arithmetic.  The
state also splits C(G - E(Q)) of a clique Q into masks once per graph and
keeps it: the expansion's verdicts, the decks of r >= 2 and
triangle_deletion_counts read the same entry.  What this module keeps of a
graph it keeps in one expansion context (_Terms, Graph.memo.identities).

Every theorem verdict that compares polynomials is decided by comparing
packed integers, with nothing unpacked where it holds:
- the vertex recurrence: C(G - v) plus the term x C(G[N(v)]), against C(G);
- the derivative formulas (first, second and third, and kth_derivative):
  the divided r-th derivative of C(G), packed, against the sum of
  C(G[N(Q)]) over the r-cliques Q, each N(Q) as the catalog keeps it
  (_derivative_verdict);
- the expansion, whose verdict for a clique is also the edge recurrence's
  and the triangle identity's for edges and triangles, and the
  edge-subsets reading's for every clique of at most three vertices: C(G)
  plus its odd-r terms against C(G - Q) plus its even-r terms, compared
  inline in _deletion_verdict once per clique and graph (_Terms.deletions,
  keyed by the clique's vertex mask, as it is listed or parsed);
- triangle_deletion_counts: its formula for c_1..c_4 of G - d, packed,
  against the split C(G - E(d)); a formula coefficient that is negative or
  past the lane packs to None, and only then, or where the integers differ,
  is the split unpacked.
A packed sum is exact only while no coefficient reaches 2**lane, which a
sum of at most cliquekit.cliques._PACKED_UNITS counts never does.  The
vertex recurrence adds two counts, and the expansion is compared packed
only for the clique kind's sizes, 2 to 4 vertices (_CLIQUE_SIZES), whose
sides sum at most 10 counts.  A derivative is
compared packed only where its right side sums at most _PACKED_UNITS counts
and every coefficient of its left side is below 2**lane (the carry guard):
the second derivative of K13 sums 78 counts, and near 64 vertices a left
side can pass the lane.  Equal integers give the held verdict (True, lhs,
tuple(lhs)); the vertex recurrence and the expansion share one per graph
(_Terms.held).  Only a failing verdict, or one past a bound (a clique of
any other size included), builds the right side that a report shows, in
one row of g.n + 1 coefficients (enough for x**r C(G[N(S)], x) with
|S| >= r): cliques._Counting.add sums the packed counts as integers and
unpacks each batch into the row once, times one coefficient, and
_poly_verdict compares the row, kept trimmed as a tuple, with the left
side.

The expansion decides each clique alone, on either side of the subset
table's gate, from the graph's one expansion context (_Terms): C(G)
packed, the held verdict and each subset's term, read once for every
clique that contains it.  Each verdict stores its clique's own term, so a
campaign, which asks the edges, then the triangles, then the 4-cliques,
finds every proper subset's term stored.
The two readings of the expansion coincide on a clique of at most three
vertices, so the edge-subsets reading takes the cliques reading's verdict
there, and only a 4-clique has a verdict of its own under it.  Both
readings build a right side in a row with one routine, which takes the
reading's family of vertex sets (_expansion_verdict) and refuses one
that would sum more than the listing budget's worth of terms.
Likewise each deck is keyed by r, the size of the clique its members
delete: the r-deck is the graphs G - v over the vertices for r = 1 and
G - E(Q) over the r-cliques Q for r >= 2 (G - E(e) over the edges, G - E(d)
over the triangles).  It is summed once per graph into one row of
_Terms.decks under r (its member count at x**0, the sum of the members' c_k
at x**k), and the deck identities and the reversed-polynomial claims read
it.

An instance kind (whole graph, k >= lo, vertex, cliques of some sizes, or
unit) fixes the lister of a graph's instances, the parser, the verify flag
and the report's params key.  The edges, the triangles and the cliques of 2
to 4 vertices are one kind made three times (_cliques): its lister reads
its sizes of the graph's one stored catalog (cliques._stored_catalog), in
lexicographic order, and so do the decks of r >= 2.  The kind of a
check stated only for graphs with no 5-clique is wrapped so that its lister
lists nothing on any other graph (_k5_free).
An instance is validated once, where it enters from outside the program (a
public function's argument or a verify flag's text), by the parser of its
kind.  k is an int (graphs._integer), and every vertex id is read by the
package's one rule for ids, graphs._vertex: the vertex kind calls it, and
cliques._clique_mask calls it for each id of a clique kind.  A vertex set
of a clique kind is read by one rule, so an edge, a triangle and a clique
are rejected alike: first a wrong number of ids, then an id that is not an
int or is out of range, then ids that repeat a vertex or miss an edge, as
not an edge, a triangle or a clique of the graph.  A clique is returned as
its vertex mask, the one shape in which the catalog lists it, a body reads
it and a cache keys it; its vertex ids are decoded (graphs.bits) only
where a report, TriangleIdentityParts or TriangleDeletionCounts shows
them.
A body that reads N(Q) of every clique of a size (the handshake, the
derivative formulas and conjecture 2's test) reads it from the catalog,
which keeps it beside each clique (CliqueCatalog.common_neighborhoods), so
it ANDs no rows.  A body trusts its instance, as the catalog lists it: the
common neighbourhood of one clique or of a subset of it is the AND of the
rows of its mask's members (_common), with no range check.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass, field
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from . import cliques
from .cliques import (
    _PACKED_UNITS,
    Polynomial,
    _clique_mask,
    _counting,
    _require_listing_budget,
    _stored_catalog,
    clique_count,
    clique_counts,
    clique_polynomial,
    poly_divided_derivative,
    poly_normalize,
    poly_reverse,
)
from .graphs import Graph, _integer, _vertex, bits, edge, is_connected

Side = Union[int, list, tuple, None]
Verdict = tuple[Optional[bool], Side, Side]  # (holds, lhs, rhs); holds None: does not apply
Render = Callable[[Graph, object, Verdict], object]
KRange = Optional[tuple[int, int]]

THEOREM = "theorem"
CONJECTURE = "conjecture"


class NotApplicable(ValueError):
    """The graph lies outside the class a check is stated for."""


@dataclass(frozen=True)
class IdentityReport:
    """One verdict: identity id, graph, parameters, both sides, and whether they agree.

    holds is None only where the check does not apply; its JSON is its fields.
    """

    identity: str
    graph6: str
    params: dict = field(default_factory=dict)
    lhs: Side = None
    rhs: Side = None
    holds: Optional[bool] = None

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CheckDef:
    """A catalog entry: id, theorem/conjecture class, and its parameter instances.

    param names the `verify` flag that supplies one instance ('k', 'v', 'e',
    'delta', 'clique' or 'unit'), or is None for checks without a parameter.
    params(g, k_range) lists the instances on g, already normal, and
    check(g, p) evaluates one of them to a verdict, trusting it; an instance
    whose verdict holds None, or whose check raises NotApplicable, does not
    apply.  verdicts(g, instances) states that rule, the only one: reports
    renders what it yields and first_failure reads it up to a failure.
    render(g, p, verdict) renders a verdict as its IdentityReport.
    parse(g, raw) validates one instance from outside the program, such as
    a verify flag's text, with the parser its kind shares with the public
    identity function, and returns it as params lists it (a unit switch is
    taken as given).  k_min is the smallest k a 'k' check takes on any graph.
    run(g, k_range) renders every listed instance that applies; it is an
    init field so that a wrapped runner can replace it.  Left as None, or as
    another entry's default, it is this entry's own reports, so an entry
    made by dataclasses.replace runs with its own params, check and render.
    """

    name: str
    kind: str
    param: Optional[str]
    params: Callable[[Graph, KRange], Iterable]
    check: Callable[[Graph, object], Verdict]
    render: Render
    parse: Callable[[Graph, object], object] = lambda g, raw: raw
    k_min: Optional[int] = None
    run: Optional[Callable[[Graph, KRange], list[IdentityReport]]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.run is None or getattr(self.run, "__func__", None) is CheckDef.reports:
            object.__setattr__(self, "run", self.reports)

    def reports(self, g: Graph, k_range: KRange,
                instances: Optional[Iterable] = None) -> list[IdentityReport]:
        """Reports of the given instances on g that apply, by default of
        every listed instance: the default run."""
        if instances is None:
            instances = self.params(g, k_range)
        return [self.render(g, p, verdict) for p, verdict in self.verdicts(g, instances)]

    def verdicts(self, g: Graph, instances: Iterable) -> Iterator[tuple[object, Verdict]]:
        """(p, verdict) for each of the instances on g that applies: its check
        raised no NotApplicable and decided holds True or False."""
        check = self.check
        for p in instances:
            try:
                verdict = check(g, p)
            except NotApplicable:
                continue
            if verdict[0] is not None:
                yield p, verdict

    def first_failure(self, g: Graph, k_range: KRange) -> tuple[bool, Optional[tuple[object, Verdict]]]:
        """Whether some listed instance applies on g, and the first that fails
        with its verdict (None if every one holds).  Evaluates no instance
        after the failing one and renders none."""
        applies = False
        for p, verdict in self.verdicts(g, self.params(g, k_range)):
            if verdict[0] is False:
                return True, (p, verdict)
            applies = True
        return applies, None

    def takes_k(self, k_range: tuple[int, int]) -> bool:
        """Whether some graph has an instance of this check with k in k_range.

        Only the lower end is fixed: how high k goes depends on the graph.
        """
        return self.k_min is not None and k_range[1] >= self.k_min


def _poly_verdict(lhs: Polynomial, rhs) -> Verdict:
    """The verdict of lhs == rhs as polynomials, for a normal lhs and a row
    rhs (a list or tuple) that may end in zeros: rhs is kept trimmed, as a
    tuple, the shape of a held verdict (True, lhs, tuple(lhs))."""
    rhs = poly_normalize(rhs)
    return lhs == rhs, lhs, tuple(rhs)


def _side(side: Side) -> Side:
    """A side as a report shows it: a count as it is, a polynomial trimmed."""
    return side if isinstance(side, int) else poly_normalize(side)


def _renderer(identity: str, params: Callable[[Graph, object], dict],
              sides: Callable[[Side], Side] = _side) -> Render:
    """Render a verdict of identity as its IdentityReport: params(g, instance),
    each side passed through sides and holds decided again from the
    rendered sides (None stays None)."""
    def render(g: Graph, instance, verdict: Verdict) -> IdentityReport:
        holds, lhs, rhs = verdict
        lhs, rhs = sides(lhs), sides(rhs)
        if holds is not None:
            holds = lhs == rhs
        return IdentityReport(identity, g.graph6, params(g, instance), lhs, rhs, holds)

    return render


def _without_vertex(g: Graph, v: int) -> int:
    """The vertex set of G - v, as a mask over the rows of g."""
    return ((1 << g.n) - 1) & ~(1 << v)


def _common(adj: tuple[int, ...], mask: int) -> int:
    """N(S), the AND of the rows of S's members, for the nonempty vertex set
    S given as its mask, already checked to lie in range."""
    common = -1
    for v in bits(mask):
        common &= adj[v]
    return common


def _deck(g: Graph, r: int) -> tuple[int, ...]:
    """The row of the r-deck, summed on first use and kept in g's expansion
    context (_Terms.decks) under r."""
    decks = _terms(g).decks
    row = decks.get(r)
    if row is None:
        row = decks[r] = _sum_deck(g, r)
    return row


def _sum_deck(g: Graph, r: int) -> tuple[int, ...]:
    """The sum of C(x) over the members of the r-deck, the graphs left after
    deleting an r-clique: G - v for each vertex v (r = 1), G - E(Q) for each
    r-clique Q (r >= 2), with trailing zeros trimmed: the member count at
    x**0 and the sum of their c_k at x**k.  Each member is read packed,
    G - E(Q) as the split that the clique-deletion verdicts share
    (cliques._Counting.split), and the members are summed packed.  The
    r-cliques are read from the stored catalog, under its listing budget."""
    counting = _counting(g)
    if r == 1:
        members = (counting.read(_without_vertex(g, v)) for v in range(g.n))
    else:
        members = map(counting.split, _stored_catalog(g, max(3, r)).masks(r))
    return tuple(poly_normalize(counting.add(members)))


def _deck_verdict(g: Graph, r: int, k: int) -> Verdict:
    """(|deck| - C(k, r)) * c_k(G) against the sum of c_k over the r-deck.

    A k-clique is missing from Q's member exactly when it holds at least
    min(r, 2) vertices of Q: G - v loses the cliques through v, and G - E(Q)
    those with an edge of Q.  For r <= 2 that is exactly C(k, r) members,
    so the verdict holds; for r >= 3 a clique that holds just two of Q's
    vertices is cut too, which is why the triangle deck is a conjecture.
    """
    row = _deck(g, r)
    size = row[0] if row else 0
    rhs = row[k] if k < len(row) else 0
    lhs = (size - comb(k, r)) * clique_count(g, k)
    return lhs == rhs, lhs, rhs


# -- instances ----------------------------------------------------------------

def _vertex_ids(raw, count: int | None = None) -> tuple[int, ...]:
    """raw as a tuple of count vertex ids (any number if count is None),
    unchecked until cliques._clique_mask reads them; a verify flag gives
    them dash-separated."""
    if isinstance(raw, str):
        try:
            ids = tuple(int(tok) for tok in raw.split("-"))
        except ValueError:
            raise ValueError(f"expected dash-separated vertex ids, got {raw!r}") from None
    else:
        ids = tuple(raw)
    if count is not None and len(ids) != count:
        shown = raw if isinstance(raw, str) else ids
        raise ValueError(f"expected {count} vertex ids in {shown!r}")
    return ids


class _Kind(NamedTuple):
    """An instance kind: its verify flag's param (None for the whole graph),
    the report's params key, the lister and parser of its instances as
    CheckDef takes them, the smallest k of a k kind, and whether its
    instances are clique masks."""

    param: Optional[str]
    key: Optional[str]
    params: Callable[[Graph, KRange], Iterable]
    parse: Callable[[Graph, object], object] = CheckDef.parse
    k_min: Optional[int] = None
    masks: bool = False

    def named(self, g: Graph, instance) -> dict:
        """The report's params {key: instance}, a clique mask as its list of
        vertex ids."""
        return {} if self.key is None else {
            self.key: list(bits(instance)) if self.masks else instance}


def _cliques(param: str, sizes: tuple[int, ...], noun: str) -> _Kind:
    """The kind of g's cliques of the ascending sizes, whose verify flag and
    params key are param.

    Its instances are clique masks.  Its lister reads those sizes of g's one
    stored catalog, listed up to at least 3 vertices, so that the edges are
    listed with the triangles: a kind of one size hands back the catalog's
    masks themselves, and one of several sizes lists them size after size.
    Its parser takes as many vertex ids as a one-size kind's size (any
    number otherwise), in any order, and returns their mask if they form a
    clique of g; if not, it names them as not noun of the graph.
    """
    top = max(3, sizes[-1])
    count = sizes[0] if len(sizes) == 1 else None
    if count is None:
        params = lambda g, _: list(itertools.chain(*map(_stored_catalog(g, top).masks, sizes)))
    else:
        params = lambda g, _: _stored_catalog(g, top).masks(count)

    def parse(g: Graph, raw) -> int:
        ids = _vertex_ids(raw, count)
        mask = _clique_mask(g, ids)
        if not mask:
            raise ValueError(f"{ids} is not {noun} of the graph")
        return mask

    return _Kind(param, param, params, parse, masks=True)


def _k5_free(kind: _Kind) -> _Kind:
    """kind, but listing nothing on a graph with a 5-clique."""
    params = kind.params
    return kind._replace(
        params=lambda g, k_range: params(g, k_range) if len(clique_counts(g)) < 5 else ())


_GRAPH = _Kind(None, None, lambda g, _: [None])
_VERTEX = _Kind("v", "v", lambda g, _: range(g.n), lambda g, v: _vertex(g.n, v))
_EDGE = _cliques("e", (2,), "an edge")
_TRIANGLE = _cliques("delta", (3,), "a triangle")
# the clique kind's sizes, whose expansion _deletion_verdict decides packed: a
# clique of s vertices sums 1 + sum over odd r of (r - 1) C(s, r) counts on the
# left and 1 + sum over even r >= 2 of (r - 1) C(s, r) on the right, 9 and 10 at
# s = 4, within cliques._PACKED_UNITS
_CLIQUE_SIZES = (2, 3, 4)
_CLIQUE = _cliques("clique", _CLIQUE_SIZES, "a clique")
_UNIT = _Kind("unit", "include_unit", lambda g, _: [False])


def _k(lo: int, listing: bool = False) -> _Kind:
    """Every k from lo up to the clique number (at least lo), within k_range.

    A listing kind's identities read the k-cliques themselves: its lister
    lists the cliques of up to the largest such k first, once per graph, so
    every instance reads a prefix of that catalog.  Over the listing budget
    it lists nothing and raises CliqueBudgetExceeded for the first k over it.
    """
    def params(g: Graph, k_range: KRange) -> range:
        hi = max(len(clique_counts(g)), lo)
        if k_range is not None:
            ks = range(max(lo, k_range[0]), min(hi, k_range[1]) + 1)
        else:
            ks = range(lo, hi + 1)
        if listing and ks:
            for k in ks:
                _require_listing_budget(g, k)
            _stored_catalog(g, ks[-1])
        return ks

    def parse(g: Graph, k: int) -> int:
        if _integer(k, "k") < lo:
            raise ValueError(f"k must be >= {lo}")
        return k

    return _Kind("k", "k", params, parse, lo)


def _identity(name: str, kind_class: str, kind: _Kind, render: Optional[Render] = None,
              public: Optional[Callable] = None) -> Callable[[Callable], Callable]:
    """Declare body, the verdict of one instance of identity name, in class
    kind_class over kind's instances, rendered by render (by default: the
    kind's params key, a count side as it is, a polynomial side trimmed).

    Returns the public function, which parses its instance (positional-only;
    none for the whole graph, whose body takes g alone), evaluates it and
    returns render(g, instance, verdict), or public(render, g, instance,
    verdict); it has body's name and docstring, not its signature.  Its
    .entry is the CheckDef, which binds body and render here, so a wrapper
    swapped in for the public function, as a tracer does, changes no entry.
    """
    render = render or _renderer(name, kind.named)
    finish = render if public is None else functools.partial(public, render)

    def declare(body: Callable) -> Callable:
        if kind.param is None:
            def identity(g: Graph, /):
                return finish(g, None, body(g))
            check = lambda g, _: body(g)
        else:
            def identity(g: Graph, raw, /):
                instance = kind.parse(g, raw)
                return finish(g, instance, body(g, instance))
            check = body
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(identity, attr, getattr(body, attr))
        identity.entry = CheckDef(name, kind_class, kind.param, kind.params, check, render,
                                  kind.parse, kind.k_min)
        return identity

    return declare


# -- handshake ----------------------------------------------------------------

@_identity("handshake", THEOREM, _k(1, listing=True))
def check_handshake(g: Graph, k: int) -> Verdict:
    """Sum of clique-values over the k-cliques against (k+1) * c_{k+1}.

    Each (k+1)-clique contains k+1 k-cliques, and a k-clique extends to a
    (k+1)-clique once per common neighbor, so both sides count the entries of
    the containment matrix of order k.  The left side reads the catalog's
    common neighbourhoods, which the lister keeps beside the cliques.
    """
    lhs = sum(map(int.bit_count, _stored_catalog(g, k).common_neighborhoods(k)))
    rhs = (k + 1) * clique_count(g, k + 1)
    return lhs == rhs, lhs, rhs


# -- recurrences ----------------------------------------------------------------

@_identity("vertex_recurrence", THEOREM, _VERTEX)
def check_vertex_recurrence(g: Graph, v: int) -> Verdict:
    """C(G, x) == C(G - v, x) + x * C(G[N(v)], x).

    Decided packed: C(G - v) plus the term x C(G[N(v)]) against C(G).
    Each side is one or two packed counts, which cannot carry, so equal
    integers give the graph's one held verdict (its _Terms.held); only a
    vertex where they differ has its right side built in a row.
    """
    counting = _counting(g)
    read = counting.read
    without = _without_vertex(g, v)
    rhs = read(without) + counting.term(g.adj[v], 1)
    if rhs == read(without | 1 << v):
        return _terms(g).held
    return _poly_verdict(clique_polynomial(g), counting.add([rhs]))


@_identity("edge_recurrence", THEOREM, _EDGE)
def check_edge_recurrence(g: Graph, e) -> Verdict:
    """C(G, x) == C(G - e, x) + x**2 * C(G[N(e)], x)."""
    return _deletion_verdict(g, e)


# -- deck identities -------------------------------------------------------------

@_identity("vertex_deck", THEOREM, _k(1))
def check_vertex_deck_identity(g: Graph, k: int) -> Verdict:
    """(n - k) * c_k(G) == sum over v of c_k(G - v)."""
    return _deck_verdict(g, 1, k)


@_identity("edge_deck", THEOREM, _k(2))
def check_edge_deck_identity(g: Graph, k: int) -> Verdict:
    """(m - C(k, 2)) * c_k(G) == sum over e of c_k(G - e)."""
    return _deck_verdict(g, 2, k)


@_identity("triangle_deck", CONJECTURE, _k(3))
def check_triangle_deck_identity(g: Graph, k: int) -> Verdict:
    """(t - C(k, 3)) * c_k(G) against the sum of c_k(G - d) over triangles d,

    where t is the triangle count and G - d deletes the triangle's edges.
    Reported, never asserted globally: it fails already on the 4-clique.
    """
    return _deck_verdict(g, 3, k)


def _triangle_graph_is_edgeless(g: Graph) -> bool:
    """Whether no two triangles of g share an edge: every edge uv lies in at
    most one triangle, one per common neighbour of u and v, read from the
    catalog's common neighbourhoods of the edges.  Not through
    triangle_graph(), which caps the triangle count at 64."""
    return all(common.bit_count() <= 1
               for common in _stored_catalog(g, 3).common_neighborhoods(2))


def _render_conjecture2(g: Graph, _, verdict: Verdict) -> IdentityReport:
    holds, lhs, rhs = verdict
    if holds is None:
        return IdentityReport("conjecture2", g.graph6, {"applicable": False}, None, None, None)
    ks = list(range(3, len(clique_counts(g)) + 1))
    return IdentityReport("conjecture2", g.graph6, {"applicable": True, "ks": ks},
                          lhs, rhs, lhs == rhs)


@_identity("conjecture2", CONJECTURE, _GRAPH, render=_render_conjecture2)
def check_conjecture2(g: Graph) -> Verdict:
    """If no two triangles of G share an edge, the triangle-deck identity
    should hold for every k up to the clique number.

    Applicable only on that class; otherwise the report carries holds=None.
    """
    if not _triangle_graph_is_edgeless(g):
        return None, None, None
    lhs, rhs = [], []
    for k in range(3, len(clique_counts(g)) + 1):
        _, sub_lhs, sub_rhs = _deck_verdict(g, 3, k)
        lhs.append(sub_lhs)
        rhs.append(sub_rhs)
    return lhs == rhs, lhs, rhs


# -- reversed-polynomial conjectures -------------------------------------------

def _reversed_deck_verdict(g: Graph, r: int, include_unit: bool) -> Verdict:
    """The divided r-th derivative of C(G) reversed at n against the sum over
    the r-deck of C(x) reversed at the member's vertex count (n - 1 for r = 1,
    n otherwise), each member with its own unit if include_unit: the deck's
    row reversed, plus the member count (the row's x**0) at x**0."""
    n = g.n
    lhs = poly_divided_derivative(poly_reverse(clique_polynomial(g), n, include_unit), r)
    row = _deck(g, r)
    rhs = poly_reverse(row, n - 1 if r == 1 else n)
    if include_unit and row:
        rhs[0] += row[0]
    return _poly_verdict(lhs, rhs)


@_identity("conjecture1_first", CONJECTURE, _UNIT)
def _conjecture1_first(g: Graph, include_unit: bool) -> Verdict:
    """The first claim of check_conjecture1.

    Without the unit it holds on every graph: it is the vertex-deck identity
    read coefficient by coefficient.  c(G, x) = sum over k of c_k x^(n-k),
    with c_0 = 1, so its derivative has (n - k) c_k at x^(n-1-k).  The deck
    member c(G - v, x), reversed at base n - 1, has c_k(G - v) there, and
    summed over v this counts each k-clique once per vertex outside it:
    (n - k) c_k again.  With the unit, the derivative drops the literal 1 but
    each of the n deck members keeps its own, so the right side has n more
    at x^0 and the claim fails whenever n >= 1.  The catalog still classes
    it as a conjecture, as the paper poses it; re-classing it would change
    the exit codes of verify and fuzz.
    """
    return _reversed_deck_verdict(g, 1, include_unit)


@_identity("conjecture1_second", CONJECTURE, _UNIT)
def _conjecture1_second(g: Graph, include_unit: bool) -> Verdict:
    return _reversed_deck_verdict(g, 2, include_unit)


def check_conjecture1(g: Graph, include_unit: bool = False) -> tuple[IdentityReport, IdentityReport]:
    """Derivative formulas for the reversed clique-counting polynomial c(G, x).

    c(G, x) reverses the clique polynomial at exponent base n.  First claim:
    d/dx c(G, x) == sum over v of c(G - v, x), each deck member reversed at
    base n-1 (a vertex-deleted subgraph keeps n-1 vertices).  Second claim:
    (1/2!) d^2/dx^2 c(G, x) == sum over e of c(G - e, x), deck members
    reversed at base n.  include_unit switches to the variant of c that keeps
    an extra literal constant 1.
    """
    return _conjecture1_first(g, include_unit), _conjecture1_second(g, include_unit)


# -- derivative identities --------------------------------------------------------

def _derivative_verdict(g: Graph, r: int, masks: Sequence[int]) -> Verdict:
    """(1/r!) d^r/dx^r C(G, x) against the sum of C(G[mask], x) over masks,
    the common neighbourhoods of g's r-cliques: the derivative formulas.

    Decided packed where neither side can carry: the right side sums at
    most _PACKED_UNITS packed counts and every coefficient of the left side
    is below 2**lane (cliques._Counting.pack).  Then equal integers decide
    that it holds, and the verdict's right side is its left.  Past either
    bound, and where the integers differ, the right side is built in a row
    (cliques._Counting.add).
    """
    lhs = poly_divided_derivative(clique_polynomial(g), r)
    counting = _counting(g)
    if len(masks) <= _PACKED_UNITS and counting.pack(lhs) == sum(map(counting.read, masks)):
        return True, lhs, tuple(lhs)
    return _poly_verdict(lhs, counting.add(map(counting.read, masks)))


@_identity("first_derivative", THEOREM, _GRAPH)
def check_first_derivative(g: Graph) -> Verdict:
    """d/dx C(G, x) == sum over v of C(G[N(v)], x)."""
    return _derivative_verdict(g, 1, g.adj)


@_identity("second_derivative", THEOREM, _GRAPH)
def check_second_derivative(g: Graph) -> Verdict:
    """(1/2!) d^2/dx^2 C(G, x) == sum over e of C(G[N(e)], x).

    The halved derivative is computed with binomial coefficients, so the
    comparison stays in exact integers.  Each N(e) is read from the
    catalog's common neighbourhoods of the edges.
    """
    return _derivative_verdict(g, 2, _stored_catalog(g, 3).common_neighborhoods(2))


def _third_derivative_params(g: Graph, _) -> dict:
    return {"connected": is_connected(g), "omega": len(clique_counts(g))}


@_identity("third_derivative_k5free", THEOREM, _k5_free(_GRAPH),
           render=_renderer("third_derivative_k5free", _third_derivative_params))
def check_third_derivative_k5free(g: Graph) -> Verdict:
    """(1/3!) d^3/dx^3 C(G, x) == sum over triangles d of C(G[N(d)], x).

    Stated for connected graphs with no 5-clique; connectivity is recorded in
    the report rather than required, so campaigns can probe whether it
    matters.  Each N(d) is read from the catalog's common neighbourhoods of
    the triangles.
    """
    if len(clique_counts(g)) >= 5:
        raise NotApplicable("graph contains a 5-clique")
    return _derivative_verdict(g, 3, _stored_catalog(g, 3).common_neighborhoods(3))


@_identity("conjecture3", CONJECTURE, _GRAPH)
def check_conjecture3(g: Graph) -> Verdict:
    """(1/3!) d^3/dx^3 C(G, x) against the sum of C(G - d, x) over triangles d.

    Differs from the proved third-derivative formula by summing whole
    edge-deleted graphs instead of neighborhood subgraphs; fails on any graph
    containing a triangle.
    """
    return _poly_verdict(poly_divided_derivative(clique_polynomial(g), 3), _deck(g, 3))


@_identity("kth_derivative", CONJECTURE, _k(1, listing=True))
def check_kth_derivative_general(g: Graph, k: int) -> Verdict:
    """(1/k!) d^k/dx^k C(G, x) against the sum of C(G[N(Q)], x) over k-cliques Q.

    The natural generalization of the first/second/third derivative formulas;
    evaluated empirically, never asserted.

    It holds on every graph, by double counting.  At x^j the left side is
    C(j + k, k) c_{j+k}.  On the right, a j-clique R of G[N(Q)] is a j-clique
    joined to every vertex of Q, so the pairs (Q, R) counted at x^j are the
    (j + k)-cliques of G with k of their vertices marked as Q, which is again
    C(j + k, k) c_{j+k} (at j = 0, one pair per k-clique: c_k).  The catalog
    still classes it as a conjecture: the paper proves the first and second
    derivative formulas and leaves higher derivatives open, and re-classing
    it would change the exit codes of verify and fuzz.  Each N(Q) is read
    from the catalog's common neighbourhoods of the k-cliques.
    """
    return _derivative_verdict(g, k, _stored_catalog(g, k).common_neighborhoods(k))


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

    An edge set is this function's own kind of instance: it is parsed here
    into the mask of the clique it spans, the form the catalog lists.
    """
    normalized = {edge(_vertex(g.n, u), _vertex(g.n, v)) for u, v in edge_set}
    support = {v for e in normalized for v in e}
    # every pair of normalized lies in support, so it holds them all iff it has C(|support|, 2)
    if len(normalized) != comb(len(support), 2):
        raise ValueError("edge set does not induce a complete subgraph")
    clique = _clique_mask(g, support)
    if support and not clique:
        u, v = next(e for e in normalized if not g.has_edge(*e))
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
    if interpretation == INTERPRETATION_CLIQUES:
        entry = _clique_deletion.entry
    elif interpretation == INTERPRETATION_EDGE_SUBSETS:
        entry = _clique_deletion_edge_subsets.entry
    else:
        raise ValueError(f"unknown interpretation {interpretation!r}")
    return entry.render(g, clique, entry.check(g, clique))


def _render_expansion(interpretation: str) -> Render:
    """The renderer of the expansion's verdicts under one reading."""
    def params(g: Graph, q: int) -> dict:
        return {"m": [list(e) for e in itertools.combinations(bits(q), 2)],
                "interpretation": interpretation}

    return _renderer("clique_deletion", params)


def _expansion_verdict(g: Graph, q: int, family: Callable[[int], Iterable[int]],
                       width: Optional[Callable[[int], int]] = None) -> Verdict:
    """The verdict of the expansion on the clique mask q with its right side
    built in one row, under the reading whose vertex sets S of size r are
    the masks family(r): C(G - E(Q)) (the graph's split of q), then one
    packed sum per r from 2 to |q| adds (-1)**r (r - 1) x**r C(G[N(S)]) over
    them.

    width(r) is how many sets family(r) yields, C(|q|, r) by default (the
    cliques reading's).  A reading that would sum more than
    cliques.LISTING_BUDGET terms raises CliqueBudgetExceeded before any
    count is read: 2**s - s - 1 terms on a clique of s vertices under the
    cliques reading, so from s = 20 on, and sum over r of C(C(s, 2), C(r, 2))
    under the edge-subsets reading, so from s = 8 on."""
    size = q.bit_count()
    summed = sum(map(width or functools.partial(comb, size), range(2, size + 1)))
    if summed > cliques.LISTING_BUDGET:
        raise cliques.CliqueBudgetExceeded(
            f"expanding C(G) on a clique of {size} vertices would sum {summed} terms, "
            f"over the budget of {cliques.LISTING_BUDGET}")
    adj = g.adj
    counting = _counting(g)
    read, add = counting.read, counting.add
    rhs = add([counting.split(q)])
    for r in range(2, size + 1):
        add((read(_common(adj, s)) for s in family(r)), r, (-1) ** r * (r - 1), rhs)
    return _poly_verdict(clique_polynomial(g), rhs)


@_identity("clique_deletion_edge_subsets", CONJECTURE, _CLIQUE,
           render=_render_expansion(INTERPRETATION_EDGE_SUBSETS))
def _clique_deletion_edge_subsets(g: Graph, q: int) -> Verdict:
    """The verdict of the expansion's 'edge-subsets' reading for the clique
    mask q: its vertex sets of size r are the vertex unions of the
    C(r, 2)-edge subsets of Q, cliques or not (C(r, 2) <= C(|q|, 2) edges,
    whose vertices number at least r).  The row sums
    C(C(|q|, 2), C(r, 2)) terms for each r, so a clique of 8 or more
    vertices is refused (_expansion_verdict).

    On a clique of at most three vertices every such union of C(r, 2)
    edges spans exactly r vertices, so the family is the r-subsets of Q, in
    the same order, and the verdict is the cliques reading's: q takes the
    one verdict that _deletion_verdict keeps for it.  Every larger
    clique, where three edges can span four vertices, is evaluated here."""
    if q.bit_count() <= 3:
        return _deletion_verdict(g, q)
    edges = list(map(sum, itertools.combinations([1 << v for v in bits(q)], 2)))
    return _expansion_verdict(g, q, lambda r: (functools.reduce(int.__or__, s)
                                               for s in itertools.combinations(edges, comb(r, 2))),
                              width=lambda r: comb(len(edges), comb(r, 2)))


class _Terms(dict):
    """One graph's expansion context, kept in g.memo.identities (see
    _terms): the packed terms (|S| - 1) x**|S| C(G[N(S)]) keyed by the mask
    of the vertex set S; counting, the graph's counting state, through which
    every count and term is read (_Counting.term); whole, C(G) packed;
    held, (True, lhs, tuple(lhs)) with lhs the row of C(G), the verdict of
    every clique on which the expansion holds and of every vertex at which
    the vertex recurrence holds; deletions, the clique-deletion verdicts
    keyed by the clique's mask, as the catalog lists it or a parser returns
    it, so a clique has one entry however its ids were ordered; and decks,
    each deck's row keyed by r, the size of the clique its members delete
    (_deck).

    Each verdict that _deletion_verdict decides packed, of a clique of 2
    to 4 vertices, stores the clique's own term, so a later clique reads
    it as a subset's; a subset that no earlier clique supplied, as under a
    single asked clique, is read on first use (__missing__)."""

    __slots__ = ("counting", "whole", "held", "deletions", "decks")

    def __init__(self, g: Graph) -> None:
        counting = self.counting = _counting(g)
        lhs = clique_polynomial(g)
        self.whole = counting.read((1 << g.n) - 1)
        self.held = True, lhs, tuple(lhs)
        self.deletions: dict[int, Verdict] = {}
        self.decks: dict[int, tuple[int, ...]] = {}

    def __missing__(self, s: int) -> int:
        counting, r = self.counting, s.bit_count()
        term = self[s] = counting.term(_common(counting.adj, s), r, r - 1)
        return term


def _terms(g: Graph) -> _Terms:
    """g's expansion context (_Terms), made on first use and kept in
    g.memo.identities."""
    memo = g.memo
    terms = memo.identities
    if terms is None:
        terms = memo.identities = _Terms(g)
    return terms


def _deletion_verdict(g: Graph, q: int) -> Verdict:
    """The verdict of the expansion's 'cliques' reading for the clique mask
    q, decided once per clique and graph and kept in the graph's expansion
    context (_Terms.deletions) under the mask q itself, as the catalog lists
    it or a parser returns it: for |q| = 2 and 3 it is the edge recurrence's
    and the triangle identity's as well, and for |q| <= 3 the edge-subsets
    reading's (_clique_deletion_edge_subsets).

    Only q is decided, on either side of the subset table's gate.  A
    clique of the clique kind's sizes, 2 to 4 vertices (_CLIQUE_SIZES), is
    decided packed in one pass: N(Q) and the one-bit masks of q's members,
    in one walk over q's bits, then the graph's split of q
    (_Counting.split), shared through its splits with the decks and the
    triangle checks, and q's own term (_Counting.term), which is stored in
    the graph's one expansion context (_Terms) for every larger clique.
    Two packed sums are compared, each term moved to the side where it
    adds: C(G) plus the odd-r terms against C(G - Q) plus the even-r
    terms.  Q's own term is added to its side, and its proper subsets'
    terms, of 2 and 3 vertices, are read from the expansion context: an
    edge's mask is the sum of two members' bits, and a triangle of a
    4-clique's is q less one member's bit.  Neither sum carries, so equal
    sums give the held verdict with nothing unpacked.  Where the sums differ (a
    failing verdict, which a report shows), and for a clique of any other
    size, the right side is built in one row (_expansion_verdict), which
    refuses a clique of 20 or more vertices.
    """
    terms = _terms(g)
    deletions = terms.deletions
    verdict = deletions.get(q)
    if verdict is None:
        counting = terms.counting
        adj, lows, common, rest = counting.adj, [], -1, q
        while rest:
            low = rest & -rest
            rest ^= low
            lows.append(low)
            common &= adj[low.bit_length() - 1]
        size = len(lows)
        if size in _CLIQUE_SIZES:
            rhs = counting.split(q)
            own = terms[q] = counting.term(common, size, size - 1)
            lhs, rhs = (terms.whole + own, rhs) if size & 1 else (terms.whole, rhs + own)
            if size > 2:  # a subset's mask sums its members' bits, or drops one
                stored = terms.__getitem__
                rhs += sum(map(stored, map(sum, itertools.combinations(lows, 2))))
                if size > 3:
                    lhs += sum(map(stored, map(q.__xor__, lows)))
            if lhs == rhs:
                verdict = terms.held
        if verdict is None:
            verdict = _expansion_verdict(g, q, lambda r: map(sum, itertools.combinations(lows, r)))
        deletions[q] = verdict
    return verdict


_clique_deletion = _identity("clique_deletion", THEOREM, _CLIQUE,
                             render=_render_expansion(INTERPRETATION_CLIQUES))(_deletion_verdict)


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


def _triangle_parts(g: Graph, d: int) -> TriangleIdentityParts:
    """The parts of the triangle identity for the triangle mask d, whose
    ids are decoded for delta."""
    adj, counting = g.adj, _counting(g)
    edge_sum = counting.add(counting.read(adj[a] & adj[b])
                            for a, b in itertools.combinations(bits(d), 2))
    tri = counting.add([counting.read(_common(adj, d))])
    return TriangleIdentityParts(tuple(bits(d)), poly_normalize(edge_sum), poly_normalize(tri))


@_identity("triangle_identity", THEOREM, _TRIANGLE,
           public=lambda render, g, d, verdict: (render(g, d, verdict), _triangle_parts(g, d)))
def triangle_identity(g: Graph, delta) -> Verdict:
    """C(G, x) == C(G - d, x) + x**2 * (edge sum) - 2 x**3 * (triangle neighborhood),

    where G - d deletes the three edges of the triangle d.  Holds for every
    graph and every triangle.  The public function returns the report with
    its TriangleIdentityParts; the catalog renders the report alone.
    """
    return _deletion_verdict(g, delta)


def _triangle_recurrence_params(g: Graph, d: int) -> dict:
    parts = _triangle_parts(g, d)
    shifted = [0, *(3 * c for c in parts.triangle_neighborhood)]
    return {
        "delta": list(parts.delta),
        "edge_neighborhood_sum": parts.edge_neighborhood_sum,
        "triangle_neighborhood_times_3x": shifted,
        "equivalent_condition_holds": parts.edge_neighborhood_sum == shifted,
    }


@_identity("triangle_recurrence", CONJECTURE, _TRIANGLE,
           render=_renderer("triangle_recurrence", _triangle_recurrence_params))
def check_triangle_recurrence(g: Graph, delta) -> Verdict:
    """Does C(G, x) == C(G - d, x) + x**3 * C(G[N(d)], x) for this triangle?

    No truth is asserted; the question is for which graphs this holds.  The
    stated equivalent condition, edge sum == 3x * C(G[N(d)], x), is evaluated
    verbatim and recorded in the report's params (its constant terms can
    never match, which is reported rather than repaired).
    """
    counting = _counting(g)
    rhs = counting.split(delta) + counting.term(_common(g.adj, delta), 3)
    return _poly_verdict(clique_polynomial(g), counting.add([rhs]))


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


# the catalog's report has the two count tuples as its sides, untrimmed
@_identity("triangle_deletion_counts", THEOREM, _k5_free(_TRIANGLE),
           render=_renderer("triangle_deletion_counts", _TRIANGLE.named, sides=list),
           public=lambda render, g, d, v: TriangleDeletionCounts(tuple(bits(d)), *v[1:]))
def triangle_deletion_counts(g: Graph, delta) -> Verdict:
    """Predict c_1..c_4 of G - d from counts of G, for graphs with no 5-clique:

        c_1(G - d) = c_1(G)
        c_2(G - d) = c_2(G) - 3
        c_3(G - d) = c_3(G) - sum val(e_i) + 2
        c_4(G - d) = c_4(G) - sum c_2(G[N(e_i)]) + 2 val(d)

    where e_1..e_3 are the triangle's edges and val is the clique-value.
    C(G) is read once, C(G - d) packed as the split the clique-deletion
    verdicts share, and each N(e_i) is the AND of two rows, whose c_2 are
    summed packed and read off as coefficient 2.  The formula is packed and
    compared with the split, which is unpacked only where they differ or a
    formula coefficient cannot be packed.  The public function returns the
    TriangleDeletionCounts; the catalog renders the two count tuples as a
    report's sides.
    """
    counts = clique_counts(g)
    if len(counts) >= 5:
        raise NotApplicable("graph contains a 5-clique")
    c1, c2, c3, c4 = (*counts, 0, 0, 0)[:4]
    adj = g.adj
    counting = _counting(g)
    u, v, w = bits(delta)
    edge_nbhds = (adj[u] & adj[v], adj[u] & adj[w], adj[v] & adj[w])
    formula = (
        c1,
        c2 - 3,
        c3 - sum(nbhd.bit_count() for nbhd in edge_nbhds) + 2,
        c4 - counting.coefficient(sum(map(counting.read, edge_nbhds)), 2)
        + 2 * (edge_nbhds[0] & adj[w]).bit_count(),
    )
    split = counting.split(delta)
    if counting.pack((1, *formula)) == split:
        return True, formula, formula
    direct = (*counting.unpack(split), 0, 0, 0)[:4]
    return formula == direct, formula, direct


# -- catalog ----------------------------------------------------------------------

CATALOG: tuple[CheckDef, ...] = tuple(identity.entry for identity in (
    check_handshake, check_vertex_recurrence, check_edge_recurrence,
    check_vertex_deck_identity, check_edge_deck_identity, check_first_derivative,
    check_second_derivative, triangle_identity, _clique_deletion,
    check_third_derivative_k5free, triangle_deletion_counts, _clique_deletion_edge_subsets,
    check_kth_derivative_general, check_triangle_recurrence, _conjecture1_first,
    _conjecture1_second, check_triangle_deck_identity, check_conjecture2, check_conjecture3,
))
