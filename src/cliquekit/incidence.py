"""Labeled 0/1 clique incidence matrices and their row/column-sum accounting.

Four kinds are built here, each named as `cliquekit matrix --kind` names
it (super, vdeck, edeck, tdeck):

* subclique-superclique: k-cliques against (k+1)-cliques, entry 1 iff the row
  clique is contained in the column clique.  Row sums equal the clique-value
  of the row; column sums are all k+1.  Order 1 is the classical vertex-edge
  incidence matrix.
* vertex-deck: k-cliques against the n vertex-deleted subgraphs, entry 1 iff
  the clique avoids the deleted vertex.  Row sums are all n-k; the column for
  G-v sums to the k-clique count of G-v.
* edge-deck: k-cliques against the m edge-deleted subgraphs, entry 1 iff the
  deleted edge is not inside the clique.  Row sums are all m-C(k,2); the
  column for G-e sums to the k-clique count of G-e.
* triangle-deck: k-cliques against the t triangle-edge-deleted subgraphs,
  entry 1 iff no edge of the deleted triangle lies inside the clique.  Column
  sums count surviving k-cliques.  Row sums are not constant in general:
  row K sums to t - C(k, 3) - sum over the edges e of K of (|N(e)| - (k - 2)),
  N(e) the common neighbours of e's ends, by double counting (C(k, 3)
  triangles lie inside K, and each edge e of K lies in |N(e)| triangles,
  k - 2 of them inside K and the rest sharing just e with K).  This answers
  an open question that the paper's decks raise; it extends the paper and
  is not its statement.

A kind's columns are cliques too, the (k+1)-cliques or the deck members'
vertices, edges or triangles, so one table (_KINDS) holds each kind's
column-clique size and row rule.  One routine (_matrix), which the public
builders and the CLI call, lists a kind's rows and columns in one catalog
and builds it.

Every matrix is stored as one bit row per matrix row (bit j of a row is its
entry in column j).  Each kind is a rule on how many vertices a row clique q
shares with a column label c: super keeps the columns that contain q, the
vertex deck those sharing no vertex with q, and the edge and triangle decks
those sharing at most one.  One helper builds every row from touch[v], the
mask of the columns whose label contains vertex v, so a row costs a few
big-int operations per vertex of q rather than one test per cell.  The 0/1
digits of each row and the column sums are derived once per matrix, and
every rendering reads them.  Summing all entries by rows and by columns is
the double-counting step that turns each matrix into a counting identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .cliques import enumerate_cliques
from .graphs import Graph, bits

KIND_SUBCLIQUE_SUPERCLIQUE = "subclique-superclique"
KIND_VERTEX_DECK = "vertex-deck"
KIND_EDGE_DECK = "edge-deck"
KIND_TRIANGLE_DECK = "triangle-deck"

Label = tuple[int, ...]

# maps the digits of bin() to the cell values 0 and 1
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _label_text(label: Label) -> str:
    return "-".join(map(str, label))


def _json_list(items, indent: str) -> str:
    """A JSON list, as json.dumps(..., indent=2) lays it out at the given
    indent, of items already rendered as text.  items may be a string of
    digits, whose characters are then the items."""
    if not items:
        return "[]"
    return f"[\n{indent}  " + f",\n{indent}  ".join(items) + f"\n{indent}]"


@dataclass(frozen=True)
class IncidenceMatrix:
    """0/1 matrix whose rows and columns carry clique / deck-member labels.

    rows[i] is row i as a bitmask: bit j is the entry in column j.  `entries`
    is a view derived from it, the set of (i, j) positions holding a 1.
    """

    kind: str
    k: int
    row_labels: tuple[Label, ...]
    col_labels: tuple[Label, ...]
    rows: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    @property
    def entries(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, row in enumerate(self.rows) for j in bits(row))

    def _row(self, i: int) -> int:
        if not 0 <= i < len(self.rows):
            raise IndexError(f"row {i} outside a matrix of {len(self.rows)} rows")
        return self.rows[i]

    def _col(self, j: int) -> int:
        if not 0 <= j < len(self.col_labels):
            raise IndexError(f"column {j} outside a matrix of {len(self.col_labels)} columns")
        return j

    def entry(self, i: int, j: int) -> int:
        return self._row(i) >> self._col(j) & 1

    def row_sum(self, i: int) -> int:
        return self._row(i).bit_count()

    def col_sum(self, j: int) -> int:
        return self._col_sums[self._col(j)]

    def row_sums(self) -> list[int]:
        return [row.bit_count() for row in self.rows]

    def col_sums(self) -> list[int]:
        return list(self._col_sums)

    def total_by_rows(self) -> int:
        return sum(self.row_sums())

    def total_by_cols(self) -> int:
        return sum(self._col_sums)

    @cached_property
    def _digits(self) -> tuple[str, ...]:
        """Every row as its string of 0/1 digits, column 0 first."""
        # bin() of a row with a sentinel bit at `width` is "0b1" and then one
        # digit per column, the last column first
        sentinel = 1 << len(self.col_labels)
        return tuple(bin(row | sentinel)[:2:-1] for row in self.rows)

    @cached_property
    def _col_sums(self) -> tuple[int, ...]:
        # in the digits of all rows, laid end to end, column j is every
        # width-th digit from position j
        width, digits = len(self.col_labels), "".join(self._digits)
        return tuple(digits[j::width].count("1") for j in range(width))

    def to_csv(self) -> str:
        """CSV with labels, a trailing row_sum column, and a trailing col_sum row.

        The corner cell of the sums row/column holds the grand total, i.e. the
        double count.  Labels are digits and hyphens, so no field is quoted.
        """
        csums = self._col_sums
        lines = [",".join(["", *map(_label_text, self.col_labels), "row_sum"])]
        lines += [
            ",".join([_label_text(label), *digits, str(row.bit_count())])
            for label, digits, row in zip(self.row_labels, self._digits, self.rows)
        ]
        lines.append(",".join(["col_sum", *map(str, csums), str(sum(csums))]))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """json.dumps(self.to_json_dict(), sort_keys=True, indent=2), written
        from the stored digits and sums instead of one encoder call per cell."""
        def nested(lists) -> str:
            return _json_list([_json_list(items, "    ") for items in lists], "  ")

        rsums, csums = self.row_sums(), self._col_sums
        fields = {  # in sorted key order
            "col_labels": nested([list(map(str, label)) for label in self.col_labels]),
            "col_sums": _json_list(list(map(str, csums)), "  "),
            "double_count": _json_list([str(sum(rsums)), str(sum(csums))], "  "),
            "k": json.dumps(self.k),
            "kind": json.dumps(self.kind),
            "matrix": nested(self._digits),
            "row_labels": nested([list(map(str, label)) for label in self.row_labels]),
            "row_sums": _json_list(list(map(str, rsums)), "  "),
        }
        return "{\n" + ",\n".join(f'  "{key}": {text}' for key, text in fields.items()) + "\n}"

    def to_json_dict(self) -> dict:
        rsums, csums = self.row_sums(), self.col_sums()
        return {
            "kind": self.kind,
            "k": self.k,
            "row_labels": [list(l) for l in self.row_labels],
            "col_labels": [list(l) for l in self.col_labels],
            "matrix": [list(d.encode().translate(_DIGIT_VALUES)) for d in self._digits],
            "row_sums": rsums,
            "col_sums": csums,
            "double_count": [sum(rsums), sum(csums)],
        }


# what a row keeps, as a rule on the vertices its clique q shares with column c
_CONTAINS = "c contains q"
_DISJOINT = "q and c share no vertex"
_AT_MOST_ONE = "q and c share at most one vertex"


def _incidence(kind: str, k: int, row_labels, col_labels, n: int, rule: str) -> IncidenceMatrix:
    """The matrix over vertices 0..n-1 whose entry (i, j) is 1 iff the labels obey rule."""
    touch = [0] * n  # touch[v]: the columns whose label contains v
    for j, label in enumerate(col_labels):
        for v in label:
            touch[v] |= 1 << j
    full = (1 << len(col_labels)) - 1
    rows = []
    for q in row_labels:
        one = two = 0  # the columns sharing at least one / two vertices with q
        every = full  # the columns containing q
        for v in q:
            t = touch[v]
            two |= one & t
            one |= t
            every &= t
        rows.append(every if rule == _CONTAINS else full & ~(one if rule == _DISJOINT else two))
    return IncidenceMatrix(kind, k, tuple(row_labels), tuple(col_labels), tuple(rows))


# each kind, keyed by its `cliquekit matrix --kind` name: the matrix's kind,
# the size of its column cliques (None: k + 1) and the rule its rows keep
_KINDS = {
    "super": (KIND_SUBCLIQUE_SUPERCLIQUE, None, _CONTAINS),
    "vdeck": (KIND_VERTEX_DECK, 1, _DISJOINT),
    "edeck": (KIND_EDGE_DECK, 2, _AT_MOST_ONE),
    "tdeck": (KIND_TRIANGLE_DECK, 3, _AT_MOST_ONE),
}


def _column_size(kind: str, k: int) -> int:
    """The size of the column cliques of the kind matrix of order k.  Raises
    ValueError below the kind's smallest order: 1, or j for a deck of j-cliques."""
    size = _KINDS[kind][1]
    if k < (size or 1):
        raise ValueError(f"order k must be >= {size or 1}")
    return size or k + 1


def _matrix(g: Graph, kind: str, k: int) -> IncidenceMatrix:
    """The kind matrix of order k on g, its rows and columns listed at once."""
    name, _, rule = _KINDS[kind]
    size = _column_size(kind, k)
    catalog = enumerate_cliques(g, max(k, size))
    return _incidence(name, k, catalog.cliques(k), catalog.cliques(size), g.n, rule)


def subclique_superclique_matrix(g: Graph, k: int) -> IncidenceMatrix:
    """Containment matrix between the k-cliques and the (k+1)-cliques of g."""
    return _matrix(g, "super", k)


def vertex_deck_matrix(g: Graph, k: int) -> IncidenceMatrix:
    """Survival matrix of the k-cliques across the n vertex-deleted subgraphs."""
    return _matrix(g, "vdeck", k)


def edge_deck_matrix(g: Graph, k: int) -> IncidenceMatrix:
    """Survival matrix of the k-cliques across the m edge-deleted subgraphs."""
    return _matrix(g, "edeck", k)


def triangle_deck_matrix(g: Graph, k: int) -> IncidenceMatrix:
    """Survival matrix of the k-cliques across the triangle-edge-deleted subgraphs.

    A k-clique survives deleting triangle d's edges iff it shares at most one
    vertex with d.  Row K sums to t - C(k, 3) - sum over the edges e of K of
    (|N(e)| - (k - 2)), t the triangle count and N(e) the common neighbours
    of e's ends: the triangles that share two or three vertices with K are
    the C(k, 3) inside it and, for each edge e of K, the |N(e)| - (k - 2)
    that hold e and a vertex outside K.  So the row sums are constant only
    where every such count is.  This formula extends the paper's open
    questions; it is not the paper's statement.
    """
    return _matrix(g, "tdeck", k)


def double_count(matrix: IncidenceMatrix) -> tuple[int, int]:
    """Grand total of all entries evaluated by rows and by columns."""
    return (matrix.total_by_rows(), matrix.total_by_cols())
