"""Labeled 0/1 clique incidence matrices and their row/column-sum accounting.

Four kinds are built here:

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
  sums count surviving k-cliques; row sums are reported but deliberately not
  asserted constant (their constancy is an open question probed elsewhere).

Every matrix is stored as one bit row per matrix row (bit j of a row is its
entry in column j), built by one helper from the labels and a predicate on
the vertex masks of a row label and a column label.  Summing all entries by
rows and by columns is the double-counting step that turns each matrix into
a counting identity.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .cliques import enumerate_cliques
from .graphs import Graph, bits

if TYPE_CHECKING:
    import numpy as np

KIND_SUBCLIQUE_SUPERCLIQUE = "subclique-superclique"
KIND_VERTEX_DECK = "vertex-deck"
KIND_EDGE_DECK = "edge-deck"
KIND_TRIANGLE_DECK = "triangle-deck"

Label = tuple[int, ...]

# maps the digits of bin() to the cell values 0 and 1
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _label_text(label: Label) -> str:
    return "-".join(str(v) for v in label)


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
        j = self._col(j)
        return sum(row >> j & 1 for row in self.rows)

    def row_sums(self) -> list[int]:
        return [row.bit_count() for row in self.rows]

    def col_sums(self) -> list[int]:
        if not self.rows:
            return [0] * len(self.col_labels)
        return [sum(col) for col in zip(*self._dense_rows())]

    def total_by_rows(self) -> int:
        return sum(self.row_sums())

    def total_by_cols(self) -> int:
        return sum(self.col_sums())

    def _dense_rows(self) -> list[list[int]]:
        """Every row as a list of its 0/1 cells, column 0 first."""
        width = len(self.col_labels)
        # bin() of a row with a sentinel bit at `width` is "0b1" and then one
        # digit per column, the last column first
        return [
            list(bin(row | 1 << width)[:2:-1].encode().translate(_DIGIT_VALUES))
            for row in self.rows
        ]

    def to_dense(self) -> np.ndarray:
        """Dense uint8 copy of the matrix; needs the optional numpy extra (dense)."""
        import numpy as np

        return np.array(self._dense_rows(), dtype=np.uint8).reshape(self.shape)

    def to_csv(self) -> str:
        """CSV with labels, a trailing row_sum column, and a trailing col_sum row.

        The corner cell of the sums row/column holds the grand total, i.e. the
        double count.
        """
        csums = self.col_sums()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([""] + [_label_text(c) for c in self.col_labels] + ["row_sum"])
        for label, cells, rsum in zip(self.row_labels, self._dense_rows(), self.row_sums()):
            writer.writerow([_label_text(label)] + cells + [rsum])
        writer.writerow(["col_sum"] + csums + [sum(csums)])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        rsums, csums = self.row_sums(), self.col_sums()
        return {
            "kind": self.kind,
            "k": self.k,
            "row_labels": [list(l) for l in self.row_labels],
            "col_labels": [list(l) for l in self.col_labels],
            "matrix": self._dense_rows(),
            "row_sums": rsums,
            "col_sums": csums,
            "double_count": [sum(rsums), sum(csums)],
        }


def _mask(label: Label) -> int:
    return sum(1 << v for v in label)


def _incidence(kind: str, k: int, row_labels, col_labels,
               hit: Callable[[int, int], bool]) -> IncidenceMatrix:
    """The matrix whose entry (i, j) is hit(mask of row label i, mask of column label j)."""
    col_masks = [_mask(c) for c in col_labels]
    rows = tuple(
        sum(1 << j for j, cm in enumerate(col_masks) if hit(qm, cm))
        for qm in map(_mask, row_labels)
    )
    return IncidenceMatrix(kind, k, tuple(row_labels), tuple(col_labels), rows)


def subclique_superclique_matrix(g: Graph, k: int) -> IncidenceMatrix:
    """Containment matrix between the k-cliques and the (k+1)-cliques of g."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    catalog = enumerate_cliques(g, k_max=k + 1)
    return _incidence(KIND_SUBCLIQUE_SUPERCLIQUE, k, catalog.cliques(k), catalog.cliques(k + 1),
                      lambda qm, cm: qm & cm == qm)


def vertex_deck_matrix(g: Graph, k: int) -> IncidenceMatrix:
    """Survival matrix of the k-cliques across the n vertex-deleted subgraphs."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    rows = enumerate_cliques(g, k_max=k).cliques(k)
    return _incidence(KIND_VERTEX_DECK, k, rows, [(v,) for v in range(g.n)],
                      lambda qm, vm: not qm & vm)


def edge_deck_matrix(g: Graph, k: int) -> IncidenceMatrix:
    """Survival matrix of the k-cliques across the m edge-deleted subgraphs."""
    if k < 2:
        raise ValueError("order k must be >= 2")
    rows = enumerate_cliques(g, k_max=k).cliques(k)
    return _incidence(KIND_EDGE_DECK, k, rows, [(u, v) for u, v in g.edges()],
                      lambda qm, em: qm & em != em)


def triangle_deck_matrix(g: Graph, k: int) -> IncidenceMatrix:
    """Survival matrix of the k-cliques across the triangle-edge-deleted subgraphs.

    A k-clique survives deleting triangle d's edges iff it shares at most one
    vertex with d.  Row sums are exposed but not asserted constant.
    """
    if k < 3:
        raise ValueError("order k must be >= 3")
    catalog = enumerate_cliques(g, k_max=k)
    return _incidence(KIND_TRIANGLE_DECK, k, catalog.cliques(k), catalog.cliques(3),
                      lambda qm, dm: (qm & dm).bit_count() <= 1)


def double_count(matrix: IncidenceMatrix) -> tuple[int, int]:
    """Grand total of all entries evaluated by rows and by columns."""
    return (matrix.total_by_rows(), matrix.total_by_cols())
