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

Summing all entries by rows and by columns is the double-counting step that
turns each matrix into a counting identity.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cliques import enumerate_cliques
from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np

KIND_SUBCLIQUE_SUPERCLIQUE = "subclique-superclique"
KIND_VERTEX_DECK = "vertex-deck"
KIND_EDGE_DECK = "edge-deck"
KIND_TRIANGLE_DECK = "triangle-deck"

Label = tuple[int, ...]


def _label_text(label: Label) -> str:
    return "-".join(str(v) for v in label)


@dataclass(frozen=True)
class IncidenceMatrix:
    """Sparse 0/1 matrix whose rows and columns carry clique / deck-member labels."""

    kind: str
    k: int
    row_labels: tuple[Label, ...]
    col_labels: tuple[Label, ...]
    entries: frozenset[tuple[int, int]]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    def entry(self, i: int, j: int) -> int:
        return 1 if (i, j) in self.entries else 0

    def row_sum(self, i: int) -> int:
        return sum(1 for r, _ in self.entries if r == i)

    def col_sum(self, j: int) -> int:
        return sum(1 for _, c in self.entries if c == j)

    def row_sums(self) -> list[int]:
        out = [0] * len(self.row_labels)
        for i, _ in self.entries:
            out[i] += 1
        return out

    def col_sums(self) -> list[int]:
        out = [0] * len(self.col_labels)
        for _, j in self.entries:
            out[j] += 1
        return out

    def total_by_rows(self) -> int:
        return sum(self.row_sums())

    def total_by_cols(self) -> int:
        return sum(self.col_sums())

    def to_dense(self) -> np.ndarray:
        """Dense uint8 copy of the matrix; needs the optional numpy extra (dense)."""
        import numpy as np

        dense = np.zeros(self.shape, dtype=np.uint8)
        for i, j in self.entries:
            dense[i, j] = 1
        return dense

    def to_csv(self) -> str:
        """CSV with labels, a trailing row_sum column, and a trailing col_sum row.

        The corner cell of the sums row/column holds the grand total, i.e. the
        double count.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([""] + [_label_text(c) for c in self.col_labels] + ["row_sum"])
        rsums, csums = self.row_sums(), self.col_sums()
        for i, label in enumerate(self.row_labels):
            writer.writerow(
                [_label_text(label)]
                + [self.entry(i, j) for j in range(len(self.col_labels))]
                + [rsums[i]]
            )
        writer.writerow(["col_sum"] + csums + [sum(csums)])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        dense = [
            [self.entry(i, j) for j in range(len(self.col_labels))]
            for i in range(len(self.row_labels))
        ]
        return {
            "kind": self.kind,
            "k": self.k,
            "row_labels": [list(l) for l in self.row_labels],
            "col_labels": [list(l) for l in self.col_labels],
            "matrix": dense,
            "row_sums": self.row_sums(),
            "col_sums": self.col_sums(),
            "double_count": list(double_count(self)),
        }


def _mask(label: Label) -> int:
    m = 0
    for v in label:
        m |= 1 << v
    return m


def subclique_superclique_matrix(g: Graph, k: int) -> IncidenceMatrix:
    """Containment matrix between the k-cliques and the (k+1)-cliques of g."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    catalog = enumerate_cliques(g, k_max=k + 1)
    rows = catalog.cliques(k)
    cols = catalog.cliques(k + 1)
    row_masks = [_mask(q) for q in rows]
    col_masks = [_mask(c) for c in cols]
    entries = frozenset(
        (i, j)
        for i, qm in enumerate(row_masks)
        for j, cm in enumerate(col_masks)
        if qm & ~cm == 0
    )
    return IncidenceMatrix(KIND_SUBCLIQUE_SUPERCLIQUE, k, rows, tuple(cols), entries)


def vertex_deck_matrix(g: Graph, k: int) -> IncidenceMatrix:
    """Survival matrix of the k-cliques across the n vertex-deleted subgraphs."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    rows = enumerate_cliques(g, k_max=k).cliques(k)
    cols = tuple((v,) for v in range(g.n))
    row_masks = [_mask(q) for q in rows]
    entries = frozenset(
        (i, v)
        for i, qm in enumerate(row_masks)
        for v in range(g.n)
        if not qm >> v & 1
    )
    return IncidenceMatrix(KIND_VERTEX_DECK, k, rows, cols, entries)


def edge_deck_matrix(g: Graph, k: int) -> IncidenceMatrix:
    """Survival matrix of the k-cliques across the m edge-deleted subgraphs."""
    if k < 2:
        raise ValueError("order k must be >= 2")
    rows = enumerate_cliques(g, k_max=k).cliques(k)
    cols = tuple((u, v) for u, v in g.edges())
    row_masks = [_mask(q) for q in rows]
    col_masks = [(1 << u) | (1 << v) for u, v in cols]
    entries = frozenset(
        (i, j)
        for i, qm in enumerate(row_masks)
        for j, em in enumerate(col_masks)
        if qm & em != em
    )
    return IncidenceMatrix(KIND_EDGE_DECK, k, rows, cols, entries)


def triangle_deck_matrix(g: Graph, k: int) -> IncidenceMatrix:
    """Survival matrix of the k-cliques across the triangle-edge-deleted subgraphs.

    A k-clique survives deleting triangle d's edges iff it shares at most one
    vertex with d.  Row sums are exposed but not asserted constant.
    """
    if k < 3:
        raise ValueError("order k must be >= 3")
    catalog = enumerate_cliques(g, k_max=k)
    rows = catalog.cliques(k)
    cols = catalog.cliques(3)
    row_masks = [_mask(q) for q in rows]
    col_masks = [_mask(c) for c in cols]
    entries = frozenset(
        (i, j)
        for i, qm in enumerate(row_masks)
        for j, dm in enumerate(col_masks)
        if (qm & dm).bit_count() <= 1
    )
    return IncidenceMatrix(KIND_TRIANGLE_DECK, k, rows, tuple(cols), entries)


def double_count(matrix: IncidenceMatrix) -> tuple[int, int]:
    """Grand total of all entries evaluated by rows and by columns."""
    return (matrix.total_by_rows(), matrix.total_by_cols())
