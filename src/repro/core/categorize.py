"""SS / SN / NN categorization of base relations (paper Sec. 5.2-5.4).

Under threshold ``k'``, relation ``R`` partitions into:

* ``SS`` — tuples not k'-dominated by *any* tuple of ``R`` (k'-dominant
  skyline of the whole relation; Def. 1);
* ``SN`` — tuples k'-dominant within their join group but k'-dominated
  by some tuple of another group (Def. 2);
* ``NN`` — tuples k'-dominated within their own group (Def. 3).

The categorization drives the fate table (paper Tables 4/5): joined
tuples composed solely of SS components are guaranteed k-dominant
skylines, any NN component makes them guaranteed non-skylines, and
mixed SS/SN compositions must be verified against target sets.

The "own group" of a tuple is the set of tuples that can stand in for
it in every join: under an equality join its join group, under a
cartesian join (Sec. 6.5) the whole relation, and under theta
conditions (Sec. 6.6) every tuple guaranteed to join with at least the
same partners. One rule covers all three: it reads the stand-ins off a
hop side's substitution key
(:meth:`~repro.relational.join.HopJoin.substitution_keys`), and the
m-way Theorem-4 pruning of cascades applies it per relation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..relational.join import HopJoin, HopSpec
from ..relational.relation import Relation
from ..skyline.dominance import k_dominated_any

if TYPE_CHECKING:
    from numpy.typing import NDArray

    from .._typing import FloatMatrix, IntVector

__all__ = ["Category", "Fate", "FATE_TABLE", "Categorization", "categorize"]


class Category(enum.IntEnum):
    """Per-tuple categorization label."""

    SS = 0
    SN = 1
    NN = 2


class Fate(enum.Enum):
    """Fate of a joined tuple per its components' categories (Table 5)."""

    YES = "yes"  # guaranteed k-dominant skyline (Th. 1/3)
    LIKELY = "likely"  # probably skyline; verify vs augmented targets (Obs. 1/3)
    MAYBE = "may be"  # verify vs full target join (Obs. 2/4)
    NO = "no"  # guaranteed non-skyline (Th. 2/4)


#: (left category, right category) -> fate of the joined tuple.
FATE_TABLE: dict[tuple[Category, Category], Fate] = {
    (Category.SS, Category.SS): Fate.YES,
    (Category.SS, Category.SN): Fate.LIKELY,
    (Category.SN, Category.SS): Fate.LIKELY,
    (Category.SN, Category.SN): Fate.MAYBE,
    (Category.SS, Category.NN): Fate.NO,
    (Category.SN, Category.NN): Fate.NO,
    (Category.NN, Category.SS): Fate.NO,
    (Category.NN, Category.SN): Fate.NO,
    (Category.NN, Category.NN): Fate.NO,
}


@dataclass
class Categorization:
    """Result of categorizing one base relation under threshold ``k'``."""

    relation: Relation
    k_prime: int
    labels: NDArray[np.int8]  # one Category value per row

    @property
    def ss_rows(self) -> IntVector:
        """Row indices labelled SS."""
        return np.flatnonzero(self.labels == Category.SS)

    @property
    def sn_rows(self) -> IntVector:
        """Row indices labelled SN."""
        return np.flatnonzero(self.labels == Category.SN)

    @property
    def nn_rows(self) -> IntVector:
        """Row indices labelled NN."""
        return np.flatnonzero(self.labels == Category.NN)

    def category(self, row: int) -> Category:
        """Label of one row."""
        return Category(int(self.labels[row]))

    def counts(self) -> dict[str, int]:
        """Category name -> number of rows."""
        return {
            "SS": int((self.labels == Category.SS).sum()),
            "SN": int((self.labels == Category.SN).sum()),
            "NN": int((self.labels == Category.NN).sum()),
        }


def categorize(
    relation: Relation,
    k_prime: int,
    key: FloatMatrix | None = None,
) -> Categorization:
    """Partition ``relation`` into SS/SN/NN under ``k_prime``-dominance.

    ``key`` is one hop side's substitution key
    (:meth:`~repro.relational.join.HopJoin.substitution_keys`): row
    ``s`` stands in for row ``u`` when ``key[s] <= key[u]`` in every
    column. A row k'-dominated by one of its stand-ins is NN, because
    swapping the stand-in into every joined tuple built from the row
    gives a joined tuple that dominates it. The default key is the
    composite join key, whose stand-ins are a row's join group
    (Def. 3). Under theta conditions the rule is conservative, as the
    paper notes: a would-be NN row may be labelled SN, which costs
    only verification, never correctness.

    Rows with equal keys share their stand-ins, so each class of equal
    keys takes one dominance pass against its stand-ins. The survivors
    then take one pass against the whole relation, which splits SS
    from SN: only they need it, since a row undominated overall is
    undominated among its stand-ins.
    """
    if key is None:
        key = HopJoin(HopSpec(), relation, relation).substitution_keys()[0]
    matrix = relation.oriented()
    classes, inverse = np.unique(key, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    nn = np.zeros(len(relation), dtype=bool)
    for c, class_key in enumerate(classes):
        rows = np.flatnonzero(inverse == c)
        stand_ins = (key <= class_key).all(axis=1)
        nn[rows] = k_dominated_any(matrix[stand_ins], matrix[rows], k_prime)
    survivors = np.flatnonzero(~nn)
    labels = np.full(len(relation), Category.NN, dtype=np.int8)
    labels[survivors] = np.where(
        k_dominated_any(matrix, matrix[survivors], k_prime), Category.SN, Category.SS
    )
    return Categorization(relation=relation, k_prime=k_prime, labels=labels)
