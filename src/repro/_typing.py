"""Shared typing vocabulary for the strictly-typed packages.

Central aliases keep signatures readable under the strict-typing gate
(``mypy --strict`` profile in ``pyproject.toml`` plus the repo linter's
T1 rule, see ``docs/static-analysis.md``):

* NumPy arrays are annotated with dtype-precise ``numpy.typing.NDArray``
  aliases rather than bare ``np.ndarray`` (which is an implicit
  ``ndarray[Any, dtype[Any]]`` and is rejected by
  ``disallow_any_generics``).
* Library-wide "accepts several spellings" parameters (aggregates,
  theta conditions, hops) get one alias each so every entry point
  documents the same contract.

Only aliases live here — no runtime logic — so importing this module
never creates an import cycle: it depends on nothing inside
:mod:`repro` except :mod:`repro.relational` leaf types under
``TYPE_CHECKING``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

import numpy as np
from numpy.typing import NDArray

if TYPE_CHECKING:
    from collections.abc import Sequence

    from .relational.aggregates import AggregateFunction
    from .relational.join import HopSpec, ThetaCondition

__all__ = [
    "FloatMatrix",
    "FloatVector",
    "IntMatrix",
    "IntVector",
    "BoolVector",
    "AggregateLike",
    "RowsLike",
    "ThetaLike",
    "HopLike",
    "HopsLike",
    "Record",
    "JoinKey",
    "ColumnData",
]

# -- array shapes -------------------------------------------------------
# Shape is not encoded (numpy's typing cannot express it usefully yet);
# the Matrix/Vector split documents intent only.
FloatMatrix = NDArray[np.float64]
FloatVector = NDArray[np.float64]
IntMatrix = NDArray[np.intp]
IntVector = NDArray[np.intp]
BoolVector = NDArray[np.bool_]

# -- parameter spellings ------------------------------------------------
# A row subset: row indexes as any int sequence or an index array.
RowsLike = Union["Sequence[int]", NDArray[np.intp]]

# An aggregate is a registry name ("sum") or an AggregateFunction.
AggregateLike = Union[str, "AggregateFunction"]

# A theta condition, or a sequence of them meaning a conjunction.
ThetaLike = Union["ThetaCondition", "Sequence[ThetaCondition]"]

# One hop of a cascade join graph: HopSpec, legacy Hop-like object
# (anything with left_column/right_column), a theta condition or
# conjunction, or None for composite-key equality.
HopLike = Union["HopSpec", "ThetaCondition", "Sequence[ThetaCondition]", object, None]

# A hop sequence for an m-way cascade (None = all composite-key hops).
HopsLike = Union["Sequence[HopLike]", None]

# One materialized tuple as a column-name -> value mapping.
Record = dict[str, object]

# A composite equality-join key (one hashable value per join attribute).
JoinKey = tuple[object, ...]

# One column's values: any python sequence or a numpy array (numpy
# arrays are not typing Sequences, so the union is spelled explicitly).
ColumnData = Union["Sequence[object]", NDArray[np.float64]]
